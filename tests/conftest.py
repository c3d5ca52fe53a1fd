"""Shared pytest plumbing: one BLAS thread, a check that no test leaves a
child process running, a count of helper starts, and a deadline for a test
that could hang.

Run from the repository root, pytest loads this file before it collects
any test module, `perfbench/tests`' included, so the BLAS thread count is
set before NumPy loads."""

from __future__ import annotations

import os

# OpenBLAS reads it once, as NumPy loads, and `forked.can_fork` forks no
# helper unless it is "1": as in CI's steps, the tests that need a helper
# get one, beside one BLAS thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import multiprocessing  # noqa: E402
import signal  # noqa: E402

import pytest  # noqa: E402

from leq_lab import forked  # noqa: E402


@pytest.fixture(autouse=True)
def _no_child_process_outlives_its_test():
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.kill()
        child.join()
    if alive:
        pytest.fail(f"the test left {len(alive)} child process(es) running: {alive}")


@pytest.fixture
def forks(monkeypatch) -> list:
    """A list that grows by one each time a `forked.Helper` forks its child."""
    counted, fork = [], forked.Helper._fork

    def counting(self, *args):
        counted.append(1)
        return fork(self, *args)

    monkeypatch.setattr(forked.Helper, "_fork", counting)
    return counted


@pytest.fixture
def deadline():
    """Call with a number of seconds: past them, the test fails where it
    waits (a blocked pipe write included)."""

    def expire(signum, frame):
        # not TimeoutError: an OSError would pass for a closed pipe
        pytest.fail("the test ran past its deadline")

    before = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, before)
