"""Shared pytest plumbing: a check that no test leaves a child process
running, a count of helper starts, and a deadline for a test that could hang."""

from __future__ import annotations

import multiprocessing
import signal

import pytest

from leq_lab import forked


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
