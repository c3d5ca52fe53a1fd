"""Shared pytest plumbing: the acceptance-criteria summary block, and a
check that no test leaves a child process running."""

from __future__ import annotations

import multiprocessing

import pytest

_CRITERIA: dict[int, str] = {}


def record_criterion(n: int, passed: bool, detail: str) -> None:
    """Register one acceptance criterion outcome for the summary block."""
    status = "PASS" if passed else "FAIL"
    _CRITERIA[n] = f"{status} criterion {n:2d}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_CRITERIA):
        terminalreporter.write_line(_CRITERIA[n])


@pytest.fixture(autouse=True)
def _no_child_process_outlives_its_test():
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.kill()
        child.join()
    if alive:
        pytest.fail(f"the test left {len(alive)} child process(es) running: {alive}")
