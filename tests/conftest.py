"""Shared pytest plumbing: a check that no test leaves a child process
running, and a count of the world model's forks."""

from __future__ import annotations

import multiprocessing

import pytest

from leq_lab import world_model


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
    """A list that grows by one each time `world_model.train_ensemble`
    forks a child."""
    counted, in_a_child = [], world_model._in_a_child

    def counting(*args):
        counted.append(1)
        return in_a_child(*args)

    monkeypatch.setattr(world_model, "_in_a_child", counting)
    return counted
