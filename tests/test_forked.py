"""A helper process: one function bound at the fork, one call in flight at a
time, failures raise, and the rule for forking."""

import multiprocessing
import os
import threading
from functools import partial

import numpy as np
import pytest

from leq_lab import forked, nn


def _pid_and_sum(*values):
    return os.getpid(), float(sum(np.sum(v) for v in values))


def _raise(*args):
    raise FloatingPointError("planted")


def _exit_3(*args):
    os._exit(3)


def _echo(value):
    return value


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_calls_run_one_at_a_time_in_one_child_on_what_the_fork_bound(forks):
    big = np.arange(40_000.0)  # crosses the pipe in more than one write
    lock = threading.Lock()  # no pickle takes a lock: the bound values never cross the pipe

    def bound(lock, big, k):
        with lock:
            return _pid_and_sum(big, np.full(3, k))

    helper = forked.Helper(partial(bound, lock, big))
    try:
        assert forks == [1]  # forked at once, before any call
        got = []
        for k in range(4):
            helper.call(k)
            got.append(helper.result())
    finally:
        helper.close()
    pids = {pid for pid, _ in got}
    assert len(pids) == 1 and os.getpid() not in pids and forks == [1]
    assert [total for _, total in got] == [float(big.sum()) + 3 * k for k in range(4)]
    assert helper.busy_s > 0.0 and helper.wait_s > 0.0


def test_a_second_call_before_the_result_raises_and_so_does_a_result_without_a_call():
    helper = forked.Helper(_pid_and_sum)
    try:
        with pytest.raises(RuntimeError, match="no helper call is in flight"):
            helper.result()
        helper.call(np.arange(3.0))
        with pytest.raises(RuntimeError, match="already in flight"):
            helper.call(np.arange(5.0))
        assert helper.result()[1] == 3.0  # the first call's, untouched by the refused one
        helper.call(np.arange(5.0))
        assert helper.result()[1] == 10.0
    finally:
        helper.close()


def test_calls_and_results_larger_than_the_pipe_cross_without_a_deadlock(deadline):
    # each message is about 1 MB, several times a pipe's buffer
    big = np.arange(125_000.0)
    helper = forked.Helper(_echo)
    deadline(60.0)
    try:
        got = []
        for k in range(3):
            helper.call(big + k)
            got.append(helper.result())
    finally:
        helper.close()
    assert [value.tobytes() for value in got] == [(big + k).tobytes() for k in range(3)]


def test_a_call_that_raises_reports_its_error_and_the_child_serves_on():
    helper = forked.Helper(lambda fail: _raise() if fail else "served")
    try:
        helper.call(True)
        with pytest.raises(forked.HelperError, match="FloatingPointError: planted"):
            helper.result()
        helper.call(False)
        assert helper.result() == "served"
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_raises_with_its_exit_code():
    helper = forked.Helper(lambda die: _exit_3() if die else None)
    try:
        helper.call(False)
        helper.result()
        helper.call(True)
        with pytest.raises(forked.HelperError, match="exited with code 3"):
            helper.result()
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_a_call_sent_after_the_child_died_raises_with_its_exit_code():
    helper = forked.Helper(_pid_and_sum)
    try:
        helper._child.kill()
        helper._child.join(timeout=30.0)
        with pytest.raises(forked.HelperError, match="exited with code -9"):
            helper.call(np.arange(40_000.0))
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_the_child_ends_by_itself_once_this_end_of_the_pipe_closes():
    helper = forked.Helper(_pid_and_sum)
    helper._conn.close()
    helper._child.join(timeout=30.0)
    assert helper._child.exitcode == 0
    helper.close()  # nothing left to do


def test_serving_forks_at_entry_and_its_child_never_outlives_the_block(monkeypatch, forks):
    _two_cpus(monkeypatch)
    with forked.serving(_pid_and_sum) as helper:
        assert helper is not None and forks == [1]
        assert len(multiprocessing.active_children()) == 1
    assert multiprocessing.active_children() == []
    with pytest.raises(KeyError):
        with forked.serving(_pid_and_sum) as helper:
            helper.call()
            raise KeyError("the block fails with a call in flight")
    assert forks == [1, 1] and multiprocessing.active_children() == []
    helper.close()  # closing twice does nothing


def test_fork_rule(monkeypatch, forks):
    _two_cpus(monkeypatch)
    assert forked.can_fork()
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert not forked.can_fork()
    with monkeypatch.context() as patch:
        patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not forked.can_fork()
    with monkeypatch.context() as patch:
        worker = multiprocessing.current_process()
        patch.setattr(worker, "daemon", True)
        assert not forked.can_fork()
    with monkeypatch.context() as patch:
        forward = nn.forward
        patch.setattr(nn, "forward", lambda *args: forward(*args))
        assert not forked.can_fork()
        with forked.serving(_pid_and_sum) as helper:
            assert helper is None
    assert forked.can_fork() and forks == []
