"""The run's helper process: calls run in order in one forked child, results
come back in any order asked, failures raise, and the rule for forking."""

import multiprocessing
import os

import numpy as np
import pytest

from leq_lab import forked, nn


def _pid_and_sum(*values):
    return os.getpid(), float(sum(np.sum(v) for v in values))


def _raise(*args):
    raise FloatingPointError("planted")


def _exit_3(*args):
    os._exit(3)


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_calls_run_in_one_child_and_results_come_back_in_any_order(forks):
    big = np.arange(40_000.0)  # crosses the pipe in more than one write
    helper = forked.Helper()
    try:
        jobs = [helper.submit(_pid_and_sum, big, np.full(3, k)) for k in range(4)]
        late = helper.result(jobs[3])  # the earlier results are kept meanwhile
        got = [helper.result(job) for job in jobs[:3]] + [late]
    finally:
        helper.close()
    pids = {pid for pid, _ in got}
    assert len(pids) == 1 and os.getpid() not in pids and forks == [1]
    assert [total for _, total in got] == [float(big.sum()) + 3 * k for k in range(4)]
    assert helper.busy_s > 0.0 and helper.wait_s > 0.0


def test_a_kept_value_crosses_once_and_stands_in_for_itself(forks):
    before, after = np.arange(5.0), np.arange(7.0)
    helper = forked.Helper()
    try:
        first = helper.keep(before)  # the helper forks to receive it
        assert forks == [1] and helper.keep(before) == first
        assert helper.result(helper.submit(_pid_and_sum, first))[1] == 10.0
        second = helper.keep(after)  # sent to the running child
        assert helper.result(helper.submit(_pid_and_sum, first, second))[1] == 31.0
    finally:
        helper.close()
    assert forks == [1]


def _echo(value):
    return value


def test_calls_and_results_larger_than_the_pipe_cross_while_both_are_due(deadline):
    # each message is about 1 MB, several times a pipe's buffer: had this
    # process sent the second call while the child sent the first result,
    # each would wait for ever for the other to read
    big = np.arange(125_000.0)
    helper = forked.Helper()
    deadline(60.0)
    try:
        helper.result(helper.submit(_echo, None))  # fork; later calls cross the pipe
        jobs = [helper.submit(_echo, big + k) for k in range(3)]
        kept = helper.keep(big)
        got = [helper.result(job) for job in reversed(jobs)]
        assert helper.result(helper.submit(_pid_and_sum, kept))[1] == float(big.sum())
    finally:
        helper.close()
    assert [value.tobytes() for value in reversed(got)] == [(big + k).tobytes() for k in range(3)]


def test_a_call_that_raises_reports_its_error():
    helper = forked.Helper()
    try:
        job = helper.submit(_raise)
        with pytest.raises(forked.HelperError, match="FloatingPointError: planted"):
            helper.result(job)
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_raises_with_its_exit_code():
    helper = forked.Helper()
    try:
        helper.result(helper.submit(_pid_and_sum))
        job = helper.submit(_exit_3)
        with pytest.raises(forked.HelperError, match="exited with code 3"):
            helper.result(job)
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_a_call_sent_after_the_child_died_raises_with_its_exit_code():
    helper = forked.Helper()
    try:
        helper.submit(_exit_3)
        helper._child.join(timeout=30.0)
        with pytest.raises(forked.HelperError, match="exited with code 3"):
            helper.result(helper.submit(_pid_and_sum, np.arange(40_000.0)))
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_the_child_ends_by_itself_once_this_end_of_the_pipe_closes():
    helper = forked.Helper()
    helper.result(helper.submit(_pid_and_sum))
    helper._conn.close()
    helper._child.join(timeout=30.0)
    assert helper._child.exitcode == 0
    helper.close()  # nothing left to do


def test_a_helper_forks_only_on_its_first_call_and_never_outlives_serving(monkeypatch, forks):
    _two_cpus(monkeypatch)
    with forked.serving() as helper:
        assert helper is not None and forks == []
    assert forks == []
    with forked.serving() as helper:
        helper.submit(_pid_and_sum)
        assert len(multiprocessing.active_children()) == 1
    assert forks == [1] and multiprocessing.active_children() == []
    helper.close()  # closing twice does nothing


def test_fork_rule(monkeypatch):
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
        with forked.serving() as helper:
            assert helper is None
    assert forked.can_fork()
