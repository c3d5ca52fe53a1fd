"""A helper process: one function bound at the fork, one call in flight at a
time, failures raise, and the rule for forking."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from leq_lab import forked, nn


def _raise(*args):
    raise FloatingPointError("planted")


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _note_pid(out):
    """A helper function that writes its process id and its integer
    arguments' sum into `out`, a shared array."""

    def note(*ints):
        out[:] = os.getpid(), sum(ints)

    return note


def test_calls_run_one_at_a_time_in_one_child_on_what_the_fork_bound(forks):
    big = np.arange(40_000.0)
    lock = threading.Lock()  # no pickle takes a lock: the bound values reach the child unpickled
    (out,) = forked.shared_arrays((4, 2))

    def bound(lock, big, k):
        with lock:
            out[k] = os.getpid(), big.sum() + 3 * k

    helper = forked.Helper(partial(bound, lock, big))
    try:
        assert forks == [1]  # forked at once, before any call
        for k in range(4):
            helper.call(k)
            assert helper.result() is None
    finally:
        helper.close()
    assert out[:, 0].tolist() == [helper._child.pid] * 4 and helper._child.pid != os.getpid()
    assert out[:, 1].tolist() == [float(big.sum()) + 3 * k for k in range(4)] and forks == [1]
    assert helper.busy_s > 0.0 and helper.wait_s > 0.0


def test_a_second_call_before_the_result_raises_and_so_does_a_result_without_a_call():
    (out,) = forked.shared_arrays((2,))
    helper = forked.Helper(_note_pid(out))
    try:
        with pytest.raises(RuntimeError, match="no helper call is in flight"):
            helper.result()
        helper.call(1, 2)
        with pytest.raises(RuntimeError, match="already in flight"):
            helper.call(5)
        helper.result()
        assert out[1] == 3.0  # the first call's, untouched by the refused one
        helper.call(5)
        helper.result()
        assert out.tolist() == [helper._child.pid, 5.0]
    finally:
        helper.close()


def test_a_call_takes_at_most_six_integers():
    (out,) = forked.shared_arrays((2,))
    helper = forked.Helper(_note_pid(out))
    try:
        with pytest.raises(ValueError, match="at most 6 integer arguments"):
            helper.call(*range(7))
        assert out.tolist() == [0.0, 0.0]  # refused before the ring
        helper.call(*range(6))
        helper.result()
        assert out.tolist() == [helper._child.pid, 15.0]
    finally:
        helper.close()


def test_a_calls_integers_reach_the_child_exactly_and_only_its_own():
    (out,) = forked.shared_arrays((7,))
    got = out.view(np.int64)  # the count, then the integers

    def note(*ints):
        got[:] = 0
        got[0] = len(ints)
        got[1 : 1 + len(ints)] = ints

    wide = [-1, 0, 2**62 + 1, -(2**63), 2**63 - 1, 7]
    helper = forked.Helper(note)
    try:
        helper.call(*wide)
        helper.result()
        assert got.tolist() == [6, *wide]
        helper.call(1, 2)  # a shorter call sees none of the longer one's
        helper.result()
        assert got.tolist() == [2, 1, 2, 0, 0, 0, 0]
    finally:
        helper.close()


def test_a_call_that_raises_reports_its_error_and_the_child_serves_on():
    (out,) = forked.shared_arrays((2,))
    note = _note_pid(out)
    helper = forked.Helper(lambda fail, k: _raise() if fail else note(k))
    try:
        helper.call(1, 0)
        with pytest.raises(forked.HelperError, match="FloatingPointError: planted"):
            helper.result()
        helper.call(0, 42)
        helper.result()
        assert out.tolist() == [helper._child.pid, 42.0]
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def _kill_me(die):
    if die:
        os.kill(os.getpid(), signal.SIGKILL)


def _exit_3(die):
    if die:
        os._exit(3)


@pytest.mark.parametrize(
    "fn, code", [(_exit_3, 3), (_kill_me, -9)], ids=["exits-mid-call", "killed-mid-call"]
)
def test_a_child_that_dies_raises_with_its_exit_code(fn, code, deadline):
    helper = forked.Helper(fn)
    deadline(30.0)
    try:
        helper.call(0)
        helper.result()
        helper.call(1)
        with pytest.raises(forked.HelperError, match=f"exited with code {code}"):
            helper.result()
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_a_call_sent_after_the_child_died_raises_with_its_exit_code(deadline):
    helper = forked.Helper(_kill_me)
    deadline(30.0)
    try:
        helper._child.kill()
        helper._child.join(timeout=30.0)
        helper.call(0)
        with pytest.raises(forked.HelperError, match="exited with code -9"):
            helper.result()
    finally:
        helper.close()
    assert multiprocessing.active_children() == []


def test_busy_seconds_count_only_the_calls_that_succeeded():
    def nap(fail):
        time.sleep(0.05)
        if fail:
            _raise()

    helper = forked.Helper(nap)
    try:
        helper.call(1)
        with pytest.raises(forked.HelperError, match="FloatingPointError: planted"):
            helper.result()
        assert helper.busy_s == 0.0 and helper.wait_s > 0.0
        helper.call(0)
        helper.result()
        assert helper.busy_s >= 0.05
    finally:
        helper.close()


def test_the_child_ends_by_itself_once_this_end_of_the_pipe_closes():
    helper = forked.Helper(_raise)
    helper._conn.close()
    helper._child.join(timeout=30.0)
    assert helper._child.exitcode == 0
    helper.close()  # nothing left to do


def test_shared_arrays_are_zeroed_line_aligned_and_one_memory_across_the_fork():
    ints, rows, one = forked.shared_arrays((3,), (5, 2), ())
    assert [a.shape for a in (ints, rows, one)] == [(3,), (5, 2), ()]
    assert all(a.ctypes.data % 64 == 0 and not a.any() for a in (ints, rows, one))

    def fill(k):
        rows[k] = os.getpid(), k

    helper = forked.Helper(fill)
    try:
        for k in range(5):
            helper.call(k)
            helper.result()
    finally:
        helper.close()
    assert rows[:, 0].tolist() == [helper._child.pid] * 5 and rows[:, 1].tolist() == list(range(5))
    assert not ints.any() and not one.any()


def _ended(pid: int) -> bool:
    """Whether process `pid` has exited: gone, or a zombie nobody reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the child's state in /proc")
def test_a_polling_child_ends_by_itself_once_this_process_dies():
    script = (
        "import os, signal\n"
        "from leq_lab import forked\n"
        "helper = forked.Helper(lambda: None)\n"
        "helper.call()\n"
        "helper.result()\n"
        "print(helper._child.pid, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    src = os.path.dirname(os.path.dirname(forked.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == -signal.SIGKILL, run.stderr
    child = int(run.stdout)
    t0 = time.monotonic()
    while not _ended(child) and time.monotonic() - t0 < 30.0:
        time.sleep(0.01)
    assert _ended(child)


def test_serving_forks_at_entry_and_its_child_never_outlives_the_block(monkeypatch, forks):
    _two_cpus(monkeypatch)
    with forked.serving(_raise) as helper:
        assert helper is not None and forks == [1]
        assert len(multiprocessing.active_children()) == 1
    assert multiprocessing.active_children() == []
    with pytest.raises(KeyError):
        with forked.serving(_raise) as helper:
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
        with forked.serving(_raise) as helper:
            assert helper is None
    with monkeypatch.context() as patch:
        patch.setattr(os, "uname", lambda: os.uname_result(("Linux", "box", "6", "#1", "aarch64")))
        assert not forked.can_fork()  # the doorbell relies on x86's store order
        with forked.serving(_raise) as helper:
            assert helper is None and forks == []
    (out,) = forked.shared_arrays((2,))
    with forked.serving(_note_pid(out)) as helper:
        assert helper is not None
        assert not forked.can_fork()  # one helper at a time
        helper.call()
        helper.result()
        assert out[0] == helper._child.pid != os.getpid()
    assert forked.can_fork() and forks == [1]
