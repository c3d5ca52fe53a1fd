"""A run's one helper process: a forked child that runs calls beside this one.

`serving()` yields a `Helper` where `can_fork()` allows, and None
otherwise. The helper forks on its first call, which the child runs from
its copy of this process's memory, so that call's arguments are never
pickled. Later calls and every result cross a pipe, pickled. The child
runs the calls one at a time, in the order they were submitted, and
`result(job)` returns one call's result, keeping any earlier ones until
they are asked for. A call is a module-level function and its arguments;
`keep(value)` sends a value many calls share (the world model) once, and
its token stands for the value in later calls' arguments.

This process sends nothing while a call's result is still to come: it
first reads every result due. The child reads a message only once it has
sent its last result, so if both ends wrote at once, a message larger
than the pipe's buffer would leave each waiting for the other to read.

A call that raises, or a child that dies, makes `result` raise
HelperError. The child never outlives the `serving()` block, and ends by
itself if this process dies, when its end of the pipe closes.
"""

from __future__ import annotations

import contextlib
import os
import time

from . import nn

__all__ = ["HelperError", "Helper", "can_fork", "serving"]


class HelperError(RuntimeError):
    """A helper call raised, or the helper process died."""


# the `nn` functions helper calls run, as this module found them
_NN_CALLS = {
    name: getattr(nn, name)
    for name in ("init_params", "init_adam", "forward_cached", "backward_cached", "adam_step", "forward")
}


def can_fork() -> bool:
    """Whether a run may start a helper: the fork start method exists, this
    process may run on at least 2 CPUs, it is not a daemonic worker, which
    may not start children, and no `nn` function has been replaced here (by
    a tracer, a profiler or a test's spy), since the wrapper would miss the
    child's calls."""
    import multiprocessing

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and not multiprocessing.current_process().daemon
        and all(getattr(nn, name) is fn for name, fn in _NN_CALLS.items())
    )


class _Kept(int):
    """Stands for a value sent by `Helper.keep` in a call's arguments: its key."""


class Helper:
    """A forked daemonic child that runs submitted calls in order.

    `busy_s` sums the child's seconds inside the calls whose results came
    back, and `wait_s` the seconds this process waited for them.
    """

    def __init__(self):
        self._conn = None
        self._child = None
        self._sent = self._received = 0
        self._results: dict = {}
        self._kept: dict = {}  # id -> value, held so that the id stays this value's
        self.busy_s = self.wait_s = 0.0

    def _fork(self, first) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, there = ctx.Pipe()
        self._child = ctx.Process(target=self._serve, args=(there, first), daemon=True)
        self._child.start()
        there.close()

    def submit(self, fn, *args) -> int:
        """Queue fn(*args) in the child; returns its job number for `result`."""
        if self._child is None:
            self._fork((fn, args))
        else:
            self._send(("call", fn, args))
        self._sent += 1
        return self._sent - 1

    def keep(self, value) -> _Kept:
        """A token that stands for `value` in later calls' arguments; the value
        crosses to the child once."""
        key = id(value)
        if key not in self._kept:
            self._send(("keep", key, value))
            self._kept[key] = value
        return _Kept(key)

    def result(self, job: int):
        """Job `job`'s result, waiting for it; HelperError if a call raised
        or the child died."""
        self._receive(job + 1)
        return self._results.pop(job)

    def _receive(self, through: int) -> None:
        """Read results until the first `through` jobs' have come."""
        t0 = time.perf_counter()
        try:
            while self._received < through:
                try:
                    ok, value, busy_s = self._conn.recv()
                except (EOFError, OSError):  # the child has gone
                    raise self._exited() from None
                self.busy_s += busy_s
                if not ok:
                    raise HelperError(f"helper process failed: {value}")
                self._results[self._received] = value
                self._received += 1
        finally:
            self.wait_s += time.perf_counter() - t0

    def _send(self, message) -> None:
        if self._child is None:
            self._fork(None)
        self._receive(self._sent)
        try:
            self._conn.send(message)
        except OSError:  # the child has gone, and its end of the pipe with it
            raise self._exited() from None

    def _exited(self) -> HelperError:
        self._child.join()
        return HelperError(f"helper process exited with code {self._child.exitcode}")

    def close(self) -> None:
        """Kill the child, if it forked, and wait for it; calling again does nothing."""
        if self._child is None or self._conn.closed:
            return
        self._conn.close()
        self._child.kill()
        self._child.join()
        self._results.clear()

    def _serve(self, conn, call) -> None:
        """The child: run `call`, if any, then every message that arrives, in order."""
        self._conn.close()  # so that the child sees EOF once this process is gone
        while True:
            if call is not None:
                fn, args = call
                args = [self._kept[a] if isinstance(a, _Kept) else a for a in args]
                t0 = time.perf_counter()
                try:
                    reply = (True, fn(*args))
                except Exception as err:  # `result` raises it here as a HelperError
                    reply = (False, f"{type(err).__name__}: {err}")
                conn.send((*reply, time.perf_counter() - t0))
            try:
                kind, *message = conn.recv()
            except (EOFError, OSError):  # this process has gone
                return
            if kind == "keep":
                key, value = message
                self._kept[key] = value
                call = None
            else:
                call = message


@contextlib.contextmanager
def serving():
    """A Helper where `can_fork()` allows, else None; its child, if it
    forked, is killed when the block ends."""
    helper = Helper() if can_fork() else None
    try:
        yield helper
    finally:
        if helper is not None:
            helper.close()
