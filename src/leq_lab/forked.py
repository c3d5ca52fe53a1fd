"""A helper process: a forked child that runs one function beside this one.

`serving(fn)` forks a `Helper` bound to `fn` where `can_fork()` allows,
and yields None otherwise. `fn`, and whatever it binds (a
`functools.partial`'s arguments), reach the child in its copy of this
process's memory, so they are never pickled. `call(*args)` sends one call's
arguments down a pipe, and `result()` waits for what `fn(*args)` returned.
One call is in flight at a time: a second `call` before `result` raises.
So neither end ever writes while the other does, and no message is too
large for the pipe.

`fn` may bind views of an anonymous shared mapping made before the fork
(`Helper.fn` reaches them here), so arrays travel unpickled: this process
writes inputs there before `call` and reads outputs after `result`, and
the child touches them only while its call is in flight.

A call that raises, or a child that dies, makes `result` raise
HelperError. The child never outlives the `serving(fn)` block, and ends by
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


class Helper:
    """A forked daemonic child that runs `fn(*args)` for each `call(*args)`.

    `busy_s` sums the child's seconds inside the calls whose results came
    back, and `wait_s` the seconds this process waited for them.
    """

    def __init__(self, fn):
        self.fn = fn
        self.busy_s = self.wait_s = 0.0
        self._in_flight = False
        self._fork(fn)

    def _fork(self, fn) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, there = ctx.Pipe()
        self._child = ctx.Process(target=self._serve, args=(fn, there), daemon=True)
        self._child.start()
        there.close()

    def call(self, *args) -> None:
        """Start fn(*args) in the child; `result` returns its value."""
        if self._in_flight:
            raise RuntimeError("a helper call is already in flight: read its result first")
        try:
            self._conn.send(args)
        except OSError:  # the child has gone, and its end of the pipe with it
            raise self._exited() from None
        self._in_flight = True

    def result(self):
        """The call's result, waiting for it; HelperError if it raised or
        the child died."""
        if not self._in_flight:
            raise RuntimeError("no helper call is in flight")
        self._in_flight = False
        t0 = time.perf_counter()
        try:
            ok, value, busy_s = self._conn.recv()
        except (EOFError, OSError):  # the child has gone
            raise self._exited() from None
        finally:
            self.wait_s += time.perf_counter() - t0
        self.busy_s += busy_s
        if not ok:
            raise HelperError(f"helper process failed: {value}")
        return value

    def _exited(self) -> HelperError:
        self._child.join()
        return HelperError(f"helper process exited with code {self._child.exitcode}")

    def close(self) -> None:
        """Kill the child and wait for it; calling again does nothing."""
        if self._conn.closed:
            return
        self._conn.close()
        self._child.kill()
        self._child.join()

    def _serve(self, fn, conn) -> None:
        """The child: run fn on each call's arguments as they arrive."""
        self._conn.close()  # so that the child sees EOF once this process is gone
        while True:
            try:
                args = conn.recv()
            except (EOFError, OSError):  # this process has gone
                return
            t0 = time.perf_counter()
            try:
                reply = (True, fn(*args))
            except Exception as err:  # `result` raises it here as a HelperError
                reply = (False, f"{type(err).__name__}: {err}")
            conn.send((*reply, time.perf_counter() - t0))


@contextlib.contextmanager
def serving(fn):
    """A Helper bound to `fn` where `can_fork()` allows, else None; its
    child is killed when the block ends."""
    helper = Helper(fn) if can_fork() else None
    try:
        yield helper
    finally:
        if helper is not None:
            helper.close()
