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
(`shared_arrays`; `Helper.fn` reaches them here), so arrays travel
unpickled: this process writes inputs there before `call` and reads
outputs after `result`, and the child touches them only while its call is
in flight.

With `doorbell=True` a call travels through shared memory instead, for
calls too short to pay for the pipe: the child of a pipe helper sleeps in
its read, and waking it took about 140 us, most of a 1 ms call. `call`
writes up to `_MAX_ARGS` integer arguments and then bumps a ring counter;
the child, which polls that counter, runs `fn(*args)` for its side
effects and sets a done counter, which `result` polls. Each counter sits
on its own cache line of a one-page mapping, so the two spinning
processes never write to a line the other polls. Both ends hold a CPU
while they wait, so this suits only a helper that is busy for most of its
life. It relies on x86's store order, under which the inputs written
before the ring, and the outputs written before the done count, are seen
before the counter is; `serving` forks no doorbell helper on another
architecture.

A call that raises, or a child that dies, makes `result` raise
HelperError: a doorbell helper reports a failure down the pipe, and its
waiting end checks the pipe every `_POLLS` polls. The child never
outlives the `serving(fn)` block, and ends by itself if this process dies,
when its end of the pipe closes; a doorbell child checks for that every
`_POLLS` polls as well.

One helper at a time: `can_fork` is false while a helper of this process
is alive, so a stage that runs beside a helper (BC beside the world
model's) forks none of its own; a helper, a daemonic child, never forks
one.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import time

import numpy as np

from . import nn

__all__ = ["HelperError", "Helper", "can_fork", "serving", "shared_arrays"]


class HelperError(RuntimeError):
    """A helper call raised, or the helper process died."""


# the `nn` functions helper calls run, as this module found them
_NN_CALLS = {
    name: getattr(nn, name)
    for name in (
        "init_params",
        "init_adam",
        "forward_cached",
        "backward_cached",
        "backward_rows",
        "backward_sums",
        "adam_step",
        "forward",
    )
}

# this process's helpers whose child has not been closed: one process-wide
# set, as the rule it serves is one helper per process
_live: set = set()

# doorbell slots (int64): the ring count and the arguments on the first
# cache line, written by this process; the done count, the outcome and the
# busy seconds (float64 bits) on the second, written by the child
_RING, _NARGS, _ARGS, _MAX_ARGS = 0, 1, 2, 6
_DONE, _OK, _BUSY = 8, 9, 10
# polls between two checks of the pipe (about 0.1 ms of spinning)
_POLLS = 1024


def can_fork() -> bool:
    """Whether a run may start a helper: the fork start method exists, this
    process may run on at least 2 CPUs, it is not a daemonic worker, which
    may not start children, no helper of this process is alive, and no
    `nn` function has been replaced here (by a tracer, a profiler or a
    test's spy), since the wrapper would miss the child's calls."""
    import multiprocessing

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and not multiprocessing.current_process().daemon
        and not _live
        and all(getattr(nn, name) is fn for name, fn in _NN_CALLS.items())
    )


def shared_arrays(*shapes) -> list[np.ndarray]:
    """Zeroed float64 arrays of `shapes` in one anonymous shared mapping,
    each starting on a 64-byte line: made before a fork, they are the same
    memory in both processes."""
    sizes = [int(np.prod(shape, dtype=int)) for shape in shapes]
    starts = np.cumsum([0] + [-(-size // 8) * 8 for size in sizes])  # in float64s: 8 to a line
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(int(starts[-1]), 1)), dtype=np.float64)
    return [flat[start : start + size].reshape(shape) for shape, size, start in zip(shapes, sizes, starts)]


class Helper:
    """A forked daemonic child that runs `fn(*args)` for each `call(*args)`.

    `busy_s` sums the child's seconds inside the calls whose results came
    back, and `wait_s` the seconds this process waited for them.
    """

    def __init__(self, fn, doorbell: bool = False):
        self.fn = fn
        self.busy_s = self.wait_s = 0.0
        self._in_flight = False
        self._bell = np.frombuffer(mmap.mmap(-1, 128), dtype=np.int64) if doorbell else None
        self._fork(fn)
        _live.add(self)

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
        if self._bell is not None:
            if len(args) > _MAX_ARGS:
                raise ValueError(f"a doorbell call takes at most {_MAX_ARGS} integer arguments")
            self._bell[_ARGS : _ARGS + len(args)] = args
            self._bell[_NARGS] = len(args)
            self._bell[_RING] += 1
        else:
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
            ok, value, busy_s = self._conn.recv() if self._bell is None else self._answer()
        except (EOFError, OSError):  # the child has gone
            raise self._exited() from None
        finally:
            self.wait_s += time.perf_counter() - t0
        self.busy_s += busy_s
        if not ok:
            raise HelperError(f"helper process failed: {value}")
        return value

    def _answer(self) -> tuple:
        """Poll the done count up to the ring count: (ok, value or failure, busy_s)."""
        bell, ring, polls = self._bell, self._bell[_RING], 0
        while bell[_DONE] != ring:
            polls += 1
            # readable before the answer: a failure reported, or EOF from a dead child
            if polls % _POLLS == 0 and self._conn.poll():
                return False, self._conn.recv(), 0.0
        if not bell[_OK]:
            return False, self._conn.recv(), 0.0
        return True, None, float(bell[_BUSY : _BUSY + 1].view(np.float64)[0])

    def _exited(self) -> HelperError:
        self._child.join()
        return HelperError(f"helper process exited with code {self._child.exitcode}")

    def close(self) -> None:
        """Kill the child and wait for it; calling again does nothing."""
        _live.discard(self)
        if self._conn.closed:
            return
        self._conn.close()
        self._child.kill()
        self._child.join()

    def _serve(self, fn, conn) -> None:
        """The child: run fn on each call's arguments as they arrive."""
        self._conn.close()  # so that the child sees EOF once this process is gone
        if self._bell is not None:
            return self._serve_doorbell(fn, conn)
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

    def _serve_doorbell(self, fn, conn) -> None:
        """The child of a doorbell helper: poll the ring count, run each call."""
        bell, seen, polls = self._bell, 0, 0
        while True:
            while bell[_RING] == seen:
                polls += 1
                # this process never writes to the pipe: readable means EOF
                if polls % _POLLS == 0 and conn.poll():
                    return
            seen = bell[_RING]
            args = bell[_ARGS : _ARGS + bell[_NARGS]].tolist()
            t0 = time.perf_counter()
            try:
                fn(*args)
                bell[_OK] = 1
            except Exception as err:  # `result` raises it here as a HelperError
                bell[_OK] = 0
                try:
                    conn.send(f"{type(err).__name__}: {err}")
                except OSError:  # this process has gone
                    return
            bell[_BUSY : _BUSY + 1].view(np.float64)[0] = time.perf_counter() - t0
            bell[_DONE] = seen


@contextlib.contextmanager
def serving(fn, doorbell: bool = False):
    """A Helper bound to `fn` where `can_fork()` allows (and, for a
    doorbell helper, on x86), else None; its child is killed when the
    block ends."""
    allowed = can_fork() and (not doorbell or os.uname().machine in ("x86_64", "amd64"))
    helper = Helper(fn, doorbell) if allowed else None
    try:
        yield helper
    finally:
        if helper is not None:
            helper.close()
