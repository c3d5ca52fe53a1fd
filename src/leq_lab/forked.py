"""A helper process: a forked child that runs one function beside this one.

`serving(fn)` forks a `Helper` bound to `fn` where `can_fork()` allows,
and yields None otherwise. `fn`, and whatever it binds (a
`functools.partial`'s arguments), reach the child in its copy of this
process's memory, so they are never pickled. Arrays travel through an
anonymous shared mapping made before the fork (`shared_arrays`;
`Helper.fn` reaches its views here): this process writes a call's inputs
there before `call` and reads its outputs after `result`, and the child
touches them only while its call is in flight.

A call travels through shared memory as well, by a doorbell. `call(*ints)`
writes up to `_MAX_ARGS` integer arguments and then bumps a ring counter;
the child, which polls that counter, runs `fn(*ints)` for its side effects
and sets a done counter, which `result` polls and then returns None. One
call is in flight at a time: a second `call` before `result` raises. Each
counter sits on its own cache line of a one-page mapping, so the two
spinning processes never write to a line the other polls. Polling spares
a call the wake-up of a child that sleeps in a pipe read, about 140 us,
most of a 1 ms call; but both ends hold a CPU while they wait, so a helper
suits only work that keeps it busy for most of its life. The doorbell
relies on x86's store order, under which the inputs written before the
ring, and the outputs written before the done count, are seen before the
counter is. So `can_fork` is false on another architecture: a run there
forks no helper, does every call's work here, and writes the same bytes.

The pipe between the two carries only failures. A call that raises, or a
child that dies, makes `result` raise HelperError: the child reports a
failure down the pipe, and the waiting end checks the pipe every `_POLLS`
polls, where EOF means the child died. The child never outlives the
`serving(fn)` block, and ends by itself if this process dies: it checks
its end of the pipe for EOF every `_POLLS` polls as well.

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
    process runs on x86 (the doorbell's store order) and may run on at
    least 2 CPUs, it is not a daemonic worker, which may not start
    children, no helper of this process is alive, and no `nn` function has
    been replaced here (by a tracer, a profiler or a test's spy), since
    the wrapper would miss the child's calls."""
    import multiprocessing

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and os.uname().machine in ("x86_64", "amd64")
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
    """A forked daemonic child that runs `fn(*ints)` for each `call(*ints)`.

    `busy_s` sums the child's seconds inside the calls that succeeded, and
    `wait_s` the seconds this process waited for them.
    """

    def __init__(self, fn):
        self.fn = fn
        self.busy_s = self.wait_s = 0.0
        self._in_flight = False
        self._bell = np.frombuffer(mmap.mmap(-1, 128), dtype=np.int64)
        self._fork(fn)
        _live.add(self)

    def _fork(self, fn) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, there = ctx.Pipe()
        self._child = ctx.Process(target=self._serve, args=(fn, there), daemon=True)
        self._child.start()
        there.close()

    def call(self, *args: int) -> None:
        """Start fn(*args) in the child, for at most `_MAX_ARGS` integers."""
        if self._in_flight:
            raise RuntimeError("a helper call is already in flight: wait for its result first")
        if len(args) > _MAX_ARGS:
            raise ValueError(f"a helper call takes at most {_MAX_ARGS} integer arguments")
        self._bell[_ARGS : _ARGS + len(args)] = args
        self._bell[_NARGS] = len(args)
        self._bell[_RING] += 1
        self._in_flight = True

    def result(self) -> None:
        """Wait for the call to end; HelperError if it raised or the child
        died."""
        if not self._in_flight:
            raise RuntimeError("no helper call is in flight")
        self._in_flight = False
        bell, ring, polls = self._bell, self._bell[_RING], 0
        t0 = time.perf_counter()
        try:
            while bell[_DONE] != ring:
                polls += 1
                # readable before the done count: a failure reported, or EOF from a dead child
                if polls % _POLLS == 0 and self._conn.poll():
                    break
            failure = None if bell[_DONE] == ring and bell[_OK] else self._conn.recv()
        except (EOFError, OSError):  # the child has gone
            self._child.join()
            raise HelperError(f"helper process exited with code {self._child.exitcode}") from None
        finally:
            self.wait_s += time.perf_counter() - t0
        if failure is not None:
            raise HelperError(f"helper process failed: {failure}")
        self.busy_s += float(bell[_BUSY : _BUSY + 1].view(np.float64)[0])

    def close(self) -> None:
        """Kill the child and wait for it; calling again does nothing."""
        _live.discard(self)
        if self._conn.closed:
            return
        self._conn.close()
        self._child.kill()
        self._child.join()

    def _serve(self, fn, conn) -> None:
        """The child: poll the ring count, and run each call as it rings."""
        self._conn.close()  # so that the child sees EOF once this process is gone
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
def serving(fn):
    """A Helper bound to `fn` where `can_fork()` allows, else None; its
    child is killed when the block ends."""
    helper = Helper(fn) if can_fork() else None
    try:
        yield helper
    finally:
        if helper is not None:
            helper.close()
