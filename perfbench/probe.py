"""A fixed reference computation that gauges how fast the host runs right now.

The machine the benchmark was tuned on (2 vCPUs, shared) runs each vCPU in
fast and slow phases that last from seconds to minutes, and a process
moves between vCPUs; a phase moves a figure by up to a third. Measured on
that machine, this probe, timed in the same process between stretches of
leq_lab's work, tracked them: over 3-second windows its log time
correlated 0.8-0.9 with that of dataset generation and BC, and dividing by
it cut their spread by half or more. Timed in another process it did not
track at all (the phases are per vCPU), nor did it when timed only once
per process, seconds away from the work.

So every timed stretch of work is bracketed by probe points, and its time
is divided by the slowdown the points on either side saw. The figures
read as seconds at the probe's nominal speed. A change to leq_lab still
moves them, since the probe runs none of its code.

The probe has the two kinds of work leq_lab does: interpreted Python (env
stepping, batch gathering) and numpy calls on small arrays (the MLP
layers); the slowdown is the geometric mean of the two parts' own.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median seconds of one burst of each part on the tuning machine
NOMINAL_S = {"python": 0.0095, "numpy": 0.0105}
BURSTS = 2

_RNG = np.random.default_rng(0)
_X0, _W = _RNG.standard_normal((256, 64)), _RNG.standard_normal((64, 64))


def _python_burst() -> float:
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(40_000):
        acc += (i * 0.5) % 7.0
        seen[i & 255] = acc
    return time.perf_counter() - t0


def _numpy_burst() -> float:
    t0 = time.perf_counter()
    x = _X0
    for _ in range(36):
        h = x @ _W
        h = np.where(h > 0, h, np.expm1(np.minimum(h, 0.0)))
        x = h * 0.1 + _X0
    return time.perf_counter() - t0


def slowdown(bursts: int = BURSTS) -> float:
    """Runs the probe: the geometric mean over the parts of the median
    burst time over nominal."""
    times = {"python": [], "numpy": []}
    for _ in range(bursts):
        times["python"].append(_python_burst())
        times["numpy"].append(_numpy_burst())
    logs = [math.log(statistics.median(times[p]) / n) for p, n in NOMINAL_S.items()]
    return math.exp(sum(logs) / len(logs))


class Timeline:
    """The probe points of one process, as (start, end, slowdown) in
    `time.perf_counter` seconds, and the normalized length of a stretch."""

    def __init__(self, gap_s: float = 0.3):
        self.gap_s = gap_s
        self.points: list[tuple[float, float, float]] = []

    def probe(self, force: bool = False) -> None:
        """Adds a probe point, unless one ended less than gap_s ago."""
        t0 = time.perf_counter()
        if force or not self.points or t0 - self.points[-1][1] >= self.gap_s:
            s = slowdown()
            self.points.append((t0, time.perf_counter(), s))

    def _side(self, t: float, before: bool) -> float | None:
        if before:
            found = [s for a, b, s in self.points if b <= t]
            return found[-1] if found else None
        found = [s for a, b, s in self.points if a >= t]
        return found[0] if found else None

    def probed_s(self, t0: float, t1: float) -> float:
        """Seconds of probe points inside [t0, t1]."""
        return sum(b - a for a, b, _ in self.points if t0 <= a and b <= t1)

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside probe points, each stretch between
        points divided by the geometric mean slowdown of the points on
        either side of it."""
        cuts = [t0]
        for a, b, _ in self.points:
            if t0 <= a and b <= t1:
                cuts += [a, b]
        cuts.append(t1)
        total = 0.0
        for x, y in zip(cuts[::2], cuts[1::2]):
            sides = [s for s in (self._side(x, True), self._side(y, False)) if s is not None]
            if not sides:
                raise ValueError("no probe point near the stretch")
            total += (y - x) / math.exp(sum(map(math.log, sides)) / len(sides))
        return total
