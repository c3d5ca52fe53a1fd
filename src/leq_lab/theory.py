"""Executable checks for the one-step filtered-mean refinement.

Training never solves for the conservative value target, the tau-expectile
Y of the return distribution, in closed form.  It repeatedly applies the
one-step refinement

    refine(y_hat) = E[W^tau(y_hat - X) X] / E[W^tau(y_hat - X)]

whose fixed point is Y.  The safety claims behind that update are made
executable here:

- ``lemma1_check``: for tau <= 1/2, starting at or above Y, one refinement
  never moves the estimate further from Y.  (Above 1/2 the mirrored
  statement covers pessimistic starts instead; a two-point distribution
  with an optimistic start is a counterexample at tau = 0.9.)
- ``lemma2_check``: starting below Y, the same holds provided the start is
  not too deep in the lower tail (``theorem1_condition``).
- ``theorem1_condition``: the cdf gate
  p(X below y_hat) >= (p(X <= Y) - tau / (1 - 2 tau)) / 2, vacuous for
  tau >= 1/2.  "Below" is the mass the refinement weights at (1 - tau):
  strictly below y_hat for distributions with atoms, the cdf otherwise
  (for continuous distributions the two coincide).  Gating an atomic
  distribution on p(X <= y_hat) instead admits starts sitting exactly on
  an atom whose refinement treats that atom as the upper side, and the
  contraction genuinely fails there.
- ``monte_carlo_theorem_suite``: random weighted empirical distributions
  and gate-satisfying starts; the refinement must never increase the error.
- ``exception_region_scan``: sweeps a (tau, tau_hat) grid for an analytic
  distribution, seeding the start at the tau_hat-expectile of the same
  distribution, and records every cell where refinement moved the estimate
  away from Y.  tau_hat = 0 seeds the essential infimum (the tau_hat -> 0
  limit of the expectile), which is where a uniform distribution shows a
  genuine non-contraction region at small tau.

Grid cells whose error difference is undefined (an infinitely bad start
stays infinitely bad, or the tau = 0 target itself is infinite) evaluate
to nan or -inf and are never counted as exceptions.

The scan and the Monte Carlo suite solve and refine with `expectile`'s
array kernels, one per distribution kind, so they agree bit for bit with
`expectile_of` and `filtered_mean_estimate` on the same inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expectile import (
    InputValidationError,
    ScalarDistribution,
    _empirical_refined,
    _expectiles,
    _refined,
    _sorted_empirical_expectiles,
    _tau_value,
    expectile_of,
    filtered_mean_estimate,
)
from .rng import stream

__all__ = [
    "TheoryError",
    "ScanConfig",
    "ScanResult",
    "theorem1_condition",
    "lemma1_check",
    "lemma2_check",
    "monte_carlo_theorem_suite",
    "exception_region_scan",
]

# Slack for "the error did not increase" comparisons; covers float
# rounding in the solver and the refinement on both sides.
ERROR_SLACK = 1e-9

_MC_SUPPORT_RANGE = (5, 50)
_MC_TAU_RANGE = (0.005, 0.495)
_MC_REGIMES = ("optimistic", "interior", "fixed_point", "boundary")


class TheoryError(RuntimeError):
    """A claimed contraction property failed on concrete instances."""

    def __init__(self, message: str, counterexamples: list | None = None):
        super().__init__(message)
        self.counterexamples = counterexamples or []


def _below_mass(dist: ScalarDistribution, v: float) -> float:
    """Mass the refinement weights at (1 - tau) when cutting at v.

    Strictly below v for atomic kinds, the cdf for continuous kinds.
    """
    if dist.kind == "empirical":
        return float(np.dot(dist.weights, dist.samples < v))
    if dist.kind == "two_point":
        mass = dist.p if dist.x0 < v else 0.0
        return mass + ((1.0 - dist.p) if dist.x1 < v else 0.0)
    return float(dist.cdf(v))


_kept_target = functools.lru_cache(maxsize=64)(expectile_of)


def _target(dist: ScalarDistribution, t: float) -> float:
    """The t-expectile of dist for every check here. A lemma sweep asks for
    each about ten times, so the analytic kinds' are kept (arrays do not hash)."""
    return expectile_of(dist, t) if dist.kind == "empirical" else _kept_target(dist, t)


def theorem1_condition(
    dist: ScalarDistribution, tau, y_hat: float
) -> bool:
    """Whether y_hat is shallow enough for the pessimistic-start guarantee.

    Checks p(X below y_hat) >= (p(X <= Y) - tau / (1 - 2 tau)) / 2 with Y
    the tau-expectile of dist and "below" the strictly-below mass for
    atomic distributions (see the module docstring).  For tau >= 1/2 the
    guarantee needs no gate and this returns True.
    """
    t = _tau_value(tau)
    if t >= 0.5:
        return True
    target = _target(dist, t)
    bound = 0.5 * (float(dist.cdf(target)) - t / (1.0 - 2.0 * t))
    return bool(_below_mass(dist, float(y_hat)) >= bound)


def lemma1_check(
    dist: ScalarDistribution, tau, y_hat: float, slack: float = ERROR_SLACK
) -> bool:
    """One refinement from an optimistic start never increases the error.

    Requires tau <= 1/2 and y_hat at or above the tau-expectile of dist.
    The restriction is real: above 1/2 the guarantee flips to pessimistic
    starts (see ``lemma2_check``, whose gate is vacuous there).
    """
    t = _tau_value(tau)
    if t > 0.5:
        raise InputValidationError(
            f"lemma1_check covers the lower regime tau <= 1/2, got {t!r}"
        )
    target = _target(dist, t)
    y_hat = float(y_hat)
    if y_hat < target:
        raise InputValidationError(
            f"lemma1_check needs y_hat >= the tau-expectile {target:.12g}, "
            f"got {y_hat!r}"
        )
    refined = filtered_mean_estimate(dist, y_hat, t)
    return bool(abs(refined - target) <= abs(y_hat - target) + slack)


def lemma2_check(
    dist: ScalarDistribution, tau, y_hat: float, slack: float = ERROR_SLACK
) -> bool:
    """One refinement from a gated pessimistic start never increases the error.

    Requires y_hat at or below the tau-expectile and satisfying
    ``theorem1_condition``; both are preconditions, not outcomes.
    """
    t = _tau_value(tau)
    target = _target(dist, t)
    y_hat = float(y_hat)
    if y_hat > target:
        raise InputValidationError(
            f"lemma2_check needs y_hat <= the tau-expectile {target:.12g}, "
            f"got {y_hat!r}"
        )
    if not theorem1_condition(dist, t, y_hat):
        raise InputValidationError(
            "y_hat sits too deep in the lower tail: p(X <= y_hat) violates "
            "the cdf gate"
        )
    refined = filtered_mean_estimate(dist, y_hat, t)
    return bool(abs(refined - target) <= abs(y_hat - target) + slack)


def monte_carlo_theorem_suite(n_trials: int = 100_000, seed: int = 0) -> dict:
    """Refinement-contraction sweep over random empirical distributions.

    Each trial draws a weighted empirical distribution (5 to 50 support
    points, scales spanning four orders of magnitude), a tau in the lower
    regime, and a start estimate constructed to satisfy the cdf gate.
    Starts cover four regimes: above the target, strictly inside the gated
    band, exactly at the target, and at the sharp lower edge of the gate
    (one ulp above the atom whose mass clears it).  Raises TheoryError
    (with serialized counterexamples) if any refinement increases the
    error by more than ``ERROR_SLACK``.

    The returned report is a deterministic function of (n_trials, seed).
    """
    if n_trials <= 0:
        raise InputValidationError("n_trials must be positive")
    rng = stream(seed, "theory.mc")
    k = int(n_trials)
    n_lo, n_hi = _MC_SUPPORT_RANGE

    counts = rng.integers(n_lo, n_hi + 1, size=k)
    locs = 3.0 * rng.standard_normal(k)
    scales = 10.0 ** rng.uniform(-2.0, 2.0, size=k)
    x = locs[:, None] + scales[:, None] * rng.standard_normal((k, n_hi))
    w_raw = rng.uniform(0.0, 1.0, size=(k, n_hi))
    taus = rng.uniform(*_MC_TAU_RANGE, size=k)
    regime = rng.integers(0, len(_MC_REGIMES), size=k)
    u_above = rng.uniform(0.0, 1.0, size=k)
    u_inside = rng.uniform(0.0, 1.0, size=k)

    mask = np.arange(n_hi)[None, :] < counts[:, None]
    w_raw = np.where(mask, w_raw, 0.0)
    weights = w_raw / w_raw.sum(axis=1, keepdims=True)

    # Sort each row, padding to the top so prefix sums stop at the real
    # support; padded values stay finite to keep the products clean.
    order = np.argsort(np.where(mask, x, np.inf), axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    ws = np.take_along_axis(weights, order, axis=1)
    rows = np.arange(k)
    row_min = xs[rows, 0]
    row_max = xs[rows, counts - 1]
    pad = ~np.take_along_axis(mask, order, axis=1)
    xs = np.where(pad, (row_max + 1.0)[:, None], xs)

    targets = _sorted_empirical_expectiles(xs, ws, taus)

    cum = np.cumsum(ws, axis=1)
    cdf_at_target = (ws * (xs <= targets[:, None])).sum(axis=1)
    gate = 0.5 * (cdf_at_target - taus / (1.0 - 2.0 * taus))

    # Shallowest start allowed by the gate, or anywhere below the support
    # once the gate is <= 0.  The refinement weights ties as the upper
    # side, so the admissible set is open at the gating atom; one ulp
    # above it puts that atom's mass strictly below the cut.
    first = np.argmax(cum >= gate[:, None], axis=1)
    floor = np.where(
        gate > 0.0,
        np.nextafter(xs[rows, first], np.inf),
        row_min - (1.0 + u_inside) * scales,
    )

    spread = row_max - row_min + 1.0
    y_hat = np.choose(
        regime,
        [
            targets + u_above * spread,
            floor + u_inside * (targets - floor),
            targets,
            floor,
        ],
    )

    below_at_start = (ws * (xs < y_hat[:, None])).sum(axis=1)
    condition_failures = int(np.sum(below_at_start < gate - 1e-12))
    if condition_failures:
        raise TheoryError(
            f"{condition_failures} constructed starts violate the cdf gate; "
            "the trial construction is broken"
        )

    refined = _empirical_refined(xs, ws, y_hat, taus)

    err_old = np.abs(y_hat - targets)
    err_new = np.abs(refined - targets)
    increase = err_new - err_old
    bad = np.flatnonzero(increase > ERROR_SLACK)

    report = {
        "n_trials": k,
        "seed": int(seed),
        "tau_range": list(_MC_TAU_RANGE),
        "support_range": list(_MC_SUPPORT_RANGE),
        "regime_counts": {
            name: int(np.sum(regime == i)) for i, name in enumerate(_MC_REGIMES)
        },
        "condition_failures": condition_failures,
        "violations": int(bad.size),
        "max_error_increase": float(increase.max()),
        "mean_error_decrease": float((err_old - err_new).mean()),
    }
    if bad.size:
        examples = []
        for i in bad[:5]:
            n_i = int(counts[i])
            examples.append(
                {
                    "samples": xs[i, :n_i].tolist(),
                    "weights": ws[i, :n_i].tolist(),
                    "tau": float(taus[i]),
                    "y_hat": float(y_hat[i]),
                    "target": float(targets[i]),
                    "refined": float(refined[i]),
                    "error_increase": float(increase[i]),
                    "regime": _MC_REGIMES[int(regime[i])],
                }
            )
        raise TheoryError(
            f"{bad.size} of {k} refinements increased the error by more "
            f"than {ERROR_SLACK:g} (worst {float(increase.max()):.3e})",
            counterexamples=examples,
        )
    return report


@dataclass(frozen=True)
class ScanConfig:
    """Grid sweep settings for ``exception_region_scan``.

    Both axes share one tau grid: np.arange(tau_start, tau_stop, tau_step).
    tau_start = 0 is allowed and seeds the start estimate at the essential
    infimum, the tau -> 0 limit of the expectile.  Only distributions with
    an analytic refinement (normal, uniform) are accepted.
    """

    distribution: ScalarDistribution
    tau_start: float = 0.0
    tau_stop: float = 0.5
    tau_step: float = 0.0025
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.distribution.kind not in ("normal", "uniform"):
            raise InputValidationError(
                "exception_region_scan needs an analytic refinement; "
                f"got kind {self.distribution.kind!r}"
            )
        if not (self.tau_step > 0.0 and math.isfinite(self.tau_step)):
            raise InputValidationError(f"tau_step must be positive, got {self.tau_step!r}")
        if not (0.0 <= self.tau_start < self.tau_stop <= 1.0):
            raise InputValidationError(
                f"need 0 <= tau_start < tau_stop <= 1, got "
                f"[{self.tau_start!r}, {self.tau_stop!r})"
            )
        if not (self.tolerance >= 0.0):
            raise InputValidationError(f"tolerance must be >= 0, got {self.tolerance!r}")

    def tau_grid(self) -> np.ndarray:
        return np.arange(self.tau_start, self.tau_stop, self.tau_step)


@dataclass(frozen=True)
class ScanResult:
    """Dense (tau, tau_hat) sweep of one-step refinement error changes.

    Row i fixes the refinement asymmetry taus[i] and its target expectile
    targets[i]; column j fixes the start starts[j], the tau_hats[j]
    expectile of the same distribution.  error_diff[i, j] is
    |refined - target| - |start - target|; cells above ``tolerance`` are
    exceptions.  nan cells (undefined comparisons against infinite
    targets or starts) never count.
    """

    distribution: ScalarDistribution
    taus: np.ndarray
    tau_hats: np.ndarray
    targets: np.ndarray
    starts: np.ndarray
    refined: np.ndarray
    error_diff: np.ndarray
    tolerance: float

    @property
    def exception_mask(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.error_diff > self.tolerance

    @property
    def exception_count(self) -> int:
        return int(self.exception_mask.sum())

    def _cell(self, i: int, j: int) -> dict:
        return {
            "tau": float(self.taus[i]),
            "tau_hat": float(self.tau_hats[j]),
            "target": float(self.targets[i]),
            "start": float(self.starts[j]),
            "refined": float(self.refined[i, j]),
            "error_diff": float(self.error_diff[i, j]),
        }

    def exception_cells(self) -> list[dict]:
        return [self._cell(i, j) for i, j in zip(*np.nonzero(self.exception_mask))]

    def rows(self):
        """Per-cell dict rows in row-major order, ready for a CSV writer."""
        mask = self.exception_mask
        for i in range(self.taus.size):
            for j in range(self.tau_hats.size):
                yield {**self._cell(i, j), "exception": int(mask[i, j])}

    def summary(self) -> dict:
        dist = self.distribution
        if dist.kind == "normal":
            params = {"mu": dist.mu, "sigma": dist.sigma}
        else:
            params = {"lo": dist.lo, "hi": dist.hi}
        return {
            "distribution": {"kind": dist.kind, **params},
            "n_taus": int(self.taus.size),
            "n_tau_hats": int(self.tau_hats.size),
            "n_cells": int(self.error_diff.size),
            "tolerance": float(self.tolerance),
            "exception_count": self.exception_count,
            "exceptions": self.exception_cells(),
        }


def exception_region_scan(config: ScanConfig) -> ScanResult:
    """Sweep the (tau, tau_hat) grid and flag every non-contracting cell."""
    taus = config.tau_grid()
    tau_hats = taus.copy()
    targets = _expectiles(config.distribution, taus)
    starts = _expectiles(config.distribution, tau_hats)
    refined = _refined(config.distribution, starts[None, :], taus[:, None])
    with np.errstate(invalid="ignore"):
        error_diff = np.abs(refined - targets[:, None]) - np.abs(
            starts[None, :] - targets[:, None]
        )
    return ScanResult(
        distribution=config.distribution,
        taus=taus,
        tau_hats=tau_hats,
        targets=targets,
        starts=starts,
        refined=refined,
        error_diff=error_diff,
        tolerance=config.tolerance,
    )
