"""Asymmetric least-squares (expectile) machinery.

Conventions
-----------
- The asymmetric weight is W^tau(u) = |tau - 1(u > 0)|, i.e. weight
  (1 - tau) on the side where the estimate exceeds the sample and tau on
  the other side. Ties u = 0 take the indicator literally (weight tau).
- The tau-expectile of a scalar distribution X is the unique minimizer of
  E[W^tau(y - x) * (y - x)^2], equivalently the root of the monotone
  first-order condition
      g(y) = (1 - tau) * E[(y - X) 1(X <= y)] + tau * E[(y - X) 1(X > y)].
- The filtered mean E[W^tau(y_hat > X) * X] / E[W^tau(y_hat > X)] is the
  one-step refinement of an estimate y_hat; its fixed point is the
  tau-expectile.

Each distribution kind has one expectile solver and one refinement, both
array-valued (`_expectiles`, `_refined`); `expectile_of` and
`filtered_mean_estimate` validate their input and call them on one tau.
Uniform expectiles use the closed form. Empirical and two-point
expectiles take the exact root of the piecewise-linear g. Normal
expectiles bisect the standard-normal g on [-12, 12] down to float
resolution, and raise SolverError where g does not change sign there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpectileError",
    "InputValidationError",
    "SolverError",
    "ExpectileParam",
    "ScalarDistribution",
    "expectile_weight",
    "expectile_of",
    "filtered_mean_estimate",
]

_WEIGHT_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# the standard-normal bisection: 80 halvings of [-12, 12] reach float
# resolution away from 0
_NORMAL_BRACKET = 12.0
_NORMAL_HALVINGS = 80
_erf = np.frompyfunc(math.erf, 1, 1)


class ExpectileError(Exception):
    """Base class for errors raised by this module."""


class InputValidationError(ExpectileError, ValueError):
    """An argument violates a documented precondition."""


class SolverError(ExpectileError, RuntimeError):
    """The numeric expectile solver failed to converge."""


def _std_normal_pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(z))


def _std_normal_cdf(z):
    erf = _erf(np.asarray(z, dtype=np.float64) / _SQRT2)
    return 0.5 * (1.0 + np.asarray(erf, dtype=np.float64))


@dataclass(frozen=True)
class ExpectileParam:
    """Asymmetry level tau in (0, 1]; tau <= 0.5 is the "lower" regime."""

    tau: float

    def __post_init__(self) -> None:
        tau = float(self.tau)
        if not math.isfinite(tau) or not (0.0 < tau <= 1.0):
            raise InputValidationError(f"tau must lie in (0, 1], got {self.tau!r}")
        object.__setattr__(self, "tau", tau)

    @property
    def is_lower(self) -> bool:
        return self.tau <= 0.5


def _tau_value(tau: ExpectileParam | float) -> float:
    if isinstance(tau, ExpectileParam):
        return tau.tau
    return ExpectileParam(float(tau)).tau


@dataclass(frozen=True)
class ScalarDistribution:
    """Tagged scalar distribution: empirical, normal, uniform or two_point.

    Use the classmethod constructors; they validate parameters and freeze
    arrays. Unused fields stay None.
    """

    kind: str
    samples: np.ndarray | None = None
    weights: np.ndarray | None = None
    mu: float | None = None
    sigma: float | None = None
    lo: float | None = None
    hi: float | None = None
    x0: float | None = None
    x1: float | None = None
    p: float | None = None

    @classmethod
    def empirical(cls, samples, weights=None) -> "ScalarDistribution":
        xs = np.asarray(samples, dtype=np.float64).reshape(-1)
        if xs.size == 0:
            raise InputValidationError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(xs)):
            raise InputValidationError("empirical samples must be finite")
        if weights is None:
            ws = np.full(xs.size, 1.0 / xs.size)
        else:
            ws = np.asarray(weights, dtype=np.float64).reshape(-1)
            if ws.shape != xs.shape:
                raise InputValidationError("weights must match samples in length")
            if not np.all(np.isfinite(ws)) or np.any(ws < 0.0):
                raise InputValidationError("weights must be finite and nonnegative")
            if abs(float(ws.sum()) - 1.0) > _WEIGHT_TOL:
                raise InputValidationError(
                    f"weights must sum to 1 within {_WEIGHT_TOL:g}, got {ws.sum()!r}"
                )
        xs.setflags(write=False)
        ws.setflags(write=False)
        return cls(kind="empirical", samples=xs, weights=ws)

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "ScalarDistribution":
        mu, sigma = float(mu), float(sigma)
        if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0.0):
            raise InputValidationError(f"normal needs finite mu and sigma > 0, got ({mu}, {sigma})")
        return cls(kind="normal", mu=mu, sigma=sigma)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ScalarDistribution":
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InputValidationError(f"uniform needs lo < hi, got ({lo}, {hi})")
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def two_point(cls, x0: float, x1: float, p: float) -> "ScalarDistribution":
        x0, x1, p = float(x0), float(x1), float(p)
        if not (math.isfinite(x0) and math.isfinite(x1)):
            raise InputValidationError("two_point atoms must be finite")
        if not (0.0 < p < 1.0):
            raise InputValidationError(f"two_point needs p in (0, 1), got {p}")
        return cls(kind="two_point", x0=x0, x1=x1, p=p)

    def mean(self) -> float:
        if self.kind == "empirical":
            return float(np.dot(self.weights, self.samples))
        if self.kind == "normal":
            return self.mu
        if self.kind == "uniform":
            return 0.5 * (self.lo + self.hi)
        return self.p * self.x0 + (1.0 - self.p) * self.x1

    def cdf(self, x: float) -> float:
        """p(X <= x)."""
        if self.kind == "empirical":
            return float(self.weights[self.samples <= x].sum())
        if self.kind == "normal":
            return float(_std_normal_cdf((x - self.mu) / self.sigma))
        if self.kind == "uniform":
            return float(np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0))
        if x < self.x0:
            return 0.0
        if x < self.x1:
            return self.p
        return 1.0

    def bracket(self) -> tuple[float, float]:
        """A range for sweeping estimates: the support, or mu +/- 10 sigma.

        A normal's expectiles at tau near 0 or 1 lie outside it.
        """
        if self.kind == "empirical":
            return float(self.samples.min()), float(self.samples.max())
        if self.kind == "normal":
            return self.mu - 10.0 * self.sigma, self.mu + 10.0 * self.sigma
        if self.kind == "uniform":
            return self.lo, self.hi
        return min(self.x0, self.x1), max(self.x0, self.x1)


def expectile_weight(u, tau: ExpectileParam | float):
    """|tau - 1(u > 0)|; accepts scalars or arrays."""
    t = _tau_value(tau)
    return np.abs(t - (np.asarray(u, dtype=np.float64) > 0.0))


def _sorted_empirical_expectiles(
    xs: np.ndarray, ws: np.ndarray, taus: np.ndarray
) -> np.ndarray:
    """Exact row-wise tau-expectiles of weighted empirical distributions.

    xs (k, n) is sorted per row, any zero-weight padding at the end; k = 1
    shares one row across all taus.  g is linear between atoms, so each
    interval gives a closed-form candidate root, and as g increases the
    root is the first candidate at or below its interval's upper end (a
    two-sided test misses roots on an atom whose candidates round outward).
    tau = 0 gives the smallest atom of positive weight.
    """
    t = taus[:, None]
    w_tot = ws.sum(axis=1, keepdims=True)
    s_tot = (ws * xs).sum(axis=1, keepdims=True)
    zeros = np.zeros((xs.shape[0], 1))
    w_below = np.concatenate([zeros, np.cumsum(ws, axis=1)], axis=1)
    s_below = np.concatenate([zeros, np.cumsum(ws * xs, axis=1)], axis=1)
    num = (1.0 - t) * s_below + t * (s_tot - s_below)
    den = (1.0 - t) * w_below + t * (w_tot - w_below)
    with np.errstate(invalid="ignore", divide="ignore"):
        roots = num / den
    hi = np.concatenate([xs, np.full((xs.shape[0], 1), np.inf)], axis=1)
    pick = np.argmax(roots <= hi, axis=1)
    return roots[np.arange(roots.shape[0]), pick]


def _empirical_refined(xs, ws, y_hat, tau):
    """Row-wise filtered means of weighted atoms xs (..., n) cut at y_hat (...).

    Atoms strictly below y_hat weigh (1 - tau); ties count as the upper side.
    """
    w = np.where(xs < y_hat[..., None], 1.0 - tau[..., None], tau[..., None]) * ws
    return (w * xs).sum(axis=-1) / w.sum(axis=-1)


def _atoms(dist: ScalarDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Support and weights of an empirical or two-point dist, sorted by value."""
    if dist.kind == "two_point":
        xs, ws = np.array([dist.x0, dist.x1]), np.array([dist.p, 1.0 - dist.p])
    else:
        xs, ws = dist.samples, dist.weights
    order = np.argsort(xs, kind="stable")
    return xs[order], ws[order]


def _std_normal_foc(z, t):
    """g at z for the standard normal, elementwise in (z, t)."""
    cdf = _std_normal_cdf(z)
    pdf = _std_normal_pdf(z)
    # E[(z - X) 1(X <= z)] = z * Phi(z) + phi(z), and similarly above.
    return (1.0 - t) * (z * cdf + pdf) + t * (z * (1.0 - cdf) - pdf)


def _std_normal_expectiles(t: np.ndarray) -> np.ndarray:
    """Standard-normal expectiles for tau in (0, 1) by bisection on g."""
    lo = np.full(t.shape, -_NORMAL_BRACKET)
    hi = np.full(t.shape, _NORMAL_BRACKET)
    if not (np.all(_std_normal_foc(lo, t) <= 0.0) and np.all(_std_normal_foc(hi, t) >= 0.0)):
        raise SolverError(
            f"first-order condition not bracketed on mu +/- {_NORMAL_BRACKET:g} sigma"
        )
    for _ in range(_NORMAL_HALVINGS):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break  # g(lo) <= 0 < g(hi), so no row can move any more
        above = _std_normal_foc(mid, t) > 0.0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return 0.5 * (lo + hi)


def _expectiles(dist: ScalarDistribution, taus) -> np.ndarray:
    """The tau-expectiles of dist for a 1-D array of tau in [0, 1).

    tau = 0 gives the essential infimum, the tau -> 0 limit (-inf for a
    normal).
    """
    taus = np.asarray(taus, dtype=np.float64)
    if dist.kind == "uniform":
        # Solve (1 - tau) y^2 = tau (1 - y)^2 on the unit interval, then rescale.
        root = np.sqrt(taus) / (np.sqrt(taus) + np.sqrt(1.0 - taus))
        return dist.lo + (dist.hi - dist.lo) * root
    if dist.kind == "normal":
        out = np.full(taus.shape, -np.inf)
        pos = taus > 0.0
        out[pos] = dist.mu + dist.sigma * _std_normal_expectiles(taus[pos])
        return out
    xs, ws = _atoms(dist)
    return _sorted_empirical_expectiles(xs[None, :], ws[None, :], taus)


def _refined(dist: ScalarDistribution, y_hat, tau) -> np.ndarray:
    """filtered_mean_estimate, broadcast over arrays of y_hat and tau.

    Infinite starts go through ordinary inf/nan arithmetic: a -inf start
    refines to the plain mean for tau > 0 and to nan at tau = 0.
    """
    y = np.asarray(y_hat, dtype=np.float64)
    t = np.asarray(tau, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        if dist.kind == "normal":
            z = (y - dist.mu) / dist.sigma
            num = -(1.0 - 2.0 * t) * _std_normal_pdf(z)
            den = t + (1.0 - 2.0 * t) * _std_normal_cdf(z)
            return dist.mu + dist.sigma * (num / den)
        if dist.kind == "uniform":
            # truncated interval means on the unit scale, then rescale
            span = dist.hi - dist.lo
            u = np.clip((y - dist.lo) / span, 0.0, 1.0)
            num = 0.5 * ((1.0 - t) * u * u + t * (1.0 - u * u))
            den = (1.0 - t) * u + t * (1.0 - u)
            return dist.lo + span * (num / den)
        return _empirical_refined(*_atoms(dist), y, t)


def expectile_of(dist: ScalarDistribution, tau: ExpectileParam | float) -> float:
    """The tau-expectile of dist, tau in (0, 1).

    tau = 1 is rejected: the asymmetric loss flattens above the essential
    supremum and the minimizer is no longer unique.
    """
    t = _tau_value(tau)
    if t >= 1.0:
        raise InputValidationError("expectile_of requires tau < 1 for a unique minimizer")
    return float(_expectiles(dist, np.array([t]))[0])


def filtered_mean_estimate(
    dist: ScalarDistribution, y_hat: float, tau: ExpectileParam | float
) -> float:
    """E[W^tau(y_hat > X) * X] / E[W^tau(y_hat > X)].

    Requires tau < 1 so the denominator is bounded below by min(tau, 1 - tau).
    """
    t = _tau_value(tau)
    if t >= 1.0:
        raise InputValidationError("filtered_mean_estimate requires tau < 1")
    y_hat = float(y_hat)
    if not math.isfinite(y_hat):
        raise InputValidationError("y_hat must be finite")
    return float(_refined(dist, y_hat, t))
