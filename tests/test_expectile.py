"""Asymmetric-loss machinery: weights, solvers, filtered means."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leq_lab.expectile import (
    ExpectileParam,
    InputValidationError,
    ScalarDistribution,
    SolverError,
    _expectiles,
    _std_normal_foc,
    expectile_of,
    expectile_weight,
    filtered_mean_estimate,
)

from . import _oracles


def random_empirical(rng, max_n=30, weighted=True):
    n = int(rng.integers(2, max_n + 1))
    xs = rng.normal(rng.normal() * 2.0, 10.0 ** rng.uniform(-1.0, 1.0), size=n)
    if weighted and rng.random() < 0.5:
        ws = rng.random(n) + 0.05
        ws /= ws.sum()
    else:
        ws = None
    return ScalarDistribution.empirical(xs, ws)


class TestWeightAndLoss:
    def test_weight_values(self):
        assert expectile_weight(2.0, 0.1) == pytest.approx(0.9, abs=0)
        assert expectile_weight(-2.0, 0.1) == pytest.approx(0.1, abs=0)
        assert expectile_weight(3.0, 0.5) == 0.5

    def test_tie_takes_tau(self):
        # the indicator 1(u > 0) is literal: u = 0 lands on the tau side
        assert expectile_weight(0.0, 0.2) == 0.2
        assert expectile_weight(0.0, 0.9) == 0.9

    def test_weight_bounds_and_shape(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(4, 7))
        w = expectile_weight(u, 0.3)
        assert w.shape == (4, 7)
        assert np.all((w == 0.3) | (w == 0.7))

    def test_param_validation(self):
        for bad in (0.0, -0.1, 1.0001, float("nan"), float("inf")):
            with pytest.raises(InputValidationError):
                ExpectileParam(bad)
        assert ExpectileParam(0.5).is_lower
        assert not ExpectileParam(0.51).is_lower
        assert ExpectileParam(1.0).tau == 1.0

    def test_param_object_accepted_everywhere(self):
        p = ExpectileParam(0.3)
        d = ScalarDistribution.uniform(0.0, 1.0)
        assert expectile_of(d, p) == expectile_of(d, 0.3)
        assert filtered_mean_estimate(d, 0.4, p) == filtered_mean_estimate(d, 0.4, 0.3)
        assert expectile_weight(1.0, p) == 0.7


class TestExpectileSolvers:
    def test_normal_mean_at_half(self):
        assert expectile_of(ScalarDistribution.normal(0.0, 1.0), 0.5) == pytest.approx(
            0.0, abs=1e-8
        )
        assert expectile_of(ScalarDistribution.normal(-2.5, 0.3), 0.5) == pytest.approx(
            -2.5, abs=1e-8
        )

    def test_normal_symmetric_pair(self):
        d = ScalarDistribution.normal(1.0, 2.0)
        for tau in (0.05, 0.2, 0.35):
            lo = expectile_of(d, tau)
            hi = expectile_of(d, 1.0 - tau)
            assert lo + hi == pytest.approx(2.0, abs=2e-8)
            assert lo < 1.0 < hi

    def test_uniform_closed_form(self):
        d = ScalarDistribution.uniform(0.0, 1.0)
        for tau in np.arange(0.01, 1.0, 0.01):
            want = math.sqrt(tau) / (math.sqrt(tau) + math.sqrt(1.0 - tau))
            assert expectile_of(d, float(tau)) == pytest.approx(want, abs=1e-10)
        assert expectile_of(d, 0.25) == pytest.approx(0.3660254037844386, abs=1e-10)

    def test_uniform_foc_residual_vanishes(self):
        # independent of the closed form: the minimizer must zero the exact
        # first-order condition (1-t) y^2 / 2 - t (1-y)^2 / 2 on U(0, 1)
        d = ScalarDistribution.uniform(0.0, 1.0)
        for tau in (0.07, 0.3, 0.62):
            y = expectile_of(d, tau)
            g = (1.0 - tau) * y * y / 2.0 - tau * (1.0 - y) ** 2 / 2.0
            assert abs(g) < 1e-12

    def test_two_point_unit_coin(self):
        d = ScalarDistribution.two_point(0.0, 1.0, 0.5)
        for tau in (0.05, 0.1, 0.3, 0.5, 0.8):
            assert expectile_of(d, tau) == pytest.approx(tau, abs=1e-12)

    def test_two_point_closed_form(self):
        # independent of the solver: with x0 < x1 the root lies between the
        # atoms, where g is linear with the root below
        rng = np.random.default_rng(5)
        for _ in range(40):
            x0, x1 = sorted(rng.normal(size=2) * 5.0)
            p = rng.uniform(0.05, 0.95)
            tau = rng.uniform(0.02, 0.98)
            want = ((1.0 - tau) * p * x0 + tau * (1.0 - p) * x1) / (
                (1.0 - tau) * p + tau * (1.0 - p)
            )
            got = expectile_of(ScalarDistribution.two_point(x0, x1, p), tau)
            assert got == pytest.approx(want, abs=1e-12)

    def test_two_point_matches_empirical(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            x0, x1 = sorted(rng.normal(size=2) * 5.0)
            p = rng.uniform(0.05, 0.95)
            tau = rng.uniform(0.02, 0.98)
            closed = expectile_of(ScalarDistribution.two_point(x0, x1, p), tau)
            emp = expectile_of(ScalarDistribution.empirical([x0, x1], [p, 1.0 - p]), tau)
            assert closed == pytest.approx(emp, abs=1e-9)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        base = [
            ScalarDistribution.normal(0.3, 1.4),
            ScalarDistribution.uniform(-1.0, 2.0),
            ScalarDistribution.two_point(-1.0, 4.0, 0.3),
            random_empirical(rng),
        ]
        for d in base:
            for tau in (0.1, 0.4, 0.5, 0.7):
                a, b = 2.5, -3.0
                if d.kind == "empirical":
                    moved = ScalarDistribution.empirical(a * d.samples + b, d.weights)
                elif d.kind == "normal":
                    moved = ScalarDistribution.normal(a * d.mu + b, a * d.sigma)
                elif d.kind == "uniform":
                    moved = ScalarDistribution.uniform(a * d.lo + b, a * d.hi + b)
                else:
                    moved = ScalarDistribution.two_point(a * d.x0 + b, a * d.x1 + b, d.p)
                assert expectile_of(moved, tau) == pytest.approx(
                    a * expectile_of(d, tau) + b, abs=1e-8
                )

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(11)
        taus = np.linspace(0.02, 0.98, 25)
        dists = [
            ScalarDistribution.normal(0.0, 1.0),
            ScalarDistribution.uniform(-2.0, 5.0),
            random_empirical(rng),
            random_empirical(rng),
        ]
        for d in dists:
            vals = [expectile_of(d, float(t)) for t in taus]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_within_bracket(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = random_empirical(rng)
            lo, hi = d.bracket()
            for tau in (0.05, 0.5, 0.95):
                assert lo - 1e-12 <= expectile_of(d, tau) <= hi + 1e-12

    def test_matches_grid_minimization(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = random_empirical(rng)
            for tau in (0.05, 0.2, 0.35, 0.5):
                want = _oracles.grid_minimize_expectile(d.samples, d.weights, tau)
                assert expectile_of(d, tau) == pytest.approx(want, abs=2e-4)

    def test_empirical_root_on_an_atom(self):
        # The root sits exactly on an atom, and the candidates of the two
        # intervals that meet there both round outward.  Requiring a
        # candidate inside its own interval then picked none and returned
        # the mean (0.3 and -0.143 here).
        d = ScalarDistribution.empirical([1.5, -0.9, -0.1, 1.9, -0.3, -0.3])
        assert expectile_of(d, 0.25) == pytest.approx(-0.1, abs=1e-15)
        d = ScalarDistribution.empirical([-3.0, -2.0, -1.0, 0.0, 0.0, 2.0, 3.0])
        assert expectile_of(d, 0.25) == pytest.approx(-1.0, abs=1e-15)

    def test_normal_bracket(self):
        # [-12, 12] standard deviations holds the root of the computed g
        # down to tau = 1e-30, where mu - 10 sigma did not
        d = ScalarDistribution.normal(0.0, 1.0)
        y = expectile_of(d, 1e-30)
        assert -12.0 < y < -10.0
        below, above = np.nextafter(y, -np.inf), np.nextafter(y, np.inf)
        assert _std_normal_foc(np.array([below]), 1e-30)[0] <= 0.0
        assert _std_normal_foc(np.array([above]), 1e-30)[0] > 0.0
        with pytest.raises(SolverError):
            expectile_of(d, 1e-40)

    def test_tau_zero_is_the_essential_infimum(self):
        zero = np.array([0.0])
        assert _expectiles(ScalarDistribution.normal(1.0, 2.0), zero)[0] == -np.inf
        assert _expectiles(ScalarDistribution.uniform(-2.0, 3.0), zero)[0] == -2.0
        assert _expectiles(ScalarDistribution.two_point(4.0, -1.0, 0.3), zero)[0] == -1.0
        # a zero-weight atom is outside the essential support
        d = ScalarDistribution.empirical([-5.0, 2.0, 7.0], [0.0, 0.4, 0.6])
        assert _expectiles(d, zero)[0] == 2.0

    def test_tau_one_rejected(self):
        with pytest.raises(InputValidationError):
            expectile_of(ScalarDistribution.uniform(0.0, 1.0), 1.0)


class TestFilteredMean:
    def test_two_point_unit_coin_midpoint(self):
        # E[W X] = 0.1 * 0.5, E[W] = 0.5 at y_hat = 0.5, tau = 0.1
        got = filtered_mean_estimate(ScalarDistribution.two_point(0.0, 1.0, 0.5), 0.5, 0.1)
        assert got == pytest.approx(0.1, abs=1e-15)

    def test_tau_half_gives_mean(self):
        rng = np.random.default_rng(19)
        dists = [
            ScalarDistribution.normal(1.7, 0.4),
            ScalarDistribution.uniform(-3.0, 2.0),
            ScalarDistribution.two_point(-1.0, 6.0, 0.25),
            random_empirical(rng),
        ]
        for d in dists:
            for y_hat in (-5.0, 0.0, 1.3, 9.0):
                assert filtered_mean_estimate(d, y_hat, 0.5) == pytest.approx(
                    d.mean(), abs=1e-12
                )

    def test_normal_at_mean_pulls_low(self):
        got = filtered_mean_estimate(ScalarDistribution.normal(0.0, 1.0), 0.0, 0.1)
        assert got < 0.0
        # Monte-Carlo cross-check of the closed form
        rng = np.random.default_rng(23)
        xs = rng.normal(size=4_000_000)
        w = np.where(xs < 0.0, 0.9, 0.1)
        assert got == pytest.approx(float((w * xs).sum() / w.sum()), abs=2e-3)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(29)
        dists = [
            ScalarDistribution.normal(0.5, 2.0),
            ScalarDistribution.uniform(1.0, 4.0),
            ScalarDistribution.two_point(0.0, 1.0, 0.5),
            random_empirical(rng),
            random_empirical(rng),
        ]
        for d in dists:
            for tau in (0.1, 0.3, 0.5, 0.7):
                y = expectile_of(d, tau)
                assert filtered_mean_estimate(d, y, tau) == pytest.approx(y, abs=1e-8)

    def test_ties_sit_on_the_tau_side(self):
        d = ScalarDistribution.two_point(0.0, 10.0, 0.5)
        # y_hat exactly on the low atom: neither atom is strictly below, so
        # both carry weight tau and the estimate is the plain mean
        assert filtered_mean_estimate(d, 0.0, 0.1) == pytest.approx(5.0, abs=0)
        # one ulp higher the low atom flips to weight (1 - tau)
        nudged = filtered_mean_estimate(d, math.nextafter(0.0, 1.0), 0.1)
        assert nudged == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_inputs(self):
        d = ScalarDistribution.normal(0.0, 1.0)
        with pytest.raises(InputValidationError):
            filtered_mean_estimate(d, 0.0, 1.0)
        with pytest.raises(InputValidationError):
            filtered_mean_estimate(d, float("inf"), 0.3)
        with pytest.raises(InputValidationError):
            filtered_mean_estimate(d, float("nan"), 0.3)


class TestDistributionValidation:
    def test_empirical_weights(self):
        with pytest.raises(InputValidationError):
            ScalarDistribution.empirical([], None)
        with pytest.raises(InputValidationError):
            ScalarDistribution.empirical([1.0, 2.0], [0.5, 0.6])
        with pytest.raises(InputValidationError):
            ScalarDistribution.empirical([1.0, 2.0], [1.2, -0.2])
        with pytest.raises(InputValidationError):
            ScalarDistribution.empirical([1.0, 2.0], [1.0])
        with pytest.raises(InputValidationError):
            ScalarDistribution.empirical([1.0, float("nan")])

    def test_default_weights_uniform(self):
        d = ScalarDistribution.empirical([3.0, 5.0, 7.0, 9.0])
        np.testing.assert_allclose(d.weights, 0.25)
        assert d.mean() == pytest.approx(6.0)

    def test_arrays_frozen(self):
        d = ScalarDistribution.empirical([1.0, 2.0])
        with pytest.raises(ValueError):
            d.samples[0] = 0.0

    def test_parametric_bounds(self):
        with pytest.raises(InputValidationError):
            ScalarDistribution.normal(0.0, 0.0)
        with pytest.raises(InputValidationError):
            ScalarDistribution.uniform(2.0, 2.0)
        with pytest.raises(InputValidationError):
            ScalarDistribution.two_point(0.0, 1.0, 1.0)
        with pytest.raises(InputValidationError):
            ScalarDistribution.two_point(float("inf"), 1.0, 0.5)

    def test_cdf_conventions(self):
        d = ScalarDistribution.two_point(0.0, 1.0, 0.25)
        assert d.cdf(-0.1) == 0.0
        assert d.cdf(0.0) == 0.25
        assert d.cdf(0.5) == 0.25
        assert d.cdf(1.0) == 1.0
        e = ScalarDistribution.empirical([1.0, 2.0, 2.0, 3.0])
        assert e.cdf(2.0) == pytest.approx(0.75)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    xs=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=12),
    tau=st.floats(0.02, 0.98),
)
def test_expectile_is_a_local_loss_minimum(xs, tau):
    d = ScalarDistribution.empirical(xs)
    y = expectile_of(d, tau)
    assert min(xs) - 1e-9 <= y <= max(xs) + 1e-9

    def total(v):
        u = v - d.samples
        return float(np.dot(d.weights, expectile_weight(u, tau) * u * u))

    span = max(max(xs) - min(xs), 1.0)
    for delta in (1e-3 * span, 1e-2 * span):
        assert total(y) <= total(y + delta) + 1e-12
        assert total(y) <= total(y - delta) + 1e-12
