"""Contraction properties of the one-step filtered-mean refinement."""

import math

import numpy as np
import pytest

from leq_lab.expectile import (
    InputValidationError,
    ScalarDistribution,
    _empirical_refined,
    _sorted_empirical_expectiles,
    expectile_of,
    filtered_mean_estimate,
)
from leq_lab.theory import (
    ScanConfig,
    TheoryError,
    exception_region_scan,
    lemma1_check,
    lemma2_check,
    monte_carlo_theorem_suite,
    theorem1_condition,
)

NORMAL = ScalarDistribution.normal(0.0, 1.0)
UNIFORM = ScalarDistribution.uniform(0.0, 1.0)


def unit_uniform_expectile(tau: float) -> float:
    # Independent closed form: (1 - t) y^2 = t (1 - y)^2 on [0, 1].
    return math.sqrt(tau) / (math.sqrt(tau) + math.sqrt(1.0 - tau))


class TestScanNormal:
    def test_no_exceptions(self):
        res = exception_region_scan(ScanConfig(distribution=NORMAL))
        assert res.exception_count == 0
        finite = np.isfinite(res.error_diff)
        assert res.error_diff[finite].max() <= res.tolerance

    def test_tau_zero_column_and_row(self):
        res = exception_region_scan(ScanConfig(distribution=NORMAL))
        assert res.taus[0] == 0.0
        # the tau = 0 expectile degenerates to the essential infimum
        assert res.targets[0] == -np.inf
        # refining a -inf start weights all mass at tau: the plain mean
        assert np.allclose(res.refined[1:, 0], 0.0, atol=1e-12)
        # undefined comparisons (inf - inf) must never flag
        assert not res.exception_mask[0].any()
        assert not res.exception_mask[:, 0].any()

    def test_shift_invariance(self):
        base = exception_region_scan(ScanConfig(distribution=NORMAL))
        moved = exception_region_scan(
            ScanConfig(distribution=ScalarDistribution.normal(3.7, 1.0))
        )
        finite = np.isfinite(base.error_diff)
        assert np.array_equal(finite, np.isfinite(moved.error_diff))
        assert np.allclose(
            base.error_diff[finite], moved.error_diff[finite], atol=1e-9
        )
        assert moved.exception_count == 0


class TestScanUniform:
    def test_exception_region(self):
        res = exception_region_scan(ScanConfig(distribution=UNIFORM))
        cells = res.exception_cells()
        assert res.exception_count == 39
        # Analytic region: starting from the infimum, the refinement lands
        # at the midpoint, so the error grows exactly when the target
        # expectile sits below 1/4, i.e. tau < 0.1.
        assert all(c["tau_hat"] == 0.0 for c in cells)
        expected = [t for t in res.taus if 0.0 < t and unit_uniform_expectile(t) < 0.25]
        assert sorted(c["tau"] for c in cells) == pytest.approx(expected)
        assert min(c["tau"] for c in cells) == pytest.approx(0.0025)
        assert max(c["tau"] for c in cells) == pytest.approx(0.0975)

    def test_exception_cells_are_ungated(self):
        # Every flagged cell must violate the pessimistic-start gate;
        # the contraction guarantee never applies there.
        res = exception_region_scan(ScanConfig(distribution=UNIFORM))
        for cell in res.exception_cells():
            assert not theorem1_condition(UNIFORM, cell["tau"], cell["start"])

    def test_gated_cells_contract(self):
        res = exception_region_scan(ScanConfig(distribution=UNIFORM))
        mask = res.exception_mask
        for i in range(1, res.taus.size, 7):
            for j in range(1, res.tau_hats.size, 7):
                if res.starts[j] <= res.targets[i] and theorem1_condition(
                    UNIFORM, float(res.taus[i]), float(res.starts[j])
                ):
                    assert not mask[i, j]

    def test_affine_invariance(self):
        moved = exception_region_scan(
            ScanConfig(distribution=ScalarDistribution.uniform(2.0, 5.0))
        )
        base = exception_region_scan(ScanConfig(distribution=UNIFORM))
        assert moved.exception_count == base.exception_count == 39
        # error differences scale with the support width
        finite = np.isfinite(base.error_diff)
        assert np.allclose(
            moved.error_diff[finite], 3.0 * base.error_diff[finite], atol=1e-9
        )

    def test_tau_zero_start_refines_to_midpoint(self):
        res = exception_region_scan(ScanConfig(distribution=UNIFORM))
        assert res.targets[0] == 0.0
        assert np.allclose(res.refined[1:, 0], 0.5, atol=1e-12)
        assert math.isnan(res.refined[0, 0])


SCAN_DISTS = {
    "normal": NORMAL,
    "normal-moved": ScalarDistribution.normal(-1.5, 2.0),
    "uniform": UNIFORM,
    "uniform-moved": ScalarDistribution.uniform(-2.0, 3.0),
}


def full_scan(dist):
    # both regimes, tau in [0, 1)
    return exception_region_scan(ScanConfig(distribution=dist, tau_stop=1.0, tau_step=0.01))


class TestScanAgainstScalarApi:
    """The scan solves and refines with the scalar API's own kernels, so
    it agrees with `expectile_of` and `filtered_mean_estimate` bit for bit."""

    @pytest.mark.parametrize("name", SCAN_DISTS)
    def test_targets_are_expectile_of(self, name):
        dist = SCAN_DISTS[name]
        res = full_scan(dist)
        assert res.taus[0] == 0.0
        want = [expectile_of(dist, float(t)) for t in res.taus[1:]]
        assert res.targets[1:].tolist() == want
        assert res.starts[1:].tolist() == want

    @pytest.mark.parametrize("name", SCAN_DISTS)
    def test_refined_is_filtered_mean_estimate(self, name):
        dist = SCAN_DISTS[name]
        res = full_scan(dist)
        cells = 0
        for i, tau in enumerate(res.taus[1:], start=1):
            for j, start in enumerate(res.starts):
                if np.isfinite(start):
                    cells += 1
                    want = filtered_mean_estimate(dist, float(start), float(tau))
                    assert res.refined[i, j] == want, (tau, start)
        assert cells >= (res.taus.size - 1) ** 2

    def test_error_diff_definition(self):
        res = exception_region_scan(ScanConfig(distribution=UNIFORM))
        expect = np.abs(res.refined - res.targets[:, None]) - np.abs(
            res.starts[None, :] - res.targets[:, None]
        )
        finite = np.isfinite(expect)
        assert np.array_equal(res.error_diff[finite], expect[finite])


class TestScanResultSurface:
    def test_rows_cover_grid_and_flag_exceptions(self):
        cfg = ScanConfig(distribution=UNIFORM, tau_start=0.0, tau_stop=0.2)
        res = exception_region_scan(cfg)
        rows = list(res.rows())
        assert len(rows) == res.taus.size * res.tau_hats.size
        assert rows[0].keys() == {
            "tau", "tau_hat", "target", "start", "refined", "error_diff", "exception",
        }
        assert sum(r["exception"] for r in rows) == res.exception_count

    def test_summary_contents(self):
        res = exception_region_scan(ScanConfig(distribution=UNIFORM))
        summary = res.summary()
        assert summary["distribution"] == {"kind": "uniform", "lo": 0.0, "hi": 1.0}
        assert summary["n_cells"] == res.taus.size * res.tau_hats.size
        assert summary["exception_count"] == 39
        assert len(summary["exceptions"]) == 39
        assert all(e["error_diff"] > summary["tolerance"] for e in summary["exceptions"])

    def test_config_validation(self):
        emp = ScalarDistribution.empirical(np.array([0.0, 1.0]))
        with pytest.raises(InputValidationError):
            ScanConfig(distribution=emp)
        with pytest.raises(InputValidationError):
            ScanConfig(distribution=NORMAL, tau_step=0.0)
        with pytest.raises(InputValidationError):
            ScanConfig(distribution=NORMAL, tau_start=0.4, tau_stop=0.3)
        with pytest.raises(InputValidationError):
            ScanConfig(distribution=NORMAL, tolerance=-1.0)

    def test_grid_honors_bounds(self):
        cfg = ScanConfig(distribution=NORMAL, tau_start=0.1, tau_stop=0.3, tau_step=0.05)
        assert cfg.tau_grid() == pytest.approx([0.1, 0.15, 0.2, 0.25])


class TestGate:
    def test_vacuous_above_half(self):
        assert theorem1_condition(NORMAL, 0.5, -100.0)
        assert theorem1_condition(UNIFORM, 0.75, -100.0)

    def test_uniform_infimum_fails_gate_at_small_tau(self):
        # the exception region of the scan, seen through the scalar gate
        assert not theorem1_condition(UNIFORM, 0.01, 0.0)
        assert theorem1_condition(UNIFORM, 0.2, 0.0)

    def test_gate_uses_strictly_below_mass_on_atoms(self):
        # Mass sitting exactly at the start counts as the upper side, both
        # in the refinement and in the gate.  With the cut on the lower
        # atom, nothing is strictly below and the gate must fail even
        # though the cdf at that atom is 1/2.
        two = ScalarDistribution.two_point(0.0, 10.0, 0.5)
        tau = 0.05
        target = expectile_of(two, tau)
        assert not theorem1_condition(two, tau, 0.0)
        assert theorem1_condition(two, tau, np.nextafter(0.0, 1.0))
        # and the refinement genuinely diverges from the ungated start:
        refined = filtered_mean_estimate(two, 0.0, tau)
        assert abs(refined - target) > abs(0.0 - target)
        # one ulp higher the guarantee applies and holds exactly
        nudged = filtered_mean_estimate(two, np.nextafter(0.0, 1.0), tau)
        assert abs(nudged - target) <= abs(0.0 - target) + 1e-12


class TestLemmas:
    DISTS = [
        NORMAL,
        UNIFORM,
        ScalarDistribution.normal(-2.0, 3.0),
        ScalarDistribution.two_point(-1.0, 4.0, 0.3),
        ScalarDistribution.empirical(
            np.array([-3.0, -1.0, 0.5, 2.0, 8.0]),
            np.array([0.1, 0.3, 0.2, 0.25, 0.15]),
        ),
    ]

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.3, 0.5])
    def test_optimistic_starts_contract(self, dist, tau):
        target = expectile_of(dist, tau)
        lo, hi = dist.bracket()
        for offset in [0.0, 1e-6, 0.1, 1.0, 2.0 * (hi - lo)]:
            assert lemma1_check(dist, tau, target + offset)

    def test_optimistic_contraction_is_lower_regime_only(self):
        # At tau = 0.9 an optimistic start on a two-point distribution
        # refines to the plain mean and overshoots the target, so the
        # check refuses the upper regime rather than report it.
        two = ScalarDistribution.two_point(-1.0, 4.0, 0.3)
        target = expectile_of(two, 0.9)
        y_hat = target + 1.0
        refined = filtered_mean_estimate(two, y_hat, 0.9)
        assert abs(refined - target) > abs(y_hat - target)
        with pytest.raises(InputValidationError):
            lemma1_check(two, 0.9, y_hat)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.3, 0.45, 0.9])
    def test_gated_pessimistic_starts_contract(self, dist, tau):
        target = expectile_of(dist, tau)
        lo, _ = dist.bracket()
        grid = np.linspace(lo, target, 25)
        gated = [y for y in grid if theorem1_condition(dist, tau, float(y))]
        assert gated, "gate admitted no pessimistic starts"
        for y in gated:
            assert lemma2_check(dist, tau, float(y))

    def test_preconditions_raise(self):
        target = expectile_of(NORMAL, 0.1)
        with pytest.raises(InputValidationError):
            lemma1_check(NORMAL, 0.1, target - 0.01)
        with pytest.raises(InputValidationError):
            lemma2_check(NORMAL, 0.1, target + 0.01)
        # far below any gate for a small tau
        with pytest.raises(InputValidationError):
            lemma2_check(UNIFORM, 0.01, 0.0)


class TestMonteCarloSuite:
    def test_suite_passes(self):
        report = monte_carlo_theorem_suite(20_000, seed=0)
        assert report["violations"] == 0
        assert report["condition_failures"] == 0
        assert report["max_error_increase"] <= 1e-9
        assert sum(report["regime_counts"].values()) == 20_000
        assert report["mean_error_decrease"] > 0.0

    def test_deterministic(self):
        a = monte_carlo_theorem_suite(5_000, seed=9)
        b = monte_carlo_theorem_suite(5_000, seed=9)
        assert a == b

    def test_seed_changes_draws(self):
        a = monte_carlo_theorem_suite(5_000, seed=1)
        b = monte_carlo_theorem_suite(5_000, seed=2)
        assert a["max_error_increase"] != b["max_error_increase"]

    def test_rejects_empty(self):
        with pytest.raises(InputValidationError):
            monte_carlo_theorem_suite(0)

    @staticmethod
    def padded_rows(seed, k=60, width=12):
        # rows as the suite builds them: sorted, with zero-weight padding
        # above the support
        rng = np.random.default_rng(seed)
        xs = np.zeros((k, width))
        ws = np.zeros((k, width))
        for row, n in enumerate(rng.integers(1, width + 1, size=k)):
            x = np.sort(rng.normal(0.5, 2.0, size=n))
            w = rng.uniform(0.1, 1.0, size=n)
            xs[row] = np.concatenate([x, np.full(width - n, x[-1] + 1.0)])
            ws[row, :n] = w / w.sum()
        return xs, ws, rng.uniform(0.005, 0.495, size=k)

    def test_roots_are_expectile_of(self):
        xs, ws, taus = self.padded_rows(5)
        got = _sorted_empirical_expectiles(xs, ws, taus)
        want = [
            expectile_of(ScalarDistribution.empirical(x, w), float(t))
            for x, w, t in zip(xs, ws, taus)
        ]
        assert got.tolist() == want

    def test_refined_is_filtered_mean_estimate(self):
        xs, ws, taus = self.padded_rows(6)
        y_hat = np.random.default_rng(7).normal(0.5, 3.0, size=taus.size)
        got = _empirical_refined(xs, ws, y_hat, taus)
        want = [
            filtered_mean_estimate(ScalarDistribution.empirical(x, w), float(y), float(t))
            for x, w, y, t in zip(xs, ws, y_hat, taus)
        ]
        assert got.tolist() == want

    def test_error_type_carries_counterexamples(self):
        err = TheoryError("failed", counterexamples=[{"tau": 0.1}])
        assert err.counterexamples == [{"tau": 0.1}]
