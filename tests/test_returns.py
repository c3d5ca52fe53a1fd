"""n-step returns, lambda-mixtures and their reward/bootstrap partials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leq_lab import returns
from leq_lab.agent import AgentConfig
from leq_lab.returns import full_return_batch, lambda_return_batch, policy_grad_coefficients

from . import _oracles


def one_row(rewards, boot_q):
    """One padded row holding every transition: (rewards, boot_q, t_eff)."""
    rewards = np.asarray(rewards, dtype=np.float64)[None, :]
    return rewards, np.asarray(boot_q, dtype=np.float64)[None, :], np.array([rewards.shape[1]])


def n_step(rewards, boot_q, t, n, gamma):
    """G_{t:t+n} of one row, term by term from the definition."""
    value = sum(gamma**j * rewards[t + j] for j in range(n))
    return value + gamma**n * boot_q[t + n]


def random_batch(rng, B, H):
    rewards = rng.normal(size=(B, H))
    boot_q = rng.normal(size=(B, H + 1))
    t_eff = rng.integers(1, H + 1, size=B)
    terminal_rows = rng.random(B) < 0.5
    for b in range(B):
        if terminal_rows[b]:
            boot_q[b, t_eff[b]] = 0.0  # rollout died: no bootstrap at its end
    return rewards, boot_q, t_eff


class TestNStepReturn:
    """Hand-computed n-step returns: the one-step and full-return targets."""

    def test_one_step_direct(self):
        rewards, boot_q, t_eff = one_row([2.0], [99.0, 10.0])
        full, _ = full_return_batch(rewards, boot_q, t_eff, gamma=0.997)
        one, _ = lambda_return_batch(rewards, boot_q, t_eff, lam=0.0, gamma=0.997)
        assert full[0, 0] == pytest.approx(2.0 + 0.997 * 10.0, abs=1e-12)
        assert one[0, 0] == full[0, 0]

    def test_terminal_drops_bootstrap(self):
        # the caller zeroes the bootstrap at a terminal end
        rewards, boot_q, t_eff = one_row([3.5], [50.0, 0.0])
        full, _ = full_return_batch(rewards, boot_q, t_eff, gamma=0.9)
        assert full[0, 0] == 3.5

    def test_three_step_unit_gamma(self):
        rewards, boot_q, t_eff = one_row([1.0, 1.0, 1.0], np.zeros(4))
        full, _ = full_return_batch(rewards, boot_q, t_eff, gamma=1.0)
        assert full[0].tolist() == [3.0, 2.0, 1.0]

    def test_window_bounds_checked(self):
        # nothing at or past a row's t_eff is read, and nothing there is written
        rewards = np.array([[1.0, 7.0], [1.0, 7.0]])
        boot_q = np.array([[0.0, 2.0, 5.0], [0.0, 2.0, -9.0]])
        t_eff = np.array([1, 0])
        for fn in (
            lambda r, q: full_return_batch(r, q, t_eff, 0.9),
            lambda r, q: lambda_return_batch(r, q, t_eff, 0.95, 0.9),
        ):
            got, valid = fn(rewards, boot_q)
            assert valid.tolist() == [[True, False], [False, False]]
            assert got.tolist() == [[1.0 + 0.9 * 2.0, 0.0], [0.0, 0.0]]
            moved, _ = fn(rewards + [0.0, 3.0], boot_q + [0.0, 0.0, 4.0])
            np.testing.assert_array_equal(moved, got)


class TestLambdaTable:
    """Hand-computed lambda-mixtures of lambda_return_batch."""

    def test_three_step_reference_value(self):
        # G = (1, 2, 3), weights prop. to (1, 0.95, 0.9025)
        rewards, boot_q, t_eff = one_row([1.0, 1.0, 1.0], np.zeros(4))
        qlam, _ = lambda_return_batch(rewards, boot_q, t_eff, lam=0.95, gamma=1.0)
        assert qlam[0, 0] == pytest.approx(5.6075 / 2.8525, abs=1e-12)

    def test_weights_sum_to_one(self):
        # every n-step return equals c, so the mixture is c when the
        # normalized weights sum to one
        rng = np.random.default_rng(5)
        for lam in (0.0, 0.3, 0.95, 0.999):
            c = rng.normal()
            rewards, boot_q, t_eff = one_row(np.zeros(7), np.full(8, c))
            qlam, _ = lambda_return_batch(rewards, boot_q, t_eff, lam=lam, gamma=1.0)
            np.testing.assert_allclose(qlam[0], c, rtol=1e-12, atol=0)

    def test_lambda_zero_gives_one_step(self):
        rng = np.random.default_rng(6)
        rewards, boot_q, t_eff = one_row(rng.normal(size=5), rng.normal(size=6))
        qlam, _ = lambda_return_batch(rewards, boot_q, t_eff, lam=0.0, gamma=0.95)
        for t in range(5):
            assert qlam[0, t] == rewards[0, t] + 0.95 * boot_q[0, t + 1]

    def test_last_step_degenerates(self):
        rng = np.random.default_rng(7)
        rewards, boot_q, t_eff = one_row(rng.normal(size=4), rng.normal(size=5))
        qlam, _ = lambda_return_batch(rewards, boot_q, t_eff, lam=0.95, gamma=0.9)
        assert qlam[0, 3] == rewards[0, 3] + 0.9 * boot_q[0, 4]

    def test_qlam_is_convex_combination(self):
        rng = np.random.default_rng(8)
        boot = rng.normal(size=7)
        boot[6] = 0.0  # terminal end
        rewards, boot_q, t_eff = one_row(rng.normal(size=6), boot)
        qlam, _ = lambda_return_batch(rewards, boot_q, t_eff, lam=0.8, gamma=0.99)
        for t in range(6):
            g = [n_step(rewards[0], boot_q[0], t, i, 0.99) for i in range(1, 7 - t)]
            assert min(g) - 1e-12 <= qlam[0, t] <= max(g) + 1e-12

    def test_lambda_one_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            AgentConfig(lam=1.0)


class TestBatchAgainstBruteForce:
    def test_random_rollouts(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            B = int(rng.integers(1, 6))
            H = int(rng.integers(1, 11))
            lam = float(rng.choice([0.0, 0.5, 0.95]))
            gamma = float(rng.choice([0.9, 0.997, 1.0]))
            rewards, boot_q, t_eff = random_batch(rng, B, H)
            qlam, valid = lambda_return_batch(rewards, boot_q, t_eff, lam, gamma)
            want = _oracles.brute_force_lambda_returns(rewards, boot_q, t_eff, lam, gamma)
            np.testing.assert_allclose(qlam, want, atol=1e-10, rtol=0)
            np.testing.assert_array_equal(valid, np.arange(H)[None, :] < t_eff[:, None])
            assert np.all(qlam[~valid] == 0.0)

    def test_truncated_row_matches_short_row(self):
        # a row truncated at t_eff must ignore everything past it
        rng = np.random.default_rng(10)
        rewards = rng.normal(size=(1, 8))
        boot_q = rng.normal(size=(1, 9))
        qlam_full, _ = lambda_return_batch(rewards, boot_q, np.array([3]), 0.9, 0.95)
        qlam_cut, _ = lambda_return_batch(
            rewards[:, :3], boot_q[:, :4], np.array([3]), 0.9, 0.95
        )
        np.testing.assert_allclose(qlam_full[0, :3], qlam_cut[0], atol=1e-12, rtol=0)

    def test_batch_matches_scalar_table(self):
        # a terminal row against its table of n-step returns and weights
        rng = np.random.default_rng(11)
        H, lam, gamma = 6, 0.9, 0.97
        boot = rng.normal(size=H + 1)
        boot[H] = 0.0  # terminal end
        rewards, boot_q, t_eff = one_row(rng.normal(size=H), boot)
        qlam, _ = lambda_return_batch(rewards, boot_q, t_eff, lam, gamma)
        for t in range(H):
            g = np.array([n_step(rewards[0], boot_q[0], t, i, gamma) for i in range(1, H - t + 1)])
            w = lam ** np.arange(H - t)
            assert qlam[0, t] == pytest.approx(float(w @ g / w.sum()), abs=1e-10)

    def test_full_return_random_rollouts(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            B, H = int(rng.integers(1, 6)), int(rng.integers(1, 11))
            gamma = float(rng.choice([0.9, 0.997, 1.0]))
            rewards, boot_q, t_eff = random_batch(rng, B, H)
            full, valid = full_return_batch(rewards, boot_q, t_eff, gamma)
            np.testing.assert_array_equal(valid, np.arange(H)[None, :] < t_eff[:, None])
            assert np.all(full[~valid] == 0.0)
            for b in range(B):
                for t in range(int(t_eff[b])):
                    want = n_step(rewards[b], boot_q[b], t, int(t_eff[b]) - t, gamma)
                    assert full[b, t] == pytest.approx(want, abs=1e-10)


class TestPolicyGradCoefficients:
    @staticmethod
    def objective(rewards, boot_q, weights, t_eff, lam, gamma):
        qlam, _ = lambda_return_batch(rewards, boot_q, t_eff, lam, gamma)
        return float((weights * qlam).sum())

    def test_matches_numeric_partials(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            B, H = 3, int(rng.integers(2, 7))
            lam, gamma = 0.9, 0.97
            rewards, boot_q, t_eff = random_batch(rng, B, H)
            bootstrap_ok = (boot_q != 0.0).astype(np.float64)
            valid = np.arange(H)[None, :] < t_eff[:, None]
            weights = np.where(valid, rng.random((B, H)), 0.0)
            c_r, c_q = policy_grad_coefficients(weights, t_eff, bootstrap_ok, lam, gamma)
            h = 1e-6
            for b in range(B):
                for t in range(H):
                    up, dn = rewards.copy(), rewards.copy()
                    up[b, t] += h
                    dn[b, t] -= h
                    fd = (
                        self.objective(up, boot_q, weights, t_eff, lam, gamma)
                        - self.objective(dn, boot_q, weights, t_eff, lam, gamma)
                    ) / (2.0 * h)
                    assert c_r[b, t] == pytest.approx(fd, abs=1e-6)
                for k in range(H + 1):
                    if bootstrap_ok[b, k] == 0.0:
                        assert c_q[b, k] == 0.0
                        continue
                    up, dn = boot_q.copy(), boot_q.copy()
                    up[b, k] += h
                    dn[b, k] -= h
                    fd = (
                        self.objective(rewards, up, weights, t_eff, lam, gamma)
                        - self.objective(rewards, dn, weights, t_eff, lam, gamma)
                    ) / (2.0 * h)
                    assert c_q[b, k] == pytest.approx(fd, abs=1e-6)

    def test_zero_weights_zero_coefficients(self):
        B, H = 2, 5
        t_eff = np.array([5, 3])
        c_r, c_q = policy_grad_coefficients(
            np.zeros((B, H)), t_eff, np.ones((B, H + 1)), 0.9, 0.99
        )
        assert not c_r.any()
        assert not c_q.any()


def _values():
    """Finite floats, with both signed zeros drawn often."""
    return st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0, allow_subnormal=False)
    )


@st.composite
def padded_batches(draw):
    """(rewards, boot_q, t_eff, weights, bootstrap_ok, lam, gamma) at B <= 8, H <= 12."""
    B = draw(st.integers(1, 8))
    H = draw(st.integers(1, 12))
    rewards = draw(hnp.arrays(np.float64, (B, H), elements=_values()))
    boot_q = draw(hnp.arrays(np.float64, (B, H + 1), elements=_values()))
    t_eff = draw(hnp.arrays(np.intp, B, elements=st.integers(0, H)))
    weights = draw(hnp.arrays(np.float64, (B, H), elements=_values()))
    bootstrap_ok = draw(hnp.arrays(np.float64, (B, H + 1), elements=st.sampled_from([0.0, 1.0])))
    # at 0.99 a wsum padded with zeros rounds differently (pairwise grouping)
    lam = draw(st.sampled_from([0.0, 0.5, 0.95, 0.99]))
    gamma = draw(st.sampled_from([0.9, 0.997, 1.0]))
    return rewards, boot_q, t_eff, weights, bootstrap_ok, lam, gamma


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestBitExactAgainstLoops:
    """The one-pass-per-i forms add in the loop's order, so every bit agrees."""

    @settings(max_examples=300, deadline=None)
    @given(padded_batches())
    def test_lambda_return_batch(self, batch):
        rewards, boot_q, t_eff, _, _, lam, gamma = batch
        qlam, valid = lambda_return_batch(rewards, boot_q, t_eff, lam, gamma)
        want_qlam, want_valid = _oracles.loop_lambda_return_batch(
            rewards, boot_q, t_eff, lam, gamma
        )
        assert_same_bits(qlam, want_qlam)
        np.testing.assert_array_equal(valid, want_valid)

    @settings(max_examples=300, deadline=None)
    @given(padded_batches())
    def test_full_return_batch(self, batch):
        rewards, boot_q, t_eff, _, _, _, gamma = batch
        full, valid = full_return_batch(rewards, boot_q, t_eff, gamma)
        want_full, want_valid = _oracles.loop_full_return_batch(rewards, boot_q, t_eff, gamma)
        assert_same_bits(full, want_full)
        np.testing.assert_array_equal(valid, want_valid)

    @settings(max_examples=300, deadline=None)
    @given(padded_batches())
    def test_policy_grad_coefficients(self, batch):
        _, _, t_eff, weights, bootstrap_ok, lam, gamma = batch
        c_r, c_q = policy_grad_coefficients(weights, t_eff, bootstrap_ok, lam, gamma)
        want_r, want_q = _oracles.loop_policy_grad_coefficients(
            weights, t_eff, bootstrap_ok, lam, gamma
        )
        assert_same_bits(c_r, want_r)
        assert_same_bits(c_q, want_q)


class TestAtTheTrainStepShape:
    """The kernels at a train step's (B, H) = (64, 10), against the loops."""

    @staticmethod
    def step_batch(seed: int):
        rng = np.random.default_rng(seed)
        B, H = 64, 10
        t_eff = np.full(B, H)
        t_eff[:3] = 0  # rows whose start state was already terminal
        t_eff[3:12] = rng.integers(1, H, size=9)  # rollouts that ended early
        rng.shuffle(t_eff)
        rewards = rng.normal(size=(B, H))
        boot_q = rng.normal(size=(B, H + 1))
        boot_q[t_eff < H, t_eff[t_eff < H]] = 0.0
        valid = np.arange(H)[None, :] < t_eff[:, None]
        weights = np.where(valid, rng.random((B, H)), 0.0)
        bootstrap_ok = (np.arange(H + 1)[None, :] <= t_eff[:, None]).astype(np.float64)
        return rewards, boot_q, t_eff, weights, bootstrap_ok

    # 0.95 is the default; at 0.99 the pairwise weight sums of the three
    # longest starts round differently from sequential ones
    @pytest.mark.parametrize("lam", [0.95, 0.99])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_exact(self, seed, lam):
        rewards, boot_q, t_eff, weights, bootstrap_ok = self.step_batch(seed)
        gamma = 0.997
        got = lambda_return_batch(rewards, boot_q, t_eff, lam, gamma)
        for g, w in zip(got, _oracles.loop_lambda_return_batch(rewards, boot_q, t_eff, lam, gamma)):
            assert_same_bits(g, w)
        got = full_return_batch(rewards, boot_q, t_eff, gamma)
        for g, w in zip(got, _oracles.loop_full_return_batch(rewards, boot_q, t_eff, gamma)):
            assert_same_bits(g, w)
        got = policy_grad_coefficients(weights, t_eff, bootstrap_ok, lam, gamma)
        want = _oracles.loop_policy_grad_coefficients(weights, t_eff, bootstrap_ok, lam, gamma)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
            assert g.flags.c_contiguous

    def test_cached_tables_are_read_only(self):
        rewards, boot_q, t_eff, _, _ = self.step_batch(0)
        lambda_return_batch(rewards, boot_q, t_eff, 0.95, 0.997)
        tables = returns._tables(10, 0.95, 0.997)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 1.0
