"""n-step returns, lambda-mixtures and their reward/bootstrap partials."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leq_lab.returns import (
    lambda_return_batch,
    lambda_returns,
    n_step_return,
    policy_grad_coefficients,
)

from . import _oracles


def make_traj(rewards, terminal, obs_dim=1):
    rewards = np.asarray(rewards, dtype=np.float64)
    n = rewards.shape[0]
    states = np.arange((n + 1) * obs_dim, dtype=np.float64).reshape(n + 1, obs_dim)
    return SimpleNamespace(states=states, rewards=rewards, terminal=terminal)


def table_critic(values):
    """Critic that looks values up by the first state coordinate."""
    values = dict(values)

    def critic(states, actions):
        states = np.atleast_2d(states)
        return np.array([values[float(s[0])] for s in states])

    return critic


def zero_policy(states):
    states = np.atleast_2d(states)
    return np.zeros((states.shape[0], 1))


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
    def test_one_step_direct(self):
        traj = make_traj([2.0], terminal=False)
        critic = table_critic({0.0: 99.0, 1.0: 10.0})
        got = n_step_return(traj, 0, 1, critic, zero_policy, gamma=0.997)
        assert got == pytest.approx(2.0 + 0.997 * 10.0, abs=1e-12)

    def test_terminal_drops_bootstrap(self):
        traj = make_traj([3.5], terminal=True)
        critic = table_critic({0.0: 50.0, 1.0: 50.0})
        assert n_step_return(traj, 0, 1, critic, zero_policy, gamma=0.9) == 3.5

    def test_three_step_unit_gamma(self):
        traj = make_traj([1.0, 1.0, 1.0], terminal=False)
        critic = table_critic({float(k): 0.0 for k in range(4)})
        assert n_step_return(traj, 0, 3, critic, zero_policy, gamma=1.0) == 3.0

    def test_window_bounds_checked(self):
        traj = make_traj([1.0, 1.0], terminal=False)
        critic = table_critic({float(k): 0.0 for k in range(3)})
        with pytest.raises(IndexError):
            n_step_return(traj, 1, 2, critic, zero_policy, gamma=0.9)
        with pytest.raises(IndexError):
            n_step_return(traj, 0, 0, critic, zero_policy, gamma=0.9)


class TestLambdaTable:
    def test_three_step_reference_value(self):
        # G = (1, 2, 3), weights prop. to (1, 0.95, 0.9025)
        traj = make_traj([1.0, 1.0, 1.0], terminal=True)
        critic = table_critic({float(k): 0.0 for k in range(4)})
        table = lambda_returns(traj, critic, zero_policy, lam=0.95, gamma=1.0)
        assert table.qlam[0] == pytest.approx(5.6075 / 2.8525, abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        for lam in (0.0, 0.3, 0.95, 0.999):
            traj = make_traj(rng.normal(size=7), terminal=False)
            critic = table_critic({float(k): rng.normal() for k in range(8)})
            table = lambda_returns(traj, critic, zero_policy, lam=lam, gamma=0.99)
            for t, w in enumerate(table.mixture_weights):
                assert w.shape == (7 - t,)
                assert np.all(w >= 0.0)
                assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_lambda_zero_gives_one_step(self):
        rng = np.random.default_rng(6)
        traj = make_traj(rng.normal(size=5), terminal=False)
        critic = table_critic({float(k): rng.normal() for k in range(6)})
        table = lambda_returns(traj, critic, zero_policy, lam=0.0, gamma=0.95)
        for t in range(5):
            want = n_step_return(traj, t, 1, critic, zero_policy, gamma=0.95)
            assert table.qlam[t] == pytest.approx(want, abs=0)

    def test_last_step_degenerates(self):
        rng = np.random.default_rng(7)
        traj = make_traj(rng.normal(size=4), terminal=False)
        critic = table_critic({float(k): rng.normal() for k in range(5)})
        table = lambda_returns(traj, critic, zero_policy, lam=0.95, gamma=0.9)
        want = n_step_return(traj, 3, 1, critic, zero_policy, gamma=0.9)
        assert table.mixture_weights[3].tolist() == [1.0]
        assert table.qlam[3] == pytest.approx(want, abs=0)

    def test_qlam_is_convex_combination(self):
        rng = np.random.default_rng(8)
        traj = make_traj(rng.normal(size=6), terminal=True)
        critic = table_critic({float(k): rng.normal() for k in range(7)})
        table = lambda_returns(traj, critic, zero_policy, lam=0.8, gamma=0.99)
        for t in range(6):
            g = table.n_step[t]
            assert g.min() - 1e-12 <= table.qlam[t] <= g.max() + 1e-12

    def test_lambda_one_rejected(self):
        traj = make_traj([1.0], terminal=False)
        critic = table_critic({0.0: 0.0, 1.0: 0.0})
        with pytest.raises(ValueError):
            lambda_returns(traj, critic, zero_policy, lam=1.0, gamma=0.9)


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
        rng = np.random.default_rng(11)
        H = 6
        traj = make_traj(rng.normal(size=H), terminal=True)
        values = {float(k): rng.normal() for k in range(H + 1)}
        critic = table_critic(values)
        table = lambda_returns(traj, critic, zero_policy, lam=0.9, gamma=0.97)
        boot = np.array([[values[float(k)] for k in range(H + 1)]])
        boot[0, H] = 0.0  # terminal end
        qlam, _ = lambda_return_batch(
            traj.rewards[None, :], boot, np.array([H]), 0.9, 0.97
        )
        np.testing.assert_allclose(qlam[0], table.qlam, atol=1e-10, rtol=0)


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
    def test_policy_grad_coefficients(self, batch):
        _, _, t_eff, weights, bootstrap_ok, lam, gamma = batch
        c_r, c_q = policy_grad_coefficients(weights, t_eff, bootstrap_ok, lam, gamma)
        want_r, want_q = _oracles.loop_policy_grad_coefficients(
            weights, t_eff, bootstrap_ok, lam, gamma
        )
        assert_same_bits(c_r, want_r)
        assert_same_bits(c_q, want_q)
