"""Agent losses on imagined rollouts, and the imagination-start ring buffer."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leq_lab import agent, nn, returns
from leq_lab import world_model as wm
from leq_lab.expectile import expectile_weight

from . import _oracles
from .test_world_model import ACT, OBS, tiny_ensemble

BATCH, HORIZON = 12, 5


def make_plan(seed: int = 0) -> agent._Plan:
    p_spec = agent.policy_spec_for(OBS, ACT, (16, 16))
    c_spec = agent.critic_spec_for(OBS, ACT, (16, 16))
    return agent._Plan(
        p_spec,
        nn.init_params(p_spec, np.random.default_rng(seed)),
        c_spec,
        nn.init_params(c_spec, np.random.default_rng(seed + 1)),
    )


def never_terminal(states):
    return np.zeros(np.atleast_2d(states).shape[0], dtype=bool)


def far_is_terminal(states):
    return np.abs(np.atleast_2d(states)[:, 0]) > 3.0


def rollout(plan, termination, noise: float = 0.0, seed: int = 5):
    starts = np.random.default_rng(seed).normal(size=(BATCH, OBS))
    ro = wm.imagine_rollout(
        tiny_ensemble(),
        agent.MlpPolicy(plan.policy_spec, plan.policy_params),
        starts,
        HORIZON,
        termination,
        noise,
        np.random.default_rng(seed + 1),
        differentiable=noise == 0.0,
    )
    return starts, ro


def test_surrogate_gradient_matches_central_differences():
    plan = make_plan()
    config = agent.AgentConfig(horizon=HORIZON)
    ensemble = tiny_ensemble()
    starts, ro = rollout(plan, never_terminal)
    _, grad, info = agent.policy_loss_surrogate(plan, config, ensemble, ro)
    weights = info["weights"]
    n_valid = int((ro.t_eff[:, None] > np.arange(HORIZON)[None, :]).sum())

    def loss_at(theta):
        # common random numbers: the same (member, eps) tapes, the weights frozen
        moved = replace(plan, policy_params=theta)
        replayed = wm.replay_rollout(
            ensemble,
            agent.MlpPolicy(plan.policy_spec, theta),
            starts,
            ro.member_ids,
            ro.eps,
            never_terminal,
        )
        ce = agent._critic_eval(moved, replayed, agent._policy_eval(moved, replayed))
        qlam, _ = returns.lambda_return_batch(
            replayed.rewards, ce.boot_q, replayed.t_eff, config.lam, config.gamma
        )
        return -float((weights * qlam).sum() / n_valid)

    rng = np.random.default_rng(7)
    assert _oracles.worst_fd_rel_error(loss_at, grad, plan.policy_params, rng, n_coords=40) < 1e-5


def test_surrogate_weights_come_from_the_rollout_actions():
    plan = make_plan(2)
    config = agent.AgentConfig(horizon=HORIZON)
    _, ro = rollout(plan, far_is_terminal, seed=8)
    assert ro.terminal.any() and ro.t_eff.max() > 1  # the terminal path runs
    _, _, info = agent.policy_loss_surrogate(plan, config, tiny_ensemble(), ro)

    valid = np.arange(HORIZON)[None, :] < ro.t_eff[:, None]
    q_explicit = agent.MlpCritic(plan.critic_spec, plan.critic_params)(
        ro.states[:, :HORIZON][valid], ro.actions[valid]
    )
    ce = agent._critic_eval(plan, ro, agent._policy_eval(plan, ro))
    # the stacked forward may differ from a forward over the valid rows alone
    # in the last bit, so only the weights are compared exactly
    np.testing.assert_allclose(ce.boot_q[:, :HORIZON][valid], q_explicit, rtol=0, atol=1e-12)
    qlam, _ = returns.lambda_return_batch(
        ro.rewards, ce.boot_q, ro.t_eff, config.lam, config.gamma
    )
    want = np.zeros((BATCH, HORIZON))
    want[valid] = expectile_weight(q_explicit - qlam[valid], config.tau)
    np.testing.assert_array_equal(info["weights"], want)


def test_awr_reuses_the_stacked_policy_forward_bit_for_bit():
    plan = make_plan(4)
    config = agent.AgentConfig(horizon=HORIZON, policy_update="awr")
    _, ro = rollout(plan, far_is_terminal, noise=config.sigma_exp, seed=11)
    loss, grad, info = agent.awr_policy_loss(plan, config, ro)
    loss_pol, grad_pol, info_pol = agent.awr_policy_loss(
        plan, config, ro, pol=agent._policy_eval(plan, ro)
    )
    assert loss == loss_pol
    np.testing.assert_array_equal(grad, grad_pol)
    assert info == info_pol


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 12),
    sizes=st.lists(st.integers(0, 30), min_size=1, max_size=6),
)
def test_buffer_insert_matches_row_by_row_loop(capacity, sizes):
    buf = agent.ModelStateBuffer.create(capacity, 2)
    data, size, cursor = buf.data.copy(), 0, 0
    start = 0
    for n in sizes:
        rows = np.arange(start, start + n, dtype=np.float64)[:, None] * np.array([1.0, -1.0])
        start += n
        buf.insert(rows)
        data, size, cursor = _oracles.loop_buffer_insert(data, size, cursor, rows)
        np.testing.assert_array_equal(buf.data, data)
        assert (buf.size, buf.cursor) == (size, cursor)


def test_buffer_sample_needs_rows():
    with pytest.raises(agent.AgentError):
        agent.ModelStateBuffer.create(4, 2).sample(1, np.random.default_rng(0))
