"""Agent losses and their gradients, dataset expansion, the train step and the
imagination-start ring buffer."""

import functools
import gc
import os
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leq_lab import agent, datasets, envs, forked, nn, returns
from leq_lab import world_model as wm
from leq_lab.expectile import expectile_weight
from leq_lab.rng import stream

from . import _oracles
from .test_world_model import ACT, OBS, tiny_ensemble

BATCH, HORIZON = 12, 5

# a chain at the tiny ensemble's dimensions: |s[0]| > 3 ends it, as
# `far_is_terminal` does
CHAIN = replace(envs.make_env_spec("dense_chain"), obs_dim=OBS, act_dim=ACT, chain_length=3.0)


def make_plan(seed: int = 0) -> agent._Plan:
    p_spec = agent.policy_spec_for(OBS, ACT, (16, 16))
    c_spec = agent.critic_spec_for(OBS, ACT, (16, 16))
    return agent._Plan(
        p_spec,
        nn.init_params(p_spec, np.random.default_rng(seed)),
        c_spec,
        nn.init_params(c_spec, np.random.default_rng(seed + 1)),
        CHAIN,
    )


def never_terminal(states):
    return np.zeros(len(states), dtype=bool)


def far_is_terminal(states):
    return np.abs(states[:, 0]) > 3.0


def loop_mobile(plan, config, ensemble, ro, termination=far_is_terminal):
    """`_oracles.loop_mobile_targets` at `plan`'s networks: (B, H) targets."""
    return _oracles.loop_mobile_targets(
        ensemble,
        agent.MlpPolicy(plan.policy_spec, plan.policy_params),
        lambda s, a: agent._critic_forward(plan.critic_spec, plan.critic_params, s, a)[0],
        ro,
        config.gamma,
        config.lcb_c,
        termination,
    )


def terminal_predictions(ensemble, ro, member: int) -> int:
    """How many valid (b, t) of `ro` member `member`'s mean sends to a terminal state."""
    s, a = agent._lcb_rows(ro)
    out = nn.forward(ensemble.spec, ensemble.member_params[member], np.concatenate([s, a], axis=1))
    return int(far_is_terminal(s + out[:, :OBS]).sum())


def rollout(plan, termination, noise: float = 0.0, seed: int = 5, joined: bool = False):
    """(starts, rollouts, `_PolicyEval`) of a rollout recorded as `agent.train_step` records it,
    with the caches joined as for an AWR actor if `joined`."""
    starts = np.random.default_rng(seed).normal(size=(BATCH, OBS))
    steps = []
    ro = wm.imagine_rollout(
        tiny_ensemble(),
        agent._recording_policy(plan, steps),
        starts,
        HORIZON,
        termination,
        noise,
        np.random.default_rng(seed + 1),
        differentiable=noise == 0.0,
    )
    pol = agent._policy_eval(plan, ro, steps)
    if joined:
        pol = replace(pol, steps=[], cache=nn._concat_caches([cache for _, cache in pol.steps]))
    return starts, ro, pol


def env_batch(seed: int, n: int = 10, obs: int = OBS, act: int = ACT) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "states": rng.normal(size=(n, obs)),
        "actions": rng.uniform(-1.0, 1.0, size=(n, act)),
        "rewards": rng.normal(size=n),
        "next_states": rng.normal(size=(n, obs)),
        "terminals": (rng.random(n) < 0.3).astype(np.float64),
    }


def bellman_target(plan, config, batch):
    """r + gamma * (1 - done) * Q(s', pi(s')), one network call at a time."""
    policy = agent.MlpPolicy(plan.policy_spec, plan.policy_params)
    next_s = batch["next_states"]
    next_q = agent._critic_forward(plan.critic_spec, plan.critic_params, next_s, policy(next_s))[0]
    return batch["rewards"] + config.gamma * (1.0 - batch["terminals"]) * next_q


def test_surrogate_gradient_matches_central_differences():
    plan = make_plan()
    config = agent.AgentConfig(horizon=HORIZON)
    ensemble = tiny_ensemble()
    starts, ro, pol = rollout(plan, never_terminal)
    _, grad, info = agent.policy_loss_surrogate(plan, config, ensemble, ro, pol)
    weights = info["weights"]
    n_valid = int((ro.t_eff[:, None] > np.arange(HORIZON)[None, :]).sum())

    def loss_at(theta):
        # common random numbers: the same (member, eps) tapes, the weights frozen
        moved, steps = replace(plan, policy_params=theta), []
        replayed = wm.replay_rollout(
            ensemble,
            agent._recording_policy(moved, steps),
            starts,
            ro.member_ids,
            ro.eps,
            never_terminal,
        )
        ce = agent._critic_eval(moved, replayed, agent._policy_eval(moved, replayed, steps))
        qlam, _ = returns.lambda_return_batch(
            replayed.rewards, ce.boot_q, replayed.t_eff, config.lam, config.gamma
        )
        return -float((weights * qlam).sum() / n_valid)

    rng = np.random.default_rng(7)
    assert _oracles.worst_fd_rel_error(loss_at, grad, plan.policy_params, rng, n_coords=40) < 1e-5


def test_surrogate_weights_come_from_the_rollout_actions():
    plan = make_plan(2)
    config = agent.AgentConfig(horizon=HORIZON)
    _, ro, pol = rollout(plan, far_is_terminal, seed=8)
    assert ro.terminal.any() and ro.t_eff.max() > 1  # the terminal path runs
    _, _, info = agent.policy_loss_surrogate(plan, config, tiny_ensemble(), ro, pol)

    valid = np.arange(HORIZON)[None, :] < ro.t_eff[:, None]
    q_explicit = agent._critic_forward(
        plan.critic_spec, plan.critic_params, ro.states[:, :HORIZON][valid], ro.actions[valid]
    )[0]
    ce = agent._critic_eval(plan, ro, pol)
    ended = np.flatnonzero(ro.terminal)
    assert not ce.boot_q[ended, ro.t_eff[ended]].any()  # no bootstrap past a terminal end
    # the stacked forward may differ from a forward over the valid rows alone
    # in the last bit, so only the weights are compared exactly
    np.testing.assert_allclose(ce.boot_q[:, :HORIZON][valid], q_explicit, rtol=0, atol=1e-12)
    qlam, _ = returns.lambda_return_batch(
        ro.rewards, ce.boot_q, ro.t_eff, config.lam, config.gamma
    )
    want = np.zeros((BATCH, HORIZON))
    want[valid] = expectile_weight(q_explicit - qlam[valid], config.tau)
    np.testing.assert_array_equal(info["weights"], want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merged_policy_backward_matches_the_two_pass_gradient(seed):
    plan = make_plan(seed)
    config = agent.AgentConfig(horizon=HORIZON)
    ensemble = tiny_ensemble()
    rng = np.random.default_rng(60 + seed)
    starts = 2.0 * rng.normal(size=(BATCH, OBS))
    starts[0, 0] = 4.0  # a start inside the terminal set: t_eff 0
    member_ids = rng.choice(ensemble.elite_idx, size=(BATCH, HORIZON))
    eps = rng.standard_normal((BATCH, HORIZON, OBS + 1))
    eps[1, 1, 0] = np.nan  # the model's second step goes non-finite and truncates row 1
    steps = []
    ro = wm.replay_rollout(
        ensemble, agent._recording_policy(plan, steps), starts, member_ids, eps,
        far_is_terminal, differentiable=True,
    )
    assert ro.t_eff[0] == 0 and ro.nonfinite[1] and ro.t_eff[1] == 1
    assert (ro.terminal & (ro.t_eff > 0)).any()
    pol = agent._policy_eval(plan, ro, steps)
    _, grad, info = agent.policy_loss_surrogate(plan, config, ensemble, ro, pol)

    ce = agent._critic_eval(plan, ro, pol)
    qlam, valid = returns.lambda_return_batch(
        ro.rewards, ce.boot_q, ro.t_eff, config.lam, config.gamma
    )
    _, want = _oracles.two_pass_policy_pathwise(
        plan, config, ensemble, ro, info["weights"], pol, ce, qlam, valid
    )
    assert np.isfinite(grad).all() and np.abs(want).max() > 0.0
    # the per-state sums round apart, and near-zero entries carry the rounding of large ones
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_awr_gradient_matches_central_differences(monkeypatch):
    plan = make_plan(4)
    config = agent.AgentConfig(horizon=HORIZON, policy_update="awr")
    _, ro, pol = rollout(plan, far_is_terminal, noise=config.sigma_exp, seed=11, joined=True)
    assert ro.terminal.any()
    forward, forwarded = nn.forward_cached, []

    def recording(spec, *args, **kwargs):
        forwarded.append(spec)
        return forward(spec, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(nn, "forward_cached", recording)
        loss, grad, info = agent.awr_policy_loss(plan, config, ro, pol)
    # pi(s_t) comes from `pol`'s per-step forwards, not from another one
    assert plan.policy_spec not in forwarded

    # the advantage weights, frozen at the current critic and policy
    valid = np.arange(HORIZON)[None, :] < ro.t_eff[:, None]
    boot_q = agent._critic_eval(plan, ro, pol).boot_q
    qlam, _ = returns.lambda_return_batch(ro.rewards, boot_q, ro.t_eff, config.lam, config.gamma)
    w = np.minimum(np.exp((qlam[valid] - boot_q[:, :HORIZON][valid]) / config.awr_alpha), 20.0)
    assert info["awr_weight_mean"] == pytest.approx(float(w.mean()), rel=1e-12)
    states, taken = ro.states[:, :HORIZON][valid], ro.actions[valid]

    def loss_at(theta):
        res = agent.MlpPolicy(plan.policy_spec, theta)(states) - taken
        return float((w * (res * res).sum(axis=1)).mean())

    assert loss_at(plan.policy_params) == pytest.approx(loss, rel=1e-12)
    rng = np.random.default_rng(12)
    assert _oracles.worst_fd_rel_error(loss_at, grad, plan.policy_params, rng, n_coords=40) < 1e-5


def test_awr_gradient_from_the_per_step_caches_has_the_stacked_forwards_bits():
    plan = make_plan(4)
    config = agent.AgentConfig(horizon=HORIZON, policy_update="awr")
    _, ro, pol = rollout(plan, far_is_terminal, noise=config.sigma_exp, seed=11, joined=True)
    _, grad, _ = agent.awr_policy_loss(plan, config, ro, pol)
    # one policy forward over every rollout state, the way awr_policy_loss
    # read it before; a forward's bits can depend on its row
    # count, and at BATCH rows each per-step forward has the stacked rows' bits
    flat = ro.states.transpose(1, 0, 2).reshape(-1, OBS)
    acts, cache = agent._policy_forward(plan.policy_spec, plan.policy_params, flat)
    assert acts.tobytes() == pol.acts.tobytes()
    stacked = replace(pol, acts=acts, cache=cache)
    _, want, _ = agent.awr_policy_loss(plan, config, ro, stacked)
    assert grad.tobytes() == want.tobytes()


def test_awr_weight_of_an_overflowing_advantage_is_the_cap_without_a_warning():
    plan = make_plan(4)
    config = agent.AgentConfig(horizon=HORIZON, policy_update="awr", awr_alpha=1e-3)
    _, ro, pol = rollout(plan, far_is_terminal, noise=config.sigma_exp, seed=11, joined=True)
    # a reward of 1e3 at every valid step takes each A_t / alpha far past
    # 709, where exp overflows
    valid = np.arange(HORIZON)[None, :] < ro.t_eff[:, None]
    planted = replace(ro, rewards=np.where(valid, 1e3, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad, info = agent.awr_policy_loss(plan, config, planted, pol)
    assert info["awr_weight_mean"] == 20.0
    assert np.isfinite(loss) and np.isfinite(grad).all()


@pytest.mark.parametrize("conservatism", ["lower_expectile", "mobile_lcb"])
def test_critic_loss_total_gradient_matches_central_differences(conservatism):
    plan = make_plan(6)
    config = agent.AgentConfig(horizon=HORIZON, conservatism=conservatism, lcb_c=0.7)
    ensemble = tiny_ensemble()
    # mobile_lcb's awr rollouts take noisy actions, which pi(s_t) is not
    noise = config.sigma_exp if conservatism == "mobile_lcb" else 0.0
    _, ro, pol = rollout(plan, far_is_terminal, noise=noise, seed=13)
    batch = env_batch(14)
    shadow = nn.init_params(plan.critic_spec, np.random.default_rng(15))
    total, grad, parts = agent.critic_loss_total(plan, config, ensemble, ro, batch, shadow, pol)

    # every regression target frozen at the current params; mobile_lcb
    # regresses Q at the rollout's own actions
    valid = np.arange(HORIZON)[None, :] < ro.t_eff[:, None]
    model_states = ro.states[:, :HORIZON][valid]
    if conservatism == "mobile_lcb":
        y_model = agent._mobile_targets(plan, config, ensemble, *agent._lcb_rows(ro))
        model_acts = ro.actions[valid]
        tau = 0.5
    else:
        boot_q = agent._critic_eval(plan, ro, pol).boot_q
        y_model = agent._model_targets(config, ro, boot_q)[0][valid]
        model_acts = agent.MlpPolicy(plan.policy_spec, plan.policy_params)(model_states)
        tau = config.tau
    y_env = bellman_target(plan, config, batch)
    y_ema = agent._critic_forward(plan.critic_spec, shadow, batch["states"], batch["actions"])[0]

    def loss_at(theta):
        q_model = agent._critic_forward(plan.critic_spec, theta, model_states, model_acts)[0]
        d_model = q_model - y_model
        w = np.where(d_model > 0.0, 1.0 - tau, tau)
        q_env = agent._critic_forward(plan.critic_spec, theta, batch["states"], batch["actions"])[0]
        l_model = float((w * d_model * d_model).mean())
        l_env = 0.5 * float(((q_env - y_env) ** 2).mean())
        l_ema = float(((q_env - y_ema) ** 2).mean())
        return config.beta * l_model + (1.0 - config.beta) * l_env + config.omega_ema * l_ema

    assert valid.sum() > 0 and parts["loss_model"] > 0.0
    assert loss_at(plan.critic_params) == pytest.approx(total, rel=1e-10)
    rng = np.random.default_rng(16)
    assert _oracles.worst_fd_rel_error(loss_at, grad, plan.critic_params, rng, n_coords=40) < 1e-5


def test_mixed_beta_zero_critic_gradient_matches_central_differences():
    plan = make_plan(7)
    config = agent.AgentConfig(beta=0.0, omega_ema=0.7)
    batch = env_batch(17)
    shadow = nn.init_params(plan.critic_spec, np.random.default_rng(18))
    y_env = bellman_target(plan, config, batch)
    y_ema = agent._critic_forward(plan.critic_spec, shadow, batch["states"], batch["actions"])[0]

    def env_at(theta):
        q = agent._critic_forward(plan.critic_spec, theta, batch["states"], batch["actions"])[0]
        return 0.5 * float(((q - y_env) ** 2).mean())

    def ema_at(theta):
        q = agent._critic_forward(plan.critic_spec, theta, batch["states"], batch["actions"])[0]
        return float(((q - y_ema) ** 2).mean())

    theta = plan.critic_params
    fwd = agent._critic_forward(plan.critic_spec, theta, batch["states"], batch["actions"])
    l_env, d_env = agent.critic_loss_env(plan, config, batch, fwd)
    l_ema, d_ema = agent.critic_loss_ema(plan, shadow, batch, fwd)
    assert env_at(theta) == pytest.approx(l_env, rel=1e-12)
    assert ema_at(theta) == pytest.approx(l_ema, rel=1e-12)
    np.testing.assert_array_equal(d_env, fwd[0] - y_env)
    np.testing.assert_array_equal(d_ema, fwd[0] - y_ema)
    grad = agent._real_batch_grad(plan, config, fwd[1], d_env, d_ema)

    def loss_at(theta):
        return env_at(theta) + config.omega_ema * ema_at(theta)

    rng = np.random.default_rng(19)
    assert _oracles.worst_fd_rel_error(loss_at, grad, theta, rng, n_coords=40) < 1e-5


@pytest.mark.parametrize("beta", [0.25, 1.0])
def test_critic_loss_total_gradient_keeps_the_bits_of_its_inline_backward(beta):
    # the real-batch terms' backward, written out as critic_loss_total had it
    # before `_real_batch_grad` served the beta 0 step as well
    plan = make_plan(24)
    config = agent.AgentConfig(horizon=HORIZON, beta=beta, omega_ema=0.7)
    ensemble = tiny_ensemble()
    _, ro, pol = rollout(plan, far_is_terminal, seed=25)
    batch = env_batch(26)
    shadow = nn.init_params(plan.critic_spec, np.random.default_rng(27))
    _, grad, _ = agent.critic_loss_total(plan, config, ensemble, ro, batch, shadow, pol)

    target = agent._bellman_target(plan, config, batch)
    q_shadow = agent._critic_forward(plan.critic_spec, shadow, batch["states"], batch["actions"])[0]
    q, cache = agent._critic_forward(
        plan.critic_spec, plan.critic_params, batch["states"], batch["actions"]
    )
    d_env, d_ema = q - target, q - q_shadow
    cot = (((1.0 - config.beta) * d_env + 2.0 * config.omega_ema * d_ema) / q.size)[:, None]
    g_env_ema, _ = nn.backward_cached(
        plan.critic_spec, plan.critic_params, cache, cot, params_only=True
    )
    _, g_model = agent.critic_loss_model(plan, config, ensemble, ro, pol)
    np.testing.assert_array_equal(grad, config.beta * g_model + g_env_ema)


def test_q_value_actor_gradient_matches_central_differences():
    plan = make_plan(8)
    states = env_batch(20)["states"]
    loss, grad, _ = agent._policy_q_value(plan, states)

    def loss_at(theta):
        acts = agent.MlpPolicy(plan.policy_spec, theta)(states)
        q = agent._critic_forward(plan.critic_spec, plan.critic_params, states, acts)[0]
        return -float(q.mean())

    assert loss_at(plan.policy_params) == pytest.approx(loss, rel=1e-12)
    rng = np.random.default_rng(21)
    assert _oracles.worst_fd_rel_error(loss_at, grad, plan.policy_params, rng, n_coords=40) < 1e-5


def test_mobile_targets_match_a_per_elite_loop():
    plan = make_plan(9)
    config = agent.AgentConfig(horizon=HORIZON, conservatism="mobile_lcb", lcb_c=0.7)
    ensemble = tiny_ensemble()
    _, ro, _ = rollout(plan, far_is_terminal, seed=8)
    assert ro.terminal.any() and ro.t_eff.max() > 1
    assert all(terminal_predictions(ensemble, ro, m) for m in ensemble.elite_idx)
    s, a = agent._lcb_rows(ro)
    valid = np.arange(HORIZON)[None, :] < ro.t_eff[:, None]
    np.testing.assert_array_equal(s, ro.states[:, :HORIZON][valid])
    np.testing.assert_array_equal(a, ro.actions[valid])
    targets = agent._mobile_targets(plan, config, ensemble, s, a)
    want = loop_mobile(plan, config, ensemble, ro)
    # the library's stacked forwards may differ from one-row ones in the last bits
    np.testing.assert_allclose(targets, want[valid], rtol=1e-12, atol=1e-12)
    # a terminal prediction bootstraps nothing
    unended = loop_mobile(plan, config, ensemble, ro, never_terminal)[valid]
    assert not np.allclose(targets, unended, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("elite_idx", [(1, 0), (1,), (2, 0, 1)], ids=["2-elites", "1-elite", "3-elites"])
def test_mobile_targets_through_the_helper_have_the_bits_of_this_process(elite_idx, forks):
    plan = make_plan(9)
    config = agent.AgentConfig(horizon=HORIZON, conservatism="mobile_lcb", lcb_c=0.7)
    ensemble = tiny_ensemble()
    ensemble = replace(
        ensemble, elite_idx=elite_idx, config=replace(ensemble.config, n_elites=len(elite_idx))
    )
    _, ro, _ = rollout(plan, far_is_terminal, seed=8)
    # the helper's elites predict terminal states too
    assert all(terminal_predictions(ensemble, ro, m) for m in elite_idx)
    here = agent._mobile_targets(plan, config, ensemble, *agent._lcb_rows(ro))
    helper = forked.Helper(agent._MappedElites.create(plan, config, ensemble))
    try:
        agent._send_elites(helper, plan, ro)
        there = agent._mobile_targets(plan, config, ensemble, *agent._lcb_rows(ro), helper)
    finally:
        helper.close()
    assert forks == [1] and helper.busy_s > 0.0
    assert here.tobytes() == there.tobytes()
    valid = np.arange(HORIZON)[None, :] < ro.t_eff[:, None]
    want = loop_mobile(plan, config, ensemble, ro)[valid]
    np.testing.assert_allclose(there, want, rtol=1e-12, atol=1e-12)


def _lcb_step_640(seed: int = 8):
    """(plan, config, ensemble, rollouts) of a mobile_lcb step with 640 LCB
    rows: 64 rollouts of 10 steps, none of them ending."""
    plan = make_plan(9)
    config = agent.AgentConfig(horizon=10, batch_model=64, conservatism="mobile_lcb", lcb_c=0.7)
    ensemble = tiny_ensemble()
    starts = np.random.default_rng(seed).normal(size=(64, OBS))
    ro = wm.imagine_rollout(
        ensemble, agent.MlpPolicy(plan.policy_spec, plan.policy_params), starts, 10,
        never_terminal, 0.1, np.random.default_rng(seed + 1),
    )
    assert agent._lcb_rows(ro)[0].shape[0] == 640
    return plan, config, ensemble, ro


def test_an_elite_helper_call_pickles_no_array_either_way(forks, monkeypatch):
    plan, config, ensemble, ro = _lcb_step_640()
    here = agent._mobile_targets(plan, config, ensemble, *agent._lcb_rows(ro))
    helper = forked.Helper(agent._MappedElites.create(plan, config, ensemble))
    # patched after the fork, so only this process's messages are counted
    conn = type(helper._conn)
    sent, received = [], []
    send_bytes, recv_bytes = conn._send_bytes, conn._recv_bytes

    def sending(self, buf):
        sent.append(len(buf))
        return send_bytes(self, buf)

    def receiving(self, maxsize=None):
        buf = recv_bytes(self, maxsize)
        received.append(buf.getbuffer().nbytes)
        return buf

    monkeypatch.setattr(conn, "_send_bytes", sending)
    monkeypatch.setattr(conn, "_recv_bytes", receiving)
    try:
        agent._send_elites(helper, plan, ro)
        there = agent._mobile_targets(plan, config, ensemble, *agent._lcb_rows(ro), helper)
    finally:
        helper.close()
    # the rows alone are 640 * (3 + 2) * 8 = 25,600 bytes
    assert len(sent) == len(received) == 1 and max(sent + received) < 1024
    assert forks == [1] and here.tobytes() == there.tobytes()


def test_the_lcb_row_critic_forward_runs_while_the_helper_computes(monkeypatch):
    plan, config, ensemble, ro = _lcb_step_640()
    helper = forked.Helper(agent._MappedElites.create(plan, config, ensemble))
    events, forward, result = [], agent._critic_forward, forked.Helper.result
    lcb_s, lcb_a = agent._lcb_rows(ro)

    def forwarding(spec, params, states, actions):
        at_lcb_rows = np.array_equal(states, lcb_s) and np.array_equal(actions, lcb_a)
        events.append("lcb rows" if at_lcb_rows else "other")
        return forward(spec, params, states, actions)

    def resulting(self):
        events.append("result")
        return result(self)

    monkeypatch.setattr(agent, "_critic_forward", forwarding)
    monkeypatch.setattr(forked.Helper, "result", resulting)
    try:
        agent._send_elites(helper, plan, ro)
        agent.critic_loss_model(plan, config, ensemble, ro, None, helper)
    finally:
        helper.close()
    assert events.count("lcb rows") == events.count("result") == 1
    assert events.index("lcb rows") < events.index("result")


def _maze_ensemble(spec, n_elites: int):
    """Untrained members for `spec`'s dimensions; the elites out of index order."""
    config = wm.WorldModelConfig(n_members=3, n_elites=n_elites, hidden_dims=(16, 16))
    member = wm.member_spec(spec.obs_dim, spec.act_dim, config)
    params = np.stack([0.3 * nn.init_params(member, np.random.default_rng(m)) for m in range(3)])
    return wm.EnsembleWorldModel(
        obs_dim=spec.obs_dim,
        act_dim=spec.act_dim,
        spec=member,
        member_params=params,
        val_nll=np.array([0.5, 0.75, 0.25]),
        elite_idx=(2, 0, 1)[:n_elites],
        config=config,
    )


def _counting_calls(monkeypatch) -> list:
    """A list that grows by one with each `forked.Helper.call`."""
    counted, call = [], forked.Helper.call

    def counting(self, *args):
        counted.append(1)
        return call(self, *args)

    monkeypatch.setattr(forked.Helper, "call", counting)
    return counted


def _state_bytes(state) -> dict:
    arrays = {
        "policy": state.policy_params,
        "critic": state.critic_params,
        "ema": state.critic_ema,
        "actor_m": state.adam_actor.m,
        "actor_v": state.adam_actor.v,
        "critic_m": state.adam_critic.m,
        "critic_v": state.adam_critic.v,
    }
    return {name: array.tobytes() for name, array in arrays.items()}


@pytest.mark.parametrize("n_elites", [3, 1], ids=["3-elites", "1-elite"])
@pytest.mark.parametrize(
    "conservatism, update",
    [("mobile_lcb", "awr"), ("lower_expectile", "lambda_expectile")],
    ids=["mobile_lcb-awr", "lower_expectile-lambda_expectile"],
)
def test_train_step_through_the_helper_has_the_bits_of_this_process(
    conservatism, update, n_elites, forks, monkeypatch
):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    calls = _counting_calls(monkeypatch)
    spec = envs.make_env_spec("point_maze_u")
    config = agent.AgentConfig(
        conservatism=conservatism, policy_update=update, horizon=4, n_expand=10, n_iter=3,
        hidden_actor=(16, 16), hidden_critic=(16, 16),
    )
    ensemble = _maze_ensemble(spec, n_elites)
    here, there = (agent.build_agent(config, spec, seed=0) for _ in range(2))
    with agent.elite_helper(there, ensemble) as helper:
        for step in range(3):
            batch = env_batch(30 + step, n=16, obs=spec.obs_dim, act=spec.act_dim)
            starts = np.random.default_rng(40 + step).uniform(0.5, 2.5, size=(8, spec.obs_dim))
            logged = step != 1
            want = agent.train_step(here, ensemble, batch, starts, stream(0, "t", step), logged)
            got = agent.train_step(there, ensemble, batch, starts, stream(0, "t", step), logged, helper)
            assert list(got) == list(want)
            assert {k: np.float64(v).tobytes() for k, v in got.items()} == {
                k: np.float64(v).tobytes() for k, v in want.items()
            }
            assert _state_bytes(there) == _state_bytes(here), step
    # a mobile_lcb step sends its elites; any other step runs here alone
    if conservatism == "mobile_lcb":
        assert forks == [1] and calls == [1] * 3 and helper.busy_s > 0.0
    else:
        assert forks == [] and calls == [] and helper is None


def test_a_step_with_paper_sized_networks_through_the_helper_keeps_its_bits(
    deadline, forks, monkeypatch
):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    calls = _counting_calls(monkeypatch)
    # the policy and critic params (256, 256) a step writes into the
    # helper's mapping come to about 1 MB, several times a pipe's buffer
    spec = envs.make_env_spec("point_maze_u")
    config = agent.AgentConfig(conservatism="mobile_lcb", policy_update="awr", horizon=4)
    ensemble = _maze_ensemble(spec, 3)
    here, there = (agent.build_agent(config, spec, seed=0) for _ in range(2))
    deadline(60.0)
    with agent.elite_helper(there, ensemble) as helper:
        for step in range(2):
            batch = env_batch(30 + step, n=64, obs=spec.obs_dim, act=spec.act_dim)
            starts = np.random.default_rng(40 + step).uniform(0.5, 2.5, size=(32, spec.obs_dim))
            want = agent.train_step(here, ensemble, batch, starts, stream(0, "t", step))
            got = agent.train_step(there, ensemble, batch, starts, stream(0, "t", step), True, helper)
            assert {k: np.float64(v).tobytes() for k, v in got.items()} == {
                k: np.float64(v).tobytes() for k, v in want.items()
            }
            assert _state_bytes(there) == _state_bytes(here), step
    assert forks == [1] and calls == [1] * 2


class _FlatDataset:
    """A dataset reduced to `flat_arrays`, whose arrays refuse writes."""

    def __init__(self, n: int, seed: int = 0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        self.arrays = (
            rng.normal(size=(n, OBS)).astype(dtype),
            rng.uniform(-1.0, 1.0, size=(n, ACT)).astype(dtype),
            rng.normal(size=n).astype(dtype),
            rng.normal(size=(n, OBS)).astype(dtype),
            rng.random(n) < 0.3,
        )
        for array in self.arrays:
            array.flags.writeable = False

    def flat_arrays(self):
        return self.arrays


FQE_BATCH, FQE_STEPS = 32, 12


def _fqe_args(plan, dataset, target_every, policy=None):
    policy = policy or agent.MlpPolicy(plan.policy_spec, plan.policy_params)
    return dataset, policy, plan.critic_spec, plan.critic_params.copy(), FQE_STEPS, 0.9, 3, 1e-2, FQE_BATCH, target_every


# 16 rows fit in one batch, 64 are two whole blocks, 80 wrap the last block;
# targets refresh at steps 4 and 8 (and after the last), at step 11, or never.
# The tables cost blocks * (1 + stretches) forwards against 2 per step (24):
# 256 rows take them with one stretch (8 * 2) but not with two (8 * 3 == 24)
# or three (8 * 4), 400 rows never (13 * 2); both networks then run on
# every step's batch
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("target_every", [4, 11, 20])
@pytest.mark.parametrize("n", [16, 64, 80, 256, 400])
def test_fqe_matches_the_per_batch_loop_bit_for_bit(n, target_every, dtype, monkeypatch):
    plan = make_plan(11)
    dataset = _FlatDataset(n, dtype=dtype)
    assert dataset.arrays[4].any()
    want = _oracles.loop_pretrain_fqe(*_fqe_args(plan, dataset, target_every))

    policy = agent.MlpPolicy(plan.policy_spec, plan.policy_params)
    policy_rows, forward_rows = [], []

    def policy_spy(states):
        policy_rows.append(states.shape[0])
        return policy(states)

    forward_cached = nn.forward_cached

    def forward_spy(spec, params, x):
        forward_rows.append(x.shape[0])
        return forward_cached(spec, params, x)

    monkeypatch.setattr(nn, "forward_cached", forward_spy)
    got = agent.pretrain_fqe(*_fqe_args(plan, dataset, target_every, policy_spy), helper_s={})

    _oracles.assert_bits(got[0], want[0])
    _oracles.assert_bits(np.float64(got[1]), np.float64(want[1]))
    size = min(FQE_BATCH, n)
    blocks = -(-n // size)
    stretches = -(-FQE_STEPS // target_every)
    if not (n == 400 or (n == 256 and target_every < 20)):
        assert policy_rows == [size] * blocks
        # the policy's own forwards, a target table per stretch, one live forward per step
        assert forward_rows == [size] * (blocks * (1 + stretches) + FQE_STEPS)
    else:
        assert policy_rows == [size] * FQE_STEPS
        # a policy, a snapshot and a live forward per step
        assert forward_rows == [size] * (3 * FQE_STEPS)


def test_fqe_on_a_ragged_batch_matches_the_loop_to_rounding():
    # at 11 rows BLAS treats the last rows of a call apart from the others, so a
    # row's value depends on where in the call it sits, and no table of 11-row
    # blocks can put every row where every sampled batch has it
    plan = make_plan(11)
    dataset = _FlatDataset(11)
    want = _oracles.loop_pretrain_fqe(*_fqe_args(plan, dataset, 4))
    got = agent.pretrain_fqe(*_fqe_args(plan, dataset, 4), helper_s={})
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-14)
    assert got[1] == pytest.approx(want[1], rel=1e-10)


def _no_step(*args, **kwargs):
    raise AssertionError("took a step")


def test_bc_on_an_empty_dataset_raises_before_any_step(monkeypatch):
    plan = make_plan(17)
    monkeypatch.setattr(nn, "adam_step", _no_step)
    with pytest.raises(agent.AgentError, match="BC pretraining needs transitions") as err:
        agent.pretrain_bc(_FlatDataset(0), plan.policy_spec, plan.policy_params, 5, 3, 1e-3)
    assert type(err.value) is agent.AgentError


def test_fqe_on_an_empty_dataset_raises_before_any_step(monkeypatch):
    plan = make_plan(18)
    monkeypatch.setattr(nn, "adam_step", _no_step)
    with pytest.raises(agent.AgentError, match="FQE pretraining needs transitions") as err:
        agent.pretrain_fqe(*_fqe_args(plan, _FlatDataset(0), 4), helper_s={})
    assert type(err.value) is agent.AgentError


# 37 rows take the tables, 400 rows the per-batch forwards
@pytest.mark.parametrize("n", [37, 400])
def test_fqe_with_a_nan_reward_diverges_at_the_loops_step(n):
    plan = make_plan(12)
    dataset = _FlatDataset(n)
    draws = stream(3, "pretrain.fqe")
    first, second = (draws.integers(0, n, size=FQE_BATCH) for _ in range(2))
    rewards = dataset.arrays[2].copy()
    rewards[np.setdiff1d(second, first)[0]] = np.nan
    rewards.flags.writeable = False
    dataset.arrays = (*dataset.arrays[:2], rewards, *dataset.arrays[3:])
    steps = []
    for fqe in (_oracles.loop_pretrain_fqe, functools.partial(agent.pretrain_fqe, helper_s={})):
        with pytest.raises(agent.DivergenceError) as err:
            fqe(*_fqe_args(plan, dataset, 4))
        steps.append(err.value.snapshot["step"])
    assert steps == [1, 1]


@pytest.mark.parametrize("capacity", [16, 200])
def test_expand_dataset_matches_the_row_by_row_loop(capacity, monkeypatch):
    plan = make_plan(10)
    config = agent.AgentConfig(n_expand=41, rollout_r=4, sigma_exp=0.5)
    policy = agent.MlpPolicy(plan.policy_spec, plan.policy_params)
    # about a third of the start states lie in the terminal set already
    env_states = 3.0 * np.random.default_rng(22).normal(size=(40, OBS))
    imagine_rollout, seen = wm.imagine_rollout, []

    def recording_rollout(*args, **kwargs):
        ro = imagine_rollout(*args, **kwargs)
        seen.append(ro.t_eff.copy())
        return ro

    monkeypatch.setattr(wm, "imagine_rollout", recording_rollout)
    args = (tiny_ensemble(), policy, config, env_states, far_is_terminal)
    buf = agent.ModelStateBuffer.create(capacity, OBS)
    n = agent.expand_dataset(buf, *args, np.random.default_rng(21))
    monkeypatch.undo()
    want = agent.ModelStateBuffer.create(capacity, OBS)
    n_want = _oracles.loop_expand_dataset(want, *args, np.random.default_rng(21))
    assert n == n_want == config.n_expand
    np.testing.assert_array_equal(buf.data, want.data)
    assert (buf.size, buf.cursor) == (want.size, want.cursor)

    # the cases the single insert must get right did occur
    assert any((t_eff == 0).any() for t_eff in seen)
    left, cut = config.n_expand, False
    for t_eff in seen:
        total = np.cumsum(t_eff)
        if total[-1] >= left:
            cut = total[np.searchsorted(total, left)] > left  # filled partway through a row
        left -= min(left, int(total[-1]))
    assert cut


def test_a_q_value_actor_under_mobile_lcb_runs_no_rollout_policy_forward(monkeypatch):
    # the mobile_lcb critic regresses Q(s_t, a_t) and the q_value actor reads
    # the real batch, so nothing reads a policy forward over the rollout states,
    # and the rollout keeps none of its policy caches
    spec = envs.make_env_spec("point_maze_u")
    config = agent.AgentConfig(
        conservatism="mobile_lcb", policy_update="q_value", horizon=4, n_expand=10,
        hidden_actor=(16, 16), hidden_critic=(16, 16),
    )
    ensemble = _maze_ensemble(spec, 3)
    stepped, want = (agent.build_agent(config, spec, seed=0) for _ in range(2))
    policy_eval, recording, calls = agent._policy_eval, agent._recording_policy, []

    def counting(*args):
        calls.append("_policy_eval")
        return policy_eval(*args)

    def counting_recording(*args):
        calls.append("_recording_policy")
        return recording(*args)

    for step in range(12):
        batch = env_batch(30 + step, n=16, obs=spec.obs_dim, act=spec.act_dim)
        starts = np.random.default_rng(40 + step).uniform(0.5, 2.5, size=(8, spec.obs_dim))
        with monkeypatch.context() as patch:
            patch.setattr(agent, "_policy_eval", counting)
            patch.setattr(agent, "_recording_policy", counting_recording)
            agent.train_step(stepped, ensemble, batch, starts, stream(0, "t", step))
        # the same step from its parts, with the rollout policy forward
        plan = agent._Plan(
            want.policy_spec, want.policy_params, want.critic_spec, want.critic_params, spec
        )
        ro = wm.imagine_rollout(
            ensemble, want.policy, starts, config.horizon,
            functools.partial(envs.terminated_batch, spec), 0.0, stream(0, "t", step),
        )
        _, c_grad, _ = agent.critic_loss_total(
            plan, config, ensemble, ro, batch, want.critic_ema, None
        )
        nn.adam_step(want.adam_critic, want.critic_params, c_grad)
        nn.ema_update(want.critic_ema, want.critic_params, config.ema_decay)
        _, p_grad, _ = agent._policy_q_value(plan, batch["states"])
        nn.adam_step(want.adam_actor, want.policy_params, p_grad)
        assert _state_bytes(stepped) == _state_bytes(want), step
    assert calls == []


def test_a_lambda_expectile_step_runs_one_policy_pass_per_rollout_state(monkeypatch):
    spec = envs.make_env_spec("point_maze_u")
    config = agent.AgentConfig(
        horizon=4, n_expand=10, hidden_actor=(16, 16), hidden_critic=(16, 16)
    )
    state = agent.build_agent(config, spec, seed=0)
    n_real, n_starts = 16, 8
    batch = env_batch(70, n=n_real, obs=spec.obs_dim, act=spec.act_dim)
    starts = np.random.default_rng(71).uniform(0.5, 2.5, size=(n_starts, spec.obs_dim))
    forward, backward = nn.forward_cached, nn.backward_cached
    forwards, backwards = [], []

    def spying(spec_, params, x):
        if spec_ == state.policy_spec:
            forwards.append(x.shape[0])
        return forward(spec_, params, x)

    def spying_backward(spec_, params, cache, cot, **kwargs):
        if spec_ == state.policy_spec:
            backwards.append(cot.shape[0])
        return backward(spec_, params, cache, cot, **kwargs)

    monkeypatch.setattr(nn, "forward_cached", spying)
    monkeypatch.setattr(nn, "backward_cached", spying_backward)
    agent.train_step(state, _maze_ensemble(spec, 2), batch, starts, stream(0, "t", 0))
    # H + 1 rollout states per start, and the real batch's Bellman target
    assert sorted(forwards) == [n_starts] * (config.horizon + 1) + [n_real]
    assert backwards == [n_starts] * (config.horizon + 1)


def test_actor_sees_the_updated_critic(monkeypatch):
    spec = envs.make_env_spec("dense_chain")
    config = agent.AgentConfig(
        beta=0.0, policy_update="q_value", hidden_actor=(8,), hidden_critic=(8,), n_expand=10
    )
    state = agent.build_agent(config, spec, seed=0)
    batch = env_batch(22, obs=spec.obs_dim, act=spec.act_dim)
    before = state.critic_params.copy()
    seen = {}
    q_value = agent._policy_q_value

    def spy(plan, states):
        seen["critic"] = plan.critic_params.copy()
        return q_value(plan, states)

    monkeypatch.setattr(agent, "_policy_q_value", spy)
    agent.train_step(state, None, batch, None, np.random.default_rng(23))
    assert not np.array_equal(seen["critic"], before)
    np.testing.assert_array_equal(seen["critic"], state.critic_params)


def test_a_beta_zero_step_makes_one_real_batch_critic_forward_and_backward(monkeypatch):
    spec = envs.make_env_spec("dense_chain")
    config = agent.AgentConfig(
        beta=0.0, policy_update="q_value", hidden_actor=(8,), hidden_critic=(8,), n_expand=10
    )
    shared, separate = (agent.build_agent(config, spec, seed=0) for _ in range(2))
    forward, backward = nn.forward_cached, nn.backward_cached
    critic_loss_env, critic_loss_ema = agent.critic_loss_env, agent.critic_loss_ema
    for step in range(3):
        batch = env_batch(50 + step, n=16, obs=spec.obs_dim, act=spec.act_dim)
        real = np.concatenate([batch["states"], batch["actions"]], axis=1)
        real_caches, real_backwards, called = [], [], []

        def spying(spec_, params, x):
            # the EMA shadow's forward over (s, a) is another network's
            out = forward(spec_, params, x)
            if params is shared.critic_params and np.array_equal(x, real):
                real_caches.append(out[1])
            return out

        def spying_backward(spec_, params, cache, cot, **kwargs):
            if any(cache is c for c in real_caches):
                real_backwards.append(cot.shape[0])
            return backward(spec_, params, cache, cot, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(nn, "forward_cached", spying)
            patch.setattr(nn, "backward_cached", spying_backward)
            for name in ("critic_loss_env", "critic_loss_ema", "critic_loss_total"):

                def call(*args, name=name, loss=getattr(agent, name)):
                    called.append(name)
                    return loss(*args)

                patch.setattr(agent, name, call)
            agent.train_step(shared, None, batch, None, stream(0, "t", step), logged=False)
        assert len(real_caches) == 1 and real_backwards == [16], step
        assert sorted(called) == ["critic_loss_ema", "critic_loss_env"], step

        # the same step with each real-batch term on its own critic forward
        def fresh(plan, batch):
            return agent._critic_forward(
                plan.critic_spec, plan.critic_params, batch["states"], batch["actions"]
            )

        def env_alone(plan, config, batch, fwd):
            return critic_loss_env(plan, config, batch, fresh(plan, batch))

        def ema_alone(plan, shadow, batch, fwd):
            return critic_loss_ema(plan, shadow, batch, fresh(plan, batch))

        with monkeypatch.context() as patch:
            patch.setattr(agent, "critic_loss_env", env_alone)
            patch.setattr(agent, "critic_loss_ema", ema_alone)
            agent.train_step(separate, None, batch, None, stream(0, "t", step), logged=False)
        assert _state_bytes(shared) == _state_bytes(separate), step


def test_unlogged_step_skips_only_mean_q():
    spec = envs.make_env_spec("dense_chain")
    config = agent.AgentConfig(
        beta=0.0, policy_update="q_value", hidden_actor=(8,), hidden_critic=(8,), n_expand=10
    )
    batch = env_batch(22, obs=spec.obs_dim, act=spec.act_dim)
    states = [agent.build_agent(config, spec, seed=0) for _ in range(2)]
    logged = agent.train_step(states[0], None, batch, None, np.random.default_rng(23))
    quiet = agent.train_step(states[1], None, batch, None, np.random.default_rng(23), logged=False)
    q = agent._critic_forward(
        states[0].critic_spec, states[0].critic_params, batch["states"], batch["actions"]
    )[0]
    assert logged["mean_q"] == float(np.mean(q))
    assert {k: v for k, v in logged.items() if k != "mean_q"} == quiet
    np.testing.assert_array_equal(states[0].critic_params, states[1].critic_params)
    np.testing.assert_array_equal(states[0].policy_params, states[1].policy_params)


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


def _pretrain_both(data, state, monkeypatch, cpus):
    """BC, then FQE on the BC policy, with `cpus` patched in: (params and
    losses, the FQE helper's seconds)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    helper_s = {}
    policy_params, bc_mse = agent.pretrain_bc(data, state.policy_spec, state.policy_params.copy(), 30, 0, 1e-3)
    policy = agent.MlpPolicy(state.policy_spec, policy_params)
    critic_params, fqe_loss = agent.pretrain_fqe(
        data, policy, state.critic_spec, state.critic_params.copy(), 30, 0.99, 0, 1e-3,
        target_every=10, helper_s=helper_s,
    )
    return (policy_params, np.float64(bc_mse), critic_params, np.float64(fqe_loss)), helper_s


# 30 steps with a target refresh every 10: FQE's target table is filled 3 times
@pytest.mark.parametrize("env", ["dense_chain", "point_maze_u"])
def test_fqe_split_across_two_processes_keeps_every_bit(env, monkeypatch, forks):
    spec = envs.make_env_spec(env)
    data = datasets.collect_dataset(spec, "mixed", 6, seed=0)
    assert data.flat_arrays()[0].shape[0] > agent._SPLIT_ROWS
    state = agent.build_agent(agent.AgentConfig().desk_scale(), spec, 0)
    split, helper_s = _pretrain_both(data, state, monkeypatch, {0, 1})
    assert forks == [1] and helper_s["busy_s"] > 0.0 and helper_s["wait_s"] > 0.0
    whole, helper_s = _pretrain_both(data, state, monkeypatch, {0})
    assert forks == [1] and helper_s == {}
    for got, want in zip(split, whole):
        _oracles.assert_bits(got, want)


def test_fqe_unmaps_its_split_as_it_returns(monkeypatch, forks):
    # with the cyclic collector off, only reference counts can free the
    # split's mapping; a cycle through it would hold it past the return
    spec = envs.make_env_spec("dense_chain")
    data = datasets.collect_dataset(spec, "mixed", 6, seed=0)
    state = agent.build_agent(agent.AgentConfig().desk_scale(), spec, 0)
    made, create = [], agent._RowSplit.create.__func__

    def recording(cls, *args):
        split = create(cls, *args)
        made.append(weakref.ref(split))
        return split

    monkeypatch.setattr(agent._RowSplit, "create", classmethod(recording))
    gc.disable()
    try:
        _pretrain_both(data, state, monkeypatch, {0, 1})
        assert forks == [1] and len(made) == 1 and made[0]() is None
    finally:
        gc.enable()


def test_fqe_on_a_dataset_below_one_batch_runs_here_alone(monkeypatch, forks):
    spec = envs.make_env_spec("dense_chain")
    data = datasets.collect_dataset(spec, "mixed", 2, seed=0)
    assert data.flat_arrays()[0].shape[0] < agent._SPLIT_ROWS
    state = agent.build_agent(agent.AgentConfig().desk_scale(), spec, 0)
    _, helper_s = _pretrain_both(data, state, monkeypatch, {0, 1})
    assert forks == [] and helper_s == {}


def test_fqe_at_a_width_whose_halves_round_apart_takes_whole_steps(monkeypatch, forks):
    # at (100, 50) a 128-row forward rounds apart from 256 rows on some BLAS
    # builds; the helper's first call checks that, and no step splits then
    spec = envs.make_env_spec("dense_chain")
    data = datasets.collect_dataset(spec, "mixed", 6, seed=0)
    config = replace(agent.AgentConfig().desk_scale(), hidden_actor=(100, 50), hidden_critic=(100, 50))
    state = agent.build_agent(config, spec, 0)
    states, actions = data.flat_arrays()[:2]
    x = np.concatenate([states, actions], axis=1)[:256]
    halves = [nn.forward(state.critic_spec, state.critic_params, x[lo : lo + 128]) for lo in (0, 128)]
    alike = np.concatenate(halves).tobytes() == nn.forward(state.critic_spec, state.critic_params, x).tobytes()
    calls, call = [], forked.Helper.call
    monkeypatch.setattr(forked.Helper, "call", lambda self, *args: (calls.append(args[0]), call(self, *args))[1])
    split, _ = _pretrain_both(data, state, monkeypatch, {0, 1})
    assert forks == [1]
    if not alike:
        assert calls == [agent._CHECK]
    whole, _ = _pretrain_both(data, state, monkeypatch, {0})
    for got, want in zip(split, whole):
        _oracles.assert_bits(got, want)


@pytest.mark.parametrize("bc_steps", [0, 40, 80])
@pytest.mark.parametrize("env", envs.ENV_NAMES)
def test_lockstep_evaluation_matches_one_episode_at_a_time(env, bc_steps):
    # BC at these step counts mixes early successes with full-horizon failures
    spec = envs.make_env_spec(env)
    data = datasets.collect_dataset(spec, "medium", 10, seed=0)
    state = agent.build_agent(agent.AgentConfig(hidden_actor=(32, 32)), spec, 0)
    params, _ = agent.pretrain_bc(data, state.policy_spec, state.policy_params, bc_steps, 0, 3e-3)
    policy = agent.MlpPolicy(state.policy_spec, params)
    lockstep = agent.evaluate_policy(policy, spec, 12, seed=1)
    alone = _oracles.loop_evaluate_policy(policy, spec, 12, seed=1)
    if spec.env_id == "point_maze":
        assert lockstep == alone
    else:
        # the chain's reward is the velocity, so a last-bit difference between a
        # 12-row and a 1-row policy forward reaches the return
        assert lockstep["mean_return"] == pytest.approx(alone["mean_return"], rel=1e-12, abs=0)
        assert lockstep["success_rate"] == alone["success_rate"]
        assert lockstep["mean_length"] == alone["mean_length"]
    assert all(type(v) is float for v in lockstep.values())
