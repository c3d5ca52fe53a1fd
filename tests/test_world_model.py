"""The gathered ensemble step against the member networks it stands for."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leq_lab import nn
from leq_lab import world_model as wm

from . import _oracles

OBS, ACT, MEMBERS = 3, 2, 3


def tiny_ensemble(activation: str = "elu") -> wm.EnsembleWorldModel:
    """Untrained members with distinct weights; member 2 never finished training."""
    config = wm.WorldModelConfig(
        n_members=MEMBERS, n_elites=2, hidden_dims=(16, 16), activation=activation
    )
    spec = wm.member_spec(OBS, ACT, config)
    params = np.stack([nn.init_params(spec, np.random.default_rng(m)) for m in range(MEMBERS)])
    return wm.EnsembleWorldModel(
        obs_dim=OBS,
        act_dim=ACT,
        spec=spec,
        member_params=params,
        val_nll=np.array([0.5, 0.25, np.inf]),
        elite_idx=(1, 0),
        config=config,
    )


def _inputs(rng, batch: int = 24):
    states = rng.normal(size=(batch, OBS))
    actions = rng.uniform(-1.0, 1.0, size=(batch, ACT))
    member = rng.integers(0, MEMBERS, size=batch)
    return states, actions, member


@pytest.mark.parametrize("activation", ["elu", "relu", "tanh"])
def test_step_at_zero_noise_is_the_member_mean(activation):
    ensemble = tiny_ensemble(activation)
    states, actions, member = _inputs(np.random.default_rng(0))
    nxt, rew, _ = wm.step_with_tape(
        ensemble, states, actions, member, np.zeros((member.size, OBS + 1))
    )
    for m in range(MEMBERS):
        rows = member == m
        out = nn.forward(
            ensemble.spec, ensemble.member_params[m], np.concatenate([states, actions], 1)[rows]
        )
        np.testing.assert_allclose(nxt[rows], states[rows] + out[:, :OBS], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rew[rows], out[:, OBS], rtol=0, atol=1e-12)


def test_a_pickled_ensemble_comes_back_read_only_with_views_of_its_params():
    ensemble = tiny_ensemble()
    ensemble._layers  # a cached copy must not travel with the pickle
    restored = pickle.loads(pickle.dumps(ensemble))
    assert not restored.member_params.flags.writeable
    assert np.array_equal(restored.member_params, ensemble.member_params)
    assert all(np.shares_memory(w, restored.member_params) for w, _ in restored._layers)
    assert all(np.shares_memory(b, restored.member_params) for _, b in restored._layers)
    rollouts = [
        wm.imagine_rollout(
            model, lambda s: np.tanh(s[:, :ACT]), np.random.default_rng(1).normal(size=(6, OBS)),
            4, lambda s: np.zeros(s.shape[0], dtype=bool), 0.3, np.random.default_rng(2),
        )
        for model in (ensemble, restored)
    ]
    for name in ("states", "actions", "rewards", "member_ids", "eps", "t_eff"):
        assert getattr(rollouts[0], name).tobytes() == getattr(rollouts[1], name).tobytes(), name


def test_nll_gradient_of_each_stacked_member_matches_central_differences():
    """`_nll_grad_on` over a (k, P) stack: each member's slice is the gradient
    of its own NLL, and a log-std head clamped on a row passes it nothing."""
    config = wm.WorldModelConfig(hidden_dims=(8, 8), activation="tanh")
    spec = wm.member_spec(OBS, ACT, config)
    head, B = OBS + 1, 16
    rng = np.random.default_rng(20)
    params = np.stack([nn.init_params(spec, np.random.default_rng(30 + m)) for m in range(3)])
    x = rng.normal(size=(3, B, spec.input_dim))
    t = rng.normal(size=(3, B, head))
    b_log_std = nn.param_views(spec, params)["b_out"][:, head:]  # a view into params
    b_log_std[0] = 9.0  # member 0: every log-std over the clamp
    b_log_std[1, 0] = -15.0  # member 1: head 0 under it, its targets near the mean
    t[1, :, 0] = nn.forward(spec, params[1], x[1])[:, 0] + 1e-4 * rng.normal(size=B)
    # member 2: head 1 crosses the upper bound between two middle rows
    raw = np.sort(nn.forward(spec, params[2], x[2])[:, head + 1])
    b_log_std[2, 1] += wm.LOG_STD_MAX - 0.5 * (raw[B // 2 - 1] + raw[B // 2])

    raw = np.stack([nn.forward(spec, params[m], x[m])[:, head:] for m in range(3)])
    assert (raw[0] > wm.LOG_STD_MAX + 1.0).all() and (raw[1, :, 0] < wm.LOG_STD_MIN - 1.0).all()
    assert (raw[2, :, 1] > wm.LOG_STD_MAX).sum() == B // 2
    assert np.abs(raw[2, :, 1] - wm.LOG_STD_MAX).min() > 1e-4  # no row within a step of the kink

    loss, grad = wm._nll_grad_on(spec, params, x, t, head)
    assert loss.shape == (3,) and grad.shape == params.shape
    for m in range(3):

        def loss_at(theta, m=m):
            mu, log_std, _ = wm._split_heads(nn.forward(spec, theta, x[m]), head)
            return float(wm._nll_from_heads(mu, log_std, t[m]))

        assert loss_at(params[m]) == pytest.approx(loss[m], rel=1e-12)
        assert _oracles.worst_fd_rel_error(loss_at, grad[m], params[m], rng, n_coords=40) < 1e-5
    g_b = nn.param_views(spec, grad)["b_out"][:, head:]
    assert not g_b[0].any() and g_b[1, 0] == 0.0
    assert (g_b[1, 1:] != 0.0).all() and g_b[2, 1] != 0.0


@pytest.mark.parametrize("activation", ["elu", "relu", "tanh"])
def test_step_backward_matches_central_differences(activation):
    ensemble = tiny_ensemble(activation)
    rng = np.random.default_rng(1)
    states, actions, member = _inputs(rng)
    batch = member.size
    eps = 0.5 * rng.normal(size=(batch, OBS + 1))
    g_next, g_reward = rng.normal(size=(batch, OBS)), rng.normal(size=batch)
    _, _, cache = wm.step_with_tape(ensemble, states, actions, member, eps)
    g_state, g_action = wm.step_backward(ensemble, cache, g_next, g_reward)

    def objective(flat):
        x = flat.reshape(batch, OBS + ACT)
        nxt, rew, _ = wm.step_with_tape(ensemble, x[:, :OBS], x[:, OBS:], member, eps)
        return float((g_next * nxt).sum() + (g_reward * rew).sum())

    x0 = np.concatenate([states, actions], axis=1).reshape(-1)
    grad = np.concatenate([g_state, g_action], axis=1).reshape(-1)
    assert _oracles.worst_fd_rel_error(objective, grad, x0, rng, n_coords=40) < 1e-5


def _random_ensemble(rng, activation, n_members, hidden, obs, act, scale):
    """Members with every weight and bias drawn, so log-stds hit both clamps."""
    config = wm.WorldModelConfig(
        n_members=n_members, n_elites=n_members, hidden_dims=hidden, activation=activation
    )
    spec = wm.member_spec(obs, act, config)
    params = rng.normal(0.0, scale, (n_members, nn.n_params(spec)))
    return wm.EnsembleWorldModel(
        obs_dim=obs,
        act_dim=act,
        spec=spec,
        member_params=params,
        val_nll=np.zeros(n_members),
        elite_idx=tuple(range(n_members)),
        config=config,
    )


def check_step_against_group_oracle(ensemble, states, actions, member, eps, g_next, g_reward):
    """step_with_tape and step_backward give the per-group oracle's bits and
    write none of their inputs, tapes, caches or cotangents."""
    inputs = (states, actions, member, eps)
    before = [arr.tobytes() for arr in inputs]
    nxt, rew, cache = wm.step_with_tape(ensemble, states, actions, member, eps)
    assert [arr.tobytes() for arr in inputs] == before
    want_nxt, want_rew, tape = _oracles.group_step_with_tape(
        ensemble, states, actions, member, eps
    )
    _oracles.assert_bits(nxt, want_nxt)
    _oracles.assert_bits(rew, want_rew)

    cache_arrays = [*cache.post, cache.order, cache.sigma, cache.eps, cache.interior]
    frozen = [arr.tobytes() for arr in cache_arrays + [g_next, g_reward, *inputs]]
    want_s, want_a = _oracles.group_step_backward(ensemble, tape, g_next, g_reward)
    for _ in range(2):  # a second sweep over the same cache
        g_s, g_a = wm.step_backward(ensemble, cache, g_next, g_reward)
        assert [arr.tobytes() for arr in cache_arrays + [g_next, g_reward, *inputs]] == frozen
        _oracles.assert_bits(g_s, want_s)
        _oracles.assert_bits(g_a, want_a)


def _plant(draw, arrays):
    for arr in arrays:
        flat = arr.reshape(-1)
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, flat.size - 1))
            flat[at] = draw(st.sampled_from(_oracles.SPECIAL_VALUES))


@st.composite
def step_cases(draw):
    """An ensemble, a (member, eps) tape over a batch drawn from a subset of
    the members, inputs and cotangents, with a few special values planted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_members = draw(st.integers(1, 5))
    obs, act = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ensemble = _random_ensemble(
        rng,
        draw(st.sampled_from(["elu", "relu", "tanh"])),
        n_members,
        tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=3))),
        obs,
        act,
        draw(st.sampled_from([0.3, 1.0, 3.0])),
    )
    present = draw(
        st.lists(st.integers(0, n_members - 1), min_size=1, max_size=n_members, unique=True)
    )
    batch = draw(st.integers(1, 80))
    member = np.asarray(draw(st.lists(st.sampled_from(present), min_size=batch, max_size=batch)))
    states = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 30.0])), (batch, obs))
    actions = rng.uniform(-1.0, 1.0, (batch, act))
    eps = rng.normal(size=(batch, obs + 1))
    g_next, g_reward = rng.normal(size=(batch, obs)), rng.normal(size=batch)
    if draw(st.booleans()):
        _plant(draw, (states, actions, eps, g_next, g_reward))
    return ensemble, states, actions, member, eps, g_next, g_reward


class TestMemberSortedStep:
    """The member-sorted, layer-major step against the per-group form in _oracles."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # planted NaN and Inf values
    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_bit_identical_and_never_write_their_inputs(self, case):
        check_step_against_group_oracle(*case)

    @pytest.mark.parametrize("activation", ["elu", "relu", "tanh"])
    @pytest.mark.parametrize(
        "member",
        [
            [3],  # B = 1
            [2, 2, 2, 2, 2, 2],  # one member, and elites 0, 1, 3 missing
            [3, 0, 2, 1],  # singleton groups only
            [1, 3, 1, 0, 3, 3, 1],  # singleton group 0 among larger ones, elite 2 missing
        ],
    )
    def test_edge_batches(self, activation, member):
        rng = np.random.default_rng(len(member))
        ensemble = _random_ensemble(rng, activation, 4, (16, 16), OBS, ACT, 1.0)
        batch = len(member)
        check_step_against_group_oracle(
            ensemble,
            rng.normal(size=(batch, OBS)),
            rng.uniform(-1.0, 1.0, (batch, ACT)),
            np.asarray(member),
            rng.normal(size=(batch, OBS + 1)),
            rng.normal(size=(batch, OBS)),
            rng.normal(size=batch),
        )

    def test_cache_keeps_member_sorted_rows_bounds_and_member_bits(self):
        ensemble = tiny_ensemble()
        states, actions, member = _inputs(np.random.default_rng(2))
        _, _, cache = wm.step_with_tape(
            ensemble, states, actions, member, np.zeros((member.size, OBS + 1))
        )
        np.testing.assert_array_equal(cache.order, np.argsort(member, kind="stable"))
        assert [m for m, _, _ in cache.groups] == sorted(set(member.tolist()))
        los = [lo for _, lo, _ in cache.groups]
        his = [hi for _, _, hi in cache.groups]
        assert los == [0] + his[:-1] and his[-1] == member.size
        x = np.concatenate([states, actions], axis=1)
        for m, lo, hi in cache.groups:
            rows = cache.order[lo:hi]
            assert (member[rows] == m).all()
            _, member_cache = nn.forward_cached(ensemble.spec, ensemble.member_params[m], x[rows])
            for post, (_, _, _, out) in zip(cache.post, member_cache[2]):
                np.testing.assert_array_equal(post[lo:hi], out)
