"""The gathered ensemble step against the member networks it stands for."""

import numpy as np
import pytest

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
