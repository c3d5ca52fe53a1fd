"""Lockstep ensemble training against the per-member loop it replaced, in
this process and in a run's forked helper."""

import multiprocessing
import os
import time
from functools import partial

import numpy as np
import pytest

from leq_lab import datasets, envs, forked, nn
from leq_lab import world_model as wm
from leq_lab.rng import stream

from . import _oracles


@pytest.fixture(scope="module")
def collected():
    return {
        env: datasets.collect_dataset(envs.make_env_spec(env), "mixed", 8, seed=3)
        for env in ("point_maze_u", "dense_chain")
    }


def _poisoned(dataset, n_rows: int, seed: int, val_fraction: float):
    """`dataset` with a reward of 1e200 on n_rows evenly spread training rows:
    a member whose batch draws one of them meets an infinite loss."""
    train_rows, _ = wm._split_rows(dataset, stream(seed, "wm.split"), val_fraction)
    bad = train_rows[np.linspace(0, train_rows.size - 1, n_rows).astype(int)]
    lengths = [len(traj) for traj in dataset.trajectories]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    trajectories = list(dataset.trajectories)
    for row in bad:
        i = int(np.searchsorted(offsets, row, side="right") - 1)
        traj = trajectories[i]
        rewards = traj.rewards.copy()
        rewards[row - offsets[i]] = 1e200
        trajectories[i] = datasets.Trajectory(
            states=traj.states, actions=traj.actions, rewards=rewards,
            ends_terminal=traj.ends_terminal,
        )
    return datasets.OfflineDataset(
        trajectories=tuple(trajectories), obs_dim=dataset.obs_dim, act_dim=dataset.act_dim,
        metadata=dataset.metadata,
    )


_SMALL = {"hidden_dims": (8, 8), "train_steps": 10, "batch_size": 16}

# (dataset, config overrides); every case trains in this process and in a helper
CASES = {
    "maze_elu_interval_divides": ("point_maze_u", {"activation": "elu", "val_interval": 5}),
    "maze_relu_interval_does_not_divide": ("point_maze_u", {"activation": "relu", "val_interval": 4}),
    "chain_tanh_interval_does_not_divide": ("dense_chain", {"activation": "tanh", "val_interval": 3}),
    "chain_batch_size_1": ("dense_chain", {"batch_size": 1, "val_interval": 4}),
    "maze_one_member": ("point_maze_u", {"n_members": 1, "n_elites": 1, "val_interval": 3}),
    "chain_some_members_diverge": (
        "dense_chain_poisoned",
        {"hidden_dims": (8,), "batch_size": 4, "val_interval": 3, "n_elites": 3},
    ),
    "chain_too_few_members_finite": (
        "dense_chain_poisoned",
        {"hidden_dims": (8,), "batch_size": 4, "val_interval": 3, "n_elites": 5},
    ),
}


def _case(collected, name):
    env, overrides = CASES[name]
    config = wm.WorldModelConfig(**{**_SMALL, **overrides})
    if env == "dense_chain_poisoned":
        return _poisoned(collected["dense_chain"], 8, 0, config.val_fraction), config
    return collected[env], config


def _outcome(train, dataset, config, tmp_path):
    """(member_params, val_nll, elite_idx, save_ensemble bytes), or the
    WorldModelError message."""
    try:
        ensemble = train(dataset, config, 0)
    except wm.WorldModelError as err:
        return str(err)
    path = tmp_path / f"ensemble{len(list(tmp_path.iterdir()))}.leqm"
    wm.save_ensemble(path, ensemble)
    return (
        ensemble.member_params.tobytes(),
        ensemble.val_nll.tobytes(),
        ensemble.elite_idx,
        path.read_bytes(),
    )


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


# the poisoned dataset's 1e200 rewards overflow to infinite losses on purpose
_POISONED = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_POISONED) if CASES[name][0] == "dense_chain_poisoned" else name
        for name in sorted(CASES)
    ],
)
def test_in_this_process_and_forked_give_the_per_member_loop_bits(
    name, collected, tmp_path, monkeypatch, forks
):
    dataset, config = _case(collected, name)
    want = _outcome(_oracles.loop_train_ensemble, dataset, config, tmp_path)
    assert _outcome(wm.train_ensemble, dataset, config, tmp_path) == want, "in this process"
    _two_cpus(monkeypatch)
    with forked.serving() as helper:
        beside = partial(wm.train_ensemble, beside=lambda: None, helper=helper)
        assert _outcome(beside, dataset, config, tmp_path) == want, "in the helper"
    assert forks == [1]


@_POISONED
def test_the_divergence_cases_hold_their_premise(collected, tmp_path):
    """Members of the poisoned dataset diverge in both halves of the stack,
    and enough end finite for three elites but not for five."""
    dataset, config = _case(collected, "chain_some_members_diverge")
    val_nll = _oracles.loop_train_ensemble(dataset, config, 0).val_nll
    lost = np.flatnonzero(~np.isfinite(val_nll)).tolist()
    assert lost and lost[0] < 4 <= lost[-1] and config.n_members - len(lost) in (3, 4)
    dataset, config = _case(collected, "chain_too_few_members_finite")
    outcome = _outcome(_oracles.loop_train_ensemble, dataset, config, tmp_path)
    n_ok = config.n_members - len(lost)
    assert outcome == f"only {n_ok} members trained to a finite validation NLL; need 5"


def _train_in_a_child(collected, monkeypatch, child_hook, beside=lambda: None):
    """Train the members in a helper, with a hook run before every Adam step
    of the child, while `beside` runs here; the helper is closed after."""
    parent, adam_step = os.getpid(), nn.adam_step

    def hooked(*args, **kwargs):
        if os.getpid() != parent:
            child_hook()
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(nn, "adam_step", hooked)
    dataset, config = _case(collected, "maze_elu_interval_divides")
    # the hook wraps an `nn` call, so `forked.serving` would give no helper
    helper = forked.Helper()
    try:
        return wm.train_ensemble(dataset, config, 0, beside=beside, helper=helper)
    finally:
        helper.close()


def test_a_child_that_exits_mid_training_raises_and_leaves_nothing_running(collected, monkeypatch):
    steps = []

    def exit_on_the_fifth_step():
        steps.append(1)
        if len(steps) == 5:
            os._exit(3)

    with pytest.raises(wm.WorldModelError, match="exited with code 3"):
        _train_in_a_child(collected, monkeypatch, exit_on_the_fifth_step)
    assert multiprocessing.active_children() == []


def test_a_child_that_raises_reports_its_error(collected, monkeypatch):
    def fail():
        raise FloatingPointError("planted")

    with pytest.raises(wm.WorldModelError, match="FloatingPointError: planted"):
        _train_in_a_child(collected, monkeypatch, fail)
    assert multiprocessing.active_children() == []


def test_a_failing_beside_call_raises_and_its_helper_closes_at_once(collected, monkeypatch):
    def fail():
        raise RuntimeError("parent failed")

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="parent failed"):
        _train_in_a_child(collected, monkeypatch, lambda: time.sleep(60.0), beside=fail)
    assert time.monotonic() - t0 < 30.0
    assert multiprocessing.active_children() == []


def test_a_wrapped_nn_call_keeps_every_member_in_this_process(collected, monkeypatch, forks):
    _two_cpus(monkeypatch)
    forward_cached, stacks = nn.forward_cached, []

    def spy(spec, params, *args, **kwargs):
        if params.ndim == 2:  # a stacked training step, not one member's validation
            stacks.append(params.shape[0])
        return forward_cached(spec, params, *args, **kwargs)

    monkeypatch.setattr(nn, "forward_cached", spy)
    # a helper's calls would land in the child's copy of the spy
    with forked.serving() as helper:
        assert helper is None
        dataset, config = _case(collected, "maze_elu_interval_divides")
        wm.train_ensemble(dataset, config, 0, beside=lambda: None, helper=helper)
    assert forks == [] and stacks == [config.n_members] * config.train_steps


def test_a_beside_call_runs_here_and_leaves_the_bits_alone(collected, monkeypatch, tmp_path, forks):
    dataset, config = _case(collected, "maze_elu_interval_divides")
    alone = _outcome(wm.train_ensemble, dataset, config, tmp_path)
    ran = []
    for cpus in ({0}, {0, 1}):  # after the members here, then beside the helper
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)

        def train(*args):
            with forked.serving() as helper:
                ensemble = wm.train_ensemble(
                    *args, beside=lambda: ran.append(os.getpid()), helper=helper
                )
            assert ensemble.train_s > 0.0
            return ensemble

        assert _outcome(train, dataset, config, tmp_path) == alone
    assert ran == [os.getpid()] * 2 and forks == [1]
    assert multiprocessing.active_children() == []
