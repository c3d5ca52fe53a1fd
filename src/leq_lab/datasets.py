"""Offline experience containers, scripted collectors and persistence.

Trajectories store contiguous arrays (states has one extra row so
next-states need no duplication); `OfflineDataset.flat_arrays` stacks the
transitions. A trajectory either ends at a terminal state
(`ends_terminal`) or at the horizon cap, in which case bootstrapping past
its last state is allowed.

File format ("LEQD", version 2): the `container` layout. The header holds
the dims, normalization, metadata, and each trajectory's step count and
terminal flag; the arrays are every trajectory's states (n + 1 rows each),
then actions, then rewards, concatenated in trajectory order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .envs import EnvSpec, env_step, expert_action, is_success, reset_state
from .rng import stream

__all__ = [
    "Trajectory",
    "OfflineDataset",
    "DatasetError",
    "DatasetFormatError",
    "COLLECTORS",
    "NORMALIZATION_MODES",
    "collect_dataset",
    "normalize_rewards",
    "save_dataset",
    "load_dataset",
]

_MAGIC = b"LEQD"
_VERSION = 2
COLLECTORS = ("random", "medium", "expert", "mixed")
NORMALIZATION_MODES = ("none", "minmax_return", "sparse_shift")
_MEDIUM_NOISE = 0.5


class DatasetError(ValueError):
    """Invalid dataset contents or arguments."""


class DatasetFormatError(DatasetError, container.ContainerError):
    """Corrupt, truncated or incompatible dataset file."""


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (n + 1, obs_dim)
    actions: np.ndarray  # (n, act_dim)
    rewards: np.ndarray  # (n,)
    ends_terminal: bool

    def __post_init__(self) -> None:
        n = self.actions.shape[0]
        if n < 1:
            raise DatasetError("trajectory needs at least one transition")
        if self.states.shape[0] != n + 1 or self.rewards.shape != (n,):
            raise DatasetError("trajectory array lengths disagree")
        if not (
            np.all(np.isfinite(self.states))
            and np.all(np.isfinite(self.actions))
            and np.all(np.isfinite(self.rewards))
        ):
            raise DatasetError("trajectory contains non-finite values")
        if np.any(np.abs(self.actions) > 1.0 + 1e-9):
            raise DatasetError("actions must lie in [-1, 1]")
        for arr in (self.states, self.actions, self.rewards):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.actions.shape[0]

    @property
    def ret(self) -> float:
        return float(self.rewards.sum())


@dataclass(frozen=True)
class OfflineDataset:
    trajectories: tuple[Trajectory, ...]
    obs_dim: int
    act_dim: int
    reward_normalization: str = "none"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.reward_normalization not in NORMALIZATION_MODES:
            raise DatasetError(f"unknown normalization {self.reward_normalization!r}")
        for traj in self.trajectories:
            if traj.states.shape[1] != self.obs_dim or traj.actions.shape[1] != self.act_dim:
                raise DatasetError("trajectory dims disagree with dataset dims")

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def returns(self) -> np.ndarray:
        return np.array([t.ret for t in self.trajectories], dtype=np.float64)

    def flat_arrays(self):
        """(states, actions, rewards, next_states, terminals) stacked over all transitions."""
        if not self.trajectories:
            return (
                np.zeros((0, self.obs_dim)),
                np.zeros((0, self.act_dim)),
                np.zeros(0),
                np.zeros((0, self.obs_dim)),
                np.zeros(0, dtype=bool),
            )
        states = np.concatenate([t.states[:-1] for t in self.trajectories], axis=0)
        actions = np.concatenate([t.actions for t in self.trajectories], axis=0)
        rewards = np.concatenate([t.rewards for t in self.trajectories], axis=0)
        next_states = np.concatenate([t.states[1:] for t in self.trajectories], axis=0)
        terminals = np.concatenate(
            [
                np.arange(len(t)) == (len(t) - 1) if t.ends_terminal else np.zeros(len(t), bool)
                for t in self.trajectories
            ]
        )
        return states, actions, rewards, next_states, terminals


def collect_dataset(
    spec: EnvSpec, collector: str, n_trajectories: int, seed: int, horizon: int | None = None
) -> OfflineDataset:
    """Roll scripted controllers in the true environment.

    random: uniform actions; expert: scripted waypoint/bang-bang controller;
    medium: expert plus clipped Gaussian noise (sigma 0.5); mixed: even
    trajectory indices collected by medium, odd by random.

    Every live trajectory steps at once on its own RNG stream. Its step
    noise (random's uniform actions, medium's Gaussian noise) is drawn up
    front in one (horizon, A) call, which gives the values of one (A,) call
    per step; the draws an episode leaves unused are read by nothing else,
    so the bytes are those of stepping each trajectory alone.
    """
    if collector not in COLLECTORS:
        raise DatasetError(f"unknown collector {collector!r}; expected one of {COLLECTORS}")
    if n_trajectories < 1:
        raise DatasetError("n_trajectories must be >= 1")
    horizon = spec.horizon if horizon is None else int(horizon)
    if horizon < 1:
        raise DatasetError("horizon must be >= 1")
    n, shape = n_trajectories, (horizon, spec.act_dim)
    modes = [collector if collector != "mixed" else ("medium", "random")[i % 2] for i in range(n)]
    states = np.empty((n, horizon + 1, spec.obs_dim))
    actions = np.empty((n, *shape))  # random actions and medium noise until steered
    rewards = np.empty((n, horizon))
    for i, mode in enumerate(modes):
        rng = stream(seed, f"collect.{spec.name}.{collector}", i)
        states[i, 0] = reset_state(spec, rng)
        if mode == "random":
            actions[i] = rng.uniform(-1.0, 1.0, shape)
        elif mode == "medium":
            actions[i] = rng.normal(0.0, _MEDIUM_NOISE, shape)
    steered, noisy = np.array(modes) != "random", np.array(modes) == "medium"
    wp_idx = np.zeros(n, dtype=np.intp)
    lengths = np.full(n, horizon)
    ends_terminal = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for t in range(horizon):
        rows = live[steered[live]]
        if rows.size:
            expert, wp_idx[rows] = expert_action(spec, states[rows, t], wp_idx[rows])
            medium = noisy[rows]
            expert[medium] = np.clip(expert[medium] + actions[rows[medium], t], -1.0, 1.0)
            actions[rows, t] = expert
        states[live, t + 1], rewards[live, t], done = env_step(spec, states[live, t], actions[live, t])
        lengths[live[done]] = t + 1
        ends_terminal[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    trajectories = [
        Trajectory(
            states=states[i, : m + 1].copy(),
            actions=actions[i, :m].copy(),
            rewards=rewards[i, :m].copy(),
            ends_terminal=bool(ends_terminal[i]),
        )
        for i, m in enumerate(lengths)
    ]
    n_success = int(is_success(spec, states[np.arange(n), lengths], ends_terminal).sum())
    return OfflineDataset(
        trajectories=tuple(trajectories),
        obs_dim=spec.obs_dim,
        act_dim=spec.act_dim,
        metadata={
            "env": spec.name,
            "collector": collector,
            "seed": int(seed),
            "n_trajectories": n_trajectories,
            "success_rate": n_success / n_trajectories,
        },
    )


def normalize_rewards(dataset: OfflineDataset, mode: str) -> OfflineDataset:
    """Reward normalization: none, minmax_return (divide by the spread of
    trajectory returns) or sparse_shift (subtract 1; intended for {0, 1}
    sparse rewards, yielding {-1, 0})."""
    if mode not in NORMALIZATION_MODES:
        raise DatasetError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        return dataset
    if dataset.reward_normalization != "none":
        raise DatasetError(
            f"dataset already normalized with {dataset.reward_normalization!r}"
        )
    if mode == "minmax_return":
        returns = dataset.returns()
        spread = float(returns.max() - returns.min())
        if len(dataset.trajectories) < 2 or spread <= 0.0:
            raise DatasetError("minmax_return needs >= 2 trajectories with distinct returns")
        transform = lambda r: r / spread
    else:  # sparse_shift
        transform = lambda r: r - 1.0
    new_trajs = tuple(
        Trajectory(
            states=t.states.copy(),
            actions=t.actions.copy(),
            rewards=transform(t.rewards.copy()),
            ends_terminal=t.ends_terminal,
        )
        for t in dataset.trajectories
    )
    return replace(
        dataset,
        trajectories=new_trajs,
        reward_normalization=mode,
        metadata={**dataset.metadata, "reward_normalization": mode},
    )


def save_dataset(dataset: OfflineDataset, path) -> None:
    trajs = dataset.trajectories
    header = {
        "format": "leq-lab-dataset",
        "version": _VERSION,
        "obs_dim": dataset.obs_dim,
        "act_dim": dataset.act_dim,
        "reward_normalization": dataset.reward_normalization,
        "metadata": dataset.metadata,
        "lengths": [len(t) for t in trajs],
        "terminals": [t.ends_terminal for t in trajs],
    }
    arrays = {
        name: np.concatenate([np.zeros(0), *(getattr(t, name).ravel() for t in trajs)])
        for name in ("states", "actions", "rewards")
    }
    container.write(path, _MAGIC, header, arrays)


def load_dataset(path) -> OfflineDataset:
    try:
        header, arrays = container.read(path, _MAGIC, "leq-lab-dataset", _VERSION)
    except container.ContainerError as err:
        raise DatasetFormatError(f"dataset {err}") from err
    obs_dim, act_dim, lengths = header["obs_dim"], header["act_dim"], header["lengths"]
    rows = sum(lengths)
    sizes = {"states": (rows + len(lengths)) * obs_dim, "actions": rows * act_dim, "rewards": rows}
    for name, size in sizes.items():
        if arrays[name].size != size:
            problem = "truncated" if arrays[name].size < size else "trailing bytes in"
            raise DatasetFormatError(f"dataset {path}: {problem} {name}")
    states = arrays["states"].reshape(-1, obs_dim)
    actions = arrays["actions"].reshape(-1, act_dim)
    trajectories, s, t = [], 0, 0
    for n, terminal in zip(lengths, header["terminals"]):
        trajectories.append(
            Trajectory(
                states=states[s : s + n + 1],
                actions=actions[t : t + n],
                rewards=arrays["rewards"][t : t + n],
                ends_terminal=bool(terminal),
            )
        )
        s, t = s + n + 1, t + n
    return OfflineDataset(
        trajectories=tuple(trajectories),
        obs_dim=obs_dim,
        act_dim=act_dim,
        reward_normalization=header["reward_normalization"],
        metadata=header["metadata"],
    )
