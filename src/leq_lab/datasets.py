"""Offline experience containers, scripted collectors and persistence.

An `OfflineDataset` holds its transitions as flat arrays, trajectory after
trajectory: `flat_arrays()` returns them as every stage reads them. A
trajectory either ends at a terminal state (`ends_terminal`) or at the
horizon cap, in which case bootstrapping past its last state is allowed.

File format ("LEQD", version 2): the `container` layout. The header holds
the dims, normalization, metadata, and each trajectory's step count and
terminal flag; the arrays are every trajectory's states (n + 1 rows each:
its transitions' states, then its last next state), then actions, then
rewards, concatenated in trajectory order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .envs import EnvSpec, env_step, expert_action, is_success, reset_state
from .rng import stream

__all__ = [
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


def _check_lengths(lengths: np.ndarray, ends_terminal: np.ndarray) -> None:
    """Refuse per-trajectory arrays that cannot index a dataset's rows."""
    if lengths.ndim != 1 or ends_terminal.shape != lengths.shape:
        raise DatasetError("trajectory array lengths disagree")
    if np.any(lengths < 1):
        raise DatasetError("trajectory needs at least one transition")


@dataclass(frozen=True, eq=False)
class OfflineDataset:
    """Transitions as read-only flat arrays, trajectory after trajectory.

    Row i is (states[i], actions[i], rewards[i], next_states[i],
    terminals[i]). Trajectory k holds `lengths[k]` contiguous rows, in
    which each next state is the following row's state; `terminals` is
    set on the last row of each trajectory that `ends_terminal`.
    """

    states: np.ndarray  # (N, obs_dim)
    actions: np.ndarray  # (N, act_dim)
    rewards: np.ndarray  # (N,)
    next_states: np.ndarray  # (N, obs_dim)
    lengths: np.ndarray  # (n_trajectories,) transitions in each
    ends_terminal: np.ndarray  # (n_trajectories,) bool
    reward_normalization: str = "none"
    metadata: dict = field(default_factory=dict)
    terminals: np.ndarray = field(init=False)  # (N,) bool

    def __post_init__(self) -> None:
        if self.reward_normalization not in NORMALIZATION_MODES:
            raise DatasetError(f"unknown normalization {self.reward_normalization!r}")
        _check_lengths(self.lengths, self.ends_terminal)
        states, actions, rewards, next_states = self.states, self.actions, self.rewards, self.next_states
        if not (
            states.ndim == actions.ndim == 2
            and next_states.shape[1:] == states.shape[1:]
            and min(states.shape[1], actions.shape[1]) >= 1
        ):
            raise DatasetError(
                f"trajectory dims disagree with dataset dims: states {states.shape}, "
                f"next states {next_states.shape}, actions {actions.shape}"
            )
        rows = int(self.lengths.sum())
        if {states.shape[0], actions.shape[0], next_states.shape[0]} != {rows} or rewards.shape != (rows,):
            raise DatasetError("trajectory array lengths disagree")
        if not all(np.all(np.isfinite(a)) for a in (states, actions, rewards, next_states)):
            raise DatasetError("trajectory contains non-finite values")
        if np.any(np.abs(actions) > 1.0 + 1e-9):
            raise DatasetError("actions must lie in [-1, 1]")
        last = np.zeros(rows, dtype=bool)  # each trajectory's last row
        last[np.cumsum(self.lengths) - 1] = True
        if not np.array_equal(next_states[~last], states[1:][~last[:-1]]):
            raise DatasetError("next states disagree with the states that follow them")
        terminals = last & np.repeat(self.ends_terminal, self.lengths)
        object.__setattr__(self, "terminals", terminals)
        for arr in (states, actions, rewards, next_states, terminals, self.lengths, self.ends_terminal):
            arr.setflags(write=False)

    @property
    def obs_dim(self) -> int:
        return self.states.shape[1]

    @property
    def act_dim(self) -> int:
        return self.actions.shape[1]

    @property
    def n_transitions(self) -> int:
        return self.states.shape[0]

    def returns(self) -> np.ndarray:
        """Each trajectory's summed reward, one sum over its contiguous rows."""
        ends = np.cumsum(self.lengths)
        return np.array(
            [self.rewards[a:b].sum() for a, b in zip(ends - self.lengths, ends)], dtype=np.float64
        )

    def flat_arrays(self):
        """(states, actions, rewards, next_states, terminals), the stored arrays."""
        return self.states, self.actions, self.rewards, self.next_states, self.terminals


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
    steps = np.arange(horizon) < lengths[:, None]  # (n, horizon): the rows each trajectory took
    n_success = int(is_success(spec, states[np.arange(n), lengths], ends_terminal).sum())
    return OfflineDataset(
        states=states[:, :-1][steps],
        actions=actions[steps],
        rewards=rewards[steps],
        next_states=states[:, 1:][steps],
        lengths=lengths,
        ends_terminal=ends_terminal,
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
        spread = float(returns.max() - returns.min()) if returns.size >= 2 else 0.0
        if spread <= 0.0:
            raise DatasetError("minmax_return needs >= 2 trajectories with distinct returns")
        rewards = dataset.rewards / spread
    else:  # sparse_shift
        rewards = dataset.rewards - 1.0
    return replace(
        dataset,
        rewards=rewards,
        reward_normalization=mode,
        metadata={**dataset.metadata, "reward_normalization": mode},
    )


def save_dataset(dataset: OfflineDataset, path) -> None:
    ends = np.cumsum(dataset.lengths)
    # each trajectory's last next state after its transitions' states
    states = np.insert(dataset.states, ends, dataset.next_states[ends - 1], axis=0)
    header = {
        "format": "leq-lab-dataset",
        "version": _VERSION,
        "obs_dim": dataset.obs_dim,
        "act_dim": dataset.act_dim,
        "reward_normalization": dataset.reward_normalization,
        "metadata": dataset.metadata,
        "lengths": dataset.lengths.tolist(),
        "terminals": dataset.ends_terminal.tolist(),
    }
    arrays = {"states": states, "actions": dataset.actions, "rewards": dataset.rewards}
    container.write(path, _MAGIC, header, arrays)


def load_dataset(path) -> OfflineDataset:
    try:
        header, arrays = container.read(path, _MAGIC, "leq-lab-dataset", _VERSION)
    except container.ContainerError as err:
        raise DatasetFormatError(f"dataset {err}") from err
    obs_dim, act_dim = header["obs_dim"], header["act_dim"]
    lengths = np.array(header["lengths"], dtype=np.int64)
    ends_terminal = np.array(header["terminals"], dtype=bool)
    _check_lengths(lengths, ends_terminal)
    rows = int(lengths.sum())
    sizes = {"states": (rows + lengths.size) * obs_dim, "actions": rows * act_dim, "rewards": rows}
    for name, size in sizes.items():
        if arrays[name].size != size:
            problem = "truncated" if arrays[name].size < size else "trailing bytes in"
            raise DatasetFormatError(f"dataset {path}: {problem} {name}")
    states = arrays["states"].reshape(rows + lengths.size, obs_dim)
    # each transition's state row: shifted by the last next states before it
    state_rows = np.arange(rows) + np.repeat(np.arange(lengths.size), lengths)
    return OfflineDataset(
        states=states[state_rows],
        actions=arrays["actions"].reshape(rows, act_dim),
        rewards=arrays["rewards"],
        next_states=states[state_rows + 1],
        lengths=lengths,
        ends_terminal=ends_terminal,
        reward_normalization=header["reward_normalization"],
        metadata=header["metadata"],
    )
