"""Toy ground-truth environments with exact termination rules.

Two families:

- point_maze: a point agent in a 2-D maze of axis-aligned wall segments.
  State is the (x, y) position, actions are velocity commands in [-1, 1]^2
  scaled by a fixed step size. Reward is -1 per step and 0 on the step that
  enters the goal disc (radius 0.5), which also terminates the episode.
  Three built-in layouts ("u", "s-corridor", "large-spiral") form a
  difficulty ladder of increasing path length.

- dense_chain: a 1-D double integrator. State is (position, velocity),
  the scalar action accelerates the point, reward is the (already clipped)
  velocity, and crossing either position bound terminates the episode.

Collision handling moves one axis at a time and clips motion just short of
any crossed wall, so agents slide along walls rather than sticking to them.
Along an axis a row sweeps [start, target + m] moving up or [target - m,
start] moving down (m is the wall margin), and meets a wall on line w at
its face w + m or w - m. A row moving down is handled mirrored, times -1,
which is exact, so that every row sweeps [start, target + m] toward its
face. One reach mask per axis marks the (row, wall) pairs whose face lies
in the row's swept interval and whose extent on the other axis holds the
row; a step visits only the walls some row reaches, and none when no row
reaches one. The wall tables, clamp bounds, goal and waypoints are arrays
built once per spec.

`env_step`, `termination_fn` and `expert_action` are shape-polymorphic: a
(B, S) batch of states steps (or steers) every row at once, each exactly as
it would alone, and a single (S,) state gives Python scalars for its
reward and terminal flag (or waypoint index). Evaluation and data
collection step all their live episodes in lockstep through one batched
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .rng import stream

__all__ = [
    "EnvSpec",
    "EnvError",
    "MAZE_LAYOUTS",
    "ENV_NAMES",
    "make_env_spec",
    "env_step",
    "reset_state",
    "termination_fn",
    "terminated",
    "terminated_batch",
    "expert_action",
    "is_success",
]

_WALL_MARGIN = 1e-3
MAZE_STEP = 0.3
_WAYPOINT_RADIUS = 0.35
_STEER_GAIN = 3.0


class EnvError(ValueError):
    """Invalid environment name, state or parameters."""


# Each layout: bounds (lo, hi) per axis, wall segments ((x0, y0), (x1, y1))
# (axis-aligned), start position, goal position, expert waypoints.
MAZE_LAYOUTS: dict[str, dict] = {
    "u": {
        "bounds": ((0.0, 0.0), (4.0, 4.0)),
        "walls": (
            ((0.0, 0.0), (4.0, 0.0)),
            ((0.0, 4.0), (4.0, 4.0)),
            ((0.0, 0.0), (0.0, 4.0)),
            ((4.0, 0.0), (4.0, 4.0)),
            ((0.0, 2.0), (2.6, 2.0)),
        ),
        "start": (0.5, 0.5),
        "goal": (0.5, 3.5),
        "waypoints": ((3.2, 0.6), (3.4, 3.3), (0.5, 3.5)),
    },
    "s-corridor": {
        "bounds": ((0.0, 0.0), (4.0, 6.0)),
        "walls": (
            ((0.0, 0.0), (4.0, 0.0)),
            ((0.0, 6.0), (4.0, 6.0)),
            ((0.0, 0.0), (0.0, 6.0)),
            ((4.0, 0.0), (4.0, 6.0)),
            ((0.0, 2.0), (2.6, 2.0)),
            ((1.4, 4.0), (4.0, 4.0)),
        ),
        "start": (0.5, 0.5),
        "goal": (0.5, 5.5),
        "waypoints": ((3.2, 0.6), (3.2, 3.2), (0.7, 3.2), (0.7, 5.5), (0.5, 5.5)),
    },
    "large-spiral": {
        "bounds": ((0.0, 0.0), (10.0, 10.0)),
        "walls": (
            ((0.0, 0.0), (10.0, 0.0)),
            ((0.0, 10.0), (10.0, 10.0)),
            ((0.0, 0.0), (0.0, 10.0)),
            ((10.0, 0.0), (10.0, 10.0)),
            # Outer ring, gap on the south side at x in (2, 3.4).
            ((2.0, 2.0), (2.0, 8.0)),
            ((2.0, 8.0), (8.0, 8.0)),
            ((8.0, 2.0), (8.0, 8.0)),
            ((3.4, 2.0), (8.0, 2.0)),
            # Inner ring, gap on the north side at x in (4, 5.2).
            ((4.0, 4.0), (4.0, 6.0)),
            ((4.0, 4.0), (6.0, 4.0)),
            ((6.0, 4.0), (6.0, 6.0)),
            ((5.2, 6.0), (6.0, 6.0)),
        ),
        "start": (1.0, 1.0),
        "goal": (5.0, 5.0),
        "waypoints": (
            (2.7, 1.0),
            (2.7, 3.0),
            (3.0, 7.0),
            (4.6, 7.0),
            (4.6, 5.2),
            (5.0, 5.0),
        ),
    },
}

ENV_NAMES = (
    "point_maze_u",
    "point_maze_s_corridor",
    "point_maze_large_spiral",
    "dense_chain",
)


@dataclass(frozen=True)
class EnvSpec:
    env_id: str  # "point_maze" or "dense_chain"
    name: str
    horizon: int
    obs_dim: int
    act_dim: int
    # point_maze fields
    layout: str | None = None
    walls: tuple = ()
    bounds: tuple | None = None
    start: tuple | None = None
    goal: tuple | None = None
    goal_radius: float = 0.5
    step_size: float = MAZE_STEP
    waypoints: tuple = ()
    # dense_chain fields
    chain_length: float = 5.0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise EnvError("horizon cap must be >= 1")
        if self.env_id == "point_maze" and self.goal_radius <= 0.0:
            raise EnvError("goal radius must be positive")

    @cached_property
    def _maze(self) -> _MazeTables:
        """The maze's read-only arrays, built on first use."""
        return _maze_tables(self)


class _MazeTables(NamedTuple):
    walls: tuple  # per axis, the (6, W) `_crossable_walls` table
    lo: np.ndarray  # (2,) lowest coordinates a step may end at
    hi: np.ndarray  # (2,) highest
    goal: np.ndarray  # (2,)
    goal_radius_sq: float
    waypoints: np.ndarray  # (K, 2)


def make_env_spec(name: str) -> EnvSpec:
    if name == "dense_chain":
        return EnvSpec(env_id="dense_chain", name=name, horizon=100, obs_dim=2, act_dim=1)
    if name.startswith("point_maze_"):
        layout = name[len("point_maze_") :].replace("_", "-")
        if layout in MAZE_LAYOUTS:
            cfg = MAZE_LAYOUTS[layout]
            return EnvSpec(
                env_id="point_maze",
                name=name,
                horizon=200,
                obs_dim=2,
                act_dim=2,
                layout=layout,
                walls=cfg["walls"],
                bounds=cfg["bounds"],
                start=cfg["start"],
                goal=cfg["goal"],
                waypoints=cfg["waypoints"],
            )
    raise EnvError(f"unknown environment {name!r}; expected one of {ENV_NAMES}")


def _crossable_walls(walls: tuple, axis: int) -> np.ndarray:
    """(6, W) table of the W walls a move along `axis` can cross, in layout
    order. With w the wall line and m the margin, its rows are the face a
    row meets, w + m moving up and -(w - m) moving down (mirrored, see
    `_maze_step`), the stop it clips to, w - m and -(w + m), and the wall's
    extent lo - m and hi + m on the other axis."""
    lines = []
    for (a, b) in walls:
        if a[axis] != b[axis]:
            continue  # a wall along the motion axis cannot be crossed sideways
        w_lo, w_hi = a[axis] - _WALL_MARGIN, a[axis] + _WALL_MARGIN
        o_lo = min(a[1 - axis], b[1 - axis]) - _WALL_MARGIN
        o_hi = max(a[1 - axis], b[1 - axis]) + _WALL_MARGIN
        lines.append((w_hi, -w_lo, w_lo, -w_hi, o_lo, o_hi))
    return np.array(lines, dtype=np.float64).reshape(-1, 6).T.copy()


def _maze_tables(spec: EnvSpec) -> _MazeTables:
    (lo_x, lo_y), (hi_x, hi_y) = spec.bounds
    tables = _MazeTables(
        walls=(_crossable_walls(spec.walls, 0), _crossable_walls(spec.walls, 1)),
        lo=np.array([lo_x + _WALL_MARGIN, lo_y + _WALL_MARGIN]),
        hi=np.array([hi_x - _WALL_MARGIN, hi_y - _WALL_MARGIN]),
        goal=np.array(spec.goal, dtype=np.float64),
        goal_radius_sq=spec.goal_radius**2,
        waypoints=np.array(spec.waypoints, dtype=np.float64).reshape(-1, 2),
    )
    for table in (*tables.walls, tables.lo, tables.hi, tables.goal, tables.waypoints):
        table.setflags(write=False)
    return tables


def _move_axis(pos, axis: int, up, sign, start, target, walls: np.ndarray, other) -> None:
    """Clip `pos[:, axis]`, each row's target along `axis`, against the
    walls the row crosses.

    `up`, `sign`, `start` and `target` are `_maze_step`'s (B, 2) mirrored
    moves, and `other` (B, 1) holds the rows' coordinates on the other
    axis. The reach mask picks each row's wall face, w + m moving up or
    -(w - m) moving down, and marks the (row, wall) pairs whose face lies
    in the row's swept interval [start, target + m] and whose extent holds
    the row: the rows beside a wall that start on its near side and would
    end at or past its line. Each row that reaches a wall then stops at
    the nearest face it reaches, whatever the layout order: the nearest
    face has the lowest stop, w - m moving up or -(w + m) moving down, so
    the row's target is clipped to the least stop over its reached walls.
    When no row reaches a wall nothing more runs.
    """
    face_up, face_down, stop_up, stop_down, o_lo, o_hi = walls
    up = up[:, axis, None]
    target = target[:, axis]
    face = np.where(up, face_up, face_down)
    reach = (
        (start[:, axis, None] <= face)
        & (face <= (target + _WALL_MARGIN)[:, None])
        & (o_lo <= other)
        & (other <= o_hi)
    )
    if np.count_nonzero(reach) == 0:
        return
    nearest = np.where(reach, np.where(up, stop_up, stop_down), np.inf).min(axis=1)
    np.multiply(
        sign[:, axis], np.minimum(target, nearest), out=pos[:, axis], where=reach.any(axis=1)
    )


def _maze_step(spec: EnvSpec, states: np.ndarray, actions: np.ndarray):
    """Move every row along x, then along y, then clamp to the bounds.

    Each axis a row moves down along is mirrored, times -1, so that every
    row moves up: its swept interval is [start, target + m] and the walls
    clip it with a minimum. Negation is exact and rounds symmetrically,
    so every comparison and clip has the bits of the unmirrored one.
    """
    maze = spec._maze
    delta = spec.step_size * actions
    pos = states + delta  # each row's unclipped target
    up = delta > 0.0
    sign = np.where(up, 1.0, -1.0)
    start, target = sign * states, sign * pos
    still = delta == 0.0
    np.copyto(start, np.nan, where=still)  # a row that does not move reaches no wall
    _move_axis(pos, 0, up, sign, start, target, maze.walls[0], states[:, 1:])
    _move_axis(pos, 1, up, sign, start, target, maze.walls[1], pos[:, :1])
    np.copyto(pos, states, where=still)  # and keeps its coordinate exactly
    np.maximum(pos, maze.lo, out=pos)
    np.minimum(pos, maze.hi, out=pos)
    done = _maze_done(spec, pos)
    return pos, np.where(done, 0.0, -1.0), done


def _chain_step(spec: EnvSpec, states: np.ndarray, actions: np.ndarray):
    v = np.clip(states[:, 1] + 0.1 * actions[:, 0], -1.0, 1.0)
    x = states[:, 0] + 0.1 * v
    return np.stack([x, v], axis=1), v, np.abs(x) > spec.chain_length


def env_step(spec: EnvSpec, state, action):
    """Ground-truth transitions, shape-polymorphic like `termination_fn`.

    A (B, S) state with a (B, A) action gives (B, S) next states, (B,)
    rewards and (B,) terminal flags, each row stepped on its own. A (S,)
    state with a (A,) action gives (next_state, float reward, bool
    terminal). Actions are clipped to [-1, 1]; a non-finite state or a
    shape that does not match the spec raises EnvError.
    """
    state = np.asarray(state, dtype=np.float64)
    if not np.isfinite(state).all():
        raise EnvError(f"non-finite state {state!r}")
    # the bits of np.clip(action, -1.0, 1.0), NaN included, at less cost
    action = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), -1.0), 1.0)
    if (
        state.ndim not in (1, 2)
        or action.ndim != state.ndim
        or state.shape[-1] != spec.obs_dim
        or action.shape[:-1] != state.shape[:-1]
        or action.shape[-1] != spec.act_dim
    ):
        raise EnvError("state/action dimension mismatch")
    step = _maze_step if spec.env_id == "point_maze" else _chain_step
    if state.ndim == 1:
        next_states, rewards, done = step(spec, state[None], action[None])
        return next_states[0], float(rewards[0]), bool(done[0])
    return step(spec, state, action)


def reset_state(spec: EnvSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.env_id == "point_maze":
        jitter = rng.uniform(-0.25, 0.25, size=2)
        return np.asarray(spec.start, dtype=np.float64) + jitter
    return np.array([rng.uniform(-0.1, 0.1), 0.0], dtype=np.float64)


def _maze_done(spec: EnvSpec, pos: np.ndarray):
    """Goal-disc test on the last axis: bool for (2,), (B,) bools for (B, 2)."""
    maze = spec._maze
    d = pos - maze.goal
    np.square(d, out=d)
    return d[..., 0] + d[..., 1] <= maze.goal_radius_sq


def terminated(spec: EnvSpec, state) -> bool:
    state = np.asarray(state, dtype=np.float64)
    if spec.env_id == "point_maze":
        return _maze_done(spec, state)
    return abs(float(state[0])) > spec.chain_length


def terminated_batch(spec: EnvSpec, states: np.ndarray) -> np.ndarray:
    """Vectorized termination test over rows of `states`."""
    states = np.asarray(states, dtype=np.float64)
    if spec.env_id == "point_maze":
        return _maze_done(spec, states)
    return np.abs(states[:, 0]) > spec.chain_length


def termination_fn(spec: EnvSpec):
    """The exact termination rule as a shape-polymorphic closure.

    (S,) input -> bool; (B, S) input -> bool array of shape (B,).
    """

    def fn(state):
        state = np.asarray(state, dtype=np.float64)
        if state.ndim == 2:
            return terminated_batch(spec, state)
        return terminated(spec, state)

    return fn


def expert_action(spec: EnvSpec, state, waypoint_idx):
    """Scripted controller action and updated waypoint index.

    Shape-polymorphic like `env_step`: a (S,) state with an int index gives
    (action, int), and a (B, S) batch with a (B,) index array gives (B, A)
    actions and (B,) indices, each row as it would go alone. A row advances
    past every waypoint within `_WAYPOINT_RADIUS` of it, up to the last.
    """
    pos = np.atleast_2d(np.asarray(state, dtype=np.float64))
    if spec.env_id == "dense_chain":
        action, idx = np.ones((len(pos), 1)), np.zeros(len(pos), dtype=np.intp)
    else:
        waypoints = spec._maze.waypoints
        idx = np.array(waypoint_idx, dtype=np.intp).reshape(-1)
        rows = np.flatnonzero(idx < len(waypoints) - 1)
        while rows.size:
            wp = waypoints[idx[rows]]
            near = np.hypot(wp[:, 0] - pos[rows, 0], wp[:, 1] - pos[rows, 1]) <= _WAYPOINT_RADIUS
            rows = rows[near]
            idx[rows] += 1
            rows = rows[idx[rows] < len(waypoints) - 1]
        action = np.clip(_STEER_GAIN * (waypoints[idx] - pos), -1.0, 1.0)
    if np.ndim(state) == 1:
        return action[0], int(idx[0])
    return action, idx


def is_success(spec: EnvSpec, final_state, reached_terminal: bool) -> bool:
    """Task success: goal-disc entry for mazes, forward-bound exit for chains."""
    if not reached_terminal:
        return False
    if spec.env_id == "point_maze":
        return True
    return float(np.asarray(final_state)[0]) > spec.chain_length
