"""Environment dynamics, scripted collectors, normalization and the LEQD format."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leq_lab import datasets, envs
from leq_lab.datasets import (
    DatasetError,
    DatasetFormatError,
    OfflineDataset,
    Trajectory,
    collect_dataset,
    load_dataset,
    normalize_rewards,
    save_dataset,
)
from leq_lab.envs import EnvError, env_step, make_env_spec, reset_state
from leq_lab.rng import stream

from . import _oracles


def maze():
    return make_env_spec("point_maze_u")


def chain():
    return make_env_spec("dense_chain")


class TestEnvSpecs:
    def test_all_names_construct(self):
        for name in envs.ENV_NAMES:
            spec = make_env_spec(name)
            assert spec.name == name
            assert spec.horizon >= 1

    def test_unknown_name(self):
        with pytest.raises(EnvError, match="unknown environment"):
            make_env_spec("cartpole")

    def test_horizons_and_dims(self):
        m, c = maze(), chain()
        assert (m.horizon, m.obs_dim, m.act_dim) == (200, 2, 2)
        assert (c.horizon, c.obs_dim, c.act_dim) == (100, 2, 1)
        assert m.goal_radius == 0.5


class TestEnvStep:
    def test_goal_center_terminates(self):
        spec = maze()
        for action in ([0.0, 0.0], [1.0, -1.0]):
            _, reward, done = env_step(spec, np.array(spec.goal), action)
            assert done and reward == 0.0

    def test_zero_action_stays_put(self):
        spec = maze()
        s = np.array([1.0, 1.0])
        s2, reward, done = env_step(spec, s, np.zeros(2))
        assert np.array_equal(s2, s)
        assert reward == -1.0 and not done

    def test_chain_full_throttle_monotone(self):
        # double integrator: v_k = min(0.1 k, 1), x strictly increasing
        spec = chain()
        s = np.array([0.0, 0.0])
        xs = []
        for k in range(10):
            s, reward, done = env_step(spec, s, np.array([1.0]))
            assert s[1] == pytest.approx(min(0.1 * (k + 1), 1.0))
            assert reward == s[1]
            xs.append(s[0])
        assert np.all(np.diff(xs) > 0)

    def test_chain_reward_is_clipped_velocity(self):
        spec = chain()
        s2, reward, _ = env_step(spec, np.array([0.0, 0.95]), np.array([1.0]))
        assert s2[1] == 1.0 and reward == 1.0

    def test_action_clipped_to_unit_box(self):
        spec = maze()
        s = np.array([1.0, 1.0])
        big, _, _ = env_step(spec, s, np.array([5.0, 0.0]))
        unit, _, _ = env_step(spec, s, np.array([1.0, 0.0]))
        assert np.array_equal(big, unit)

    def test_wall_blocks_and_slides(self):
        spec = maze()
        # dividing wall spans y=2, x in [0, 2.6]; approaching from below
        s = np.array([1.0, 1.85])
        up, _, _ = env_step(spec, s, np.array([0.0, 1.0]))
        assert up[1] == pytest.approx(2.0 - 1e-3)
        diag, _, _ = env_step(spec, s, np.array([1.0, 1.0]))
        assert diag[0] == pytest.approx(1.3)  # free axis keeps its motion
        assert diag[1] == pytest.approx(2.0 - 1e-3)

    def test_gap_past_wall_end_is_open(self):
        spec = maze()
        s = np.array([3.0, 1.85])  # x > 2.6, no wall overhead
        up, _, _ = env_step(spec, s, np.array([0.0, 1.0]))
        assert up[1] == pytest.approx(2.15)

    def test_bounds_clamp(self):
        spec = maze()
        out, _, _ = env_step(spec, np.array([0.1, 0.5]), np.array([-1.0, 0.0]))
        assert out[0] == pytest.approx(1e-3)

    def test_bad_states_rejected(self):
        spec = maze()
        with pytest.raises(EnvError, match="non-finite"):
            env_step(spec, np.array([np.nan, 0.0]), np.zeros(2))
        with pytest.raises(EnvError, match="dimension"):
            env_step(spec, np.zeros(3), np.zeros(2))
        with pytest.raises(EnvError, match="dimension"):
            env_step(spec, np.zeros(2), np.zeros(1))
        with pytest.raises(EnvError, match="non-finite"):
            env_step(spec, np.array([[1.0, 1.0], [np.inf, 1.0]]), np.zeros((2, 2)))
        for states, actions in (
            (np.zeros((3, 2)), np.zeros((2, 2))),
            (np.zeros((3, 2)), np.zeros((3, 1))),
            (np.zeros((3, 3)), np.zeros((3, 2))),
            (np.zeros(2), np.zeros((1, 2))),
            (np.zeros((1, 2)), np.zeros(2)),
            (np.zeros((1, 1, 2)), np.zeros((1, 1, 2))),
        ):
            with pytest.raises(EnvError, match="dimension"):
                env_step(spec, states, actions)


def _edge_coordinates(spec) -> list[float]:
    """Coordinates where a maze step decides something: each wall line and
    wall end, each exactly and one margin to either side, plus the bounds."""
    m = envs._WALL_MARGIN
    values = {0.0, -0.0}
    for (a, b) in spec.walls:
        for c in (*a, *b):
            values.update((c, c - m, c + m))
    for c in (*spec.bounds[0], *spec.bounds[1]):
        values.update((c + m, c - m))
    return sorted(values)


# walls closer together than a step, so that one move reaches several, in
# bounds around the origin, so that the clamp keeps negative coordinates
CLOSE_WALLS = dataclasses.replace(
    maze(),
    name="close_walls",
    bounds=((-2.0, -2.0), (2.0, 2.0)),
    walls=(
        ((-0.2, -1.0), (-0.2, 1.0)),
        ((0.0, -1.0), (0.0, 1.0)),
        ((0.1, -0.5), (0.1, 0.5)),
        ((-1.0, 0.05), (1.0, 0.05)),
        ((-0.5, 0.0), (0.5, 0.0)),
        ((0.0015, 0.5), (1.0, 0.5)),
    ),
    goal=(1.5, 1.5),
)


@st.composite
def env_batches(draw):
    """(spec, states, actions, poisoned): rows on wall lines and ends, zero,
    past-unit, infinite and NaN action components, B from 1; poisoned puts
    one NaN in the states."""
    name = draw(st.sampled_from((*envs.ENV_NAMES, CLOSE_WALLS.name)))
    spec = CLOSE_WALLS if name == CLOSE_WALLS.name else make_env_spec(name)
    B = draw(st.integers(1, 12))
    if spec.env_id == "point_maze":
        (lo_x, lo_y), (hi_x, hi_y) = spec.bounds
        edges = _edge_coordinates(spec)
        coord = st.one_of(
            st.sampled_from(edges), st.floats(min(lo_x, lo_y) - 0.5, max(hi_x, hi_y) + 0.5)
        )
        states = [[draw(coord), draw(coord)] for _ in range(B)]
    else:
        x = st.one_of(st.sampled_from([0.0, -0.0, 4.95, -4.95, 5.0, -5.0]), st.floats(-6, 6))
        v = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.95]), st.floats(-1.5, 1.5))
        states = [[draw(x), draw(v)] for _ in range(B)]
    component = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.5, -3.0, 1e-300, np.inf, -np.inf, np.nan, -np.nan]),
        st.floats(-2.0, 2.0),
    )
    actions = [[draw(component) for _ in range(spec.act_dim)] for _ in range(B)]
    states, actions = np.array(states, dtype=np.float64), np.array(actions, dtype=np.float64)
    poisoned = draw(st.integers(0, 9)) == 0
    if poisoned:
        states[draw(st.integers(0, B - 1)), draw(st.integers(0, 1))] = np.nan
    return spec, states, actions, poisoned


@st.composite
def expert_batches(draw):
    """(spec, (B, 2) positions, (B,) waypoint indices) on every maze layout,
    with positions on, near and far from the waypoints."""
    spec = make_env_spec("point_maze_" + draw(st.sampled_from(sorted(envs.MAZE_LAYOUTS))).replace("-", "_"))
    (lo_x, lo_y), (hi_x, hi_y) = spec.bounds
    B = draw(st.integers(1, 12))
    near = st.tuples(
        st.sampled_from(spec.waypoints),
        st.sampled_from([0.0, envs._WAYPOINT_RADIUS, -envs._WAYPOINT_RADIUS]) | st.floats(-0.6, 0.6),
        st.sampled_from([0.0]) | st.floats(-0.6, 0.6),
    ).map(lambda c: [c[0][0] + c[1], c[0][1] + c[2]])
    anywhere = st.tuples(st.floats(lo_x, hi_x), st.floats(lo_y, hi_y)).map(list)
    states = np.array(draw(st.lists(near | anywhere, min_size=B, max_size=B)), dtype=np.float64)
    idx = np.array(draw(st.lists(st.integers(0, len(spec.waypoints) - 1), min_size=B, max_size=B)))
    return spec, states, idx


def _same_bits(x, y) -> bool:
    """Same shape, dtype and bytes: NaN positions, NaN signs and zero signs included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestBatchedStepAgainstScalarOracle:
    @settings(max_examples=400, deadline=None)
    @given(env_batches())
    def test_batched_step_equals_the_per_row_oracle(self, case):
        spec, states, actions, poisoned = case
        if poisoned:
            with pytest.raises(EnvError, match="non-finite"):
                env_step(spec, states, actions)
            return
        next_states, rewards, done = env_step(spec, states, actions)
        B = states.shape[0]
        assert next_states.shape == (B, spec.obs_dim)
        assert rewards.shape == done.shape == (B,) and done.dtype == bool
        for row in range(B):
            want_s, want_r, want_done = _oracles.scalar_env_step(spec, states[row], actions[row])
            assert _same_bits(next_states[row], want_s)
            assert _same_bits(rewards[row], np.float64(want_r))
            assert done[row] == want_done
            one_s, one_r, one_done = env_step(spec, states[row], actions[row])
            assert one_s.shape == (spec.obs_dim,) and _same_bits(one_s, want_s)
            assert type(one_r) is float and _same_bits(np.float64(one_r), np.float64(want_r))
            assert type(one_done) is bool and one_done == want_done

    def test_a_row_that_does_not_move_keeps_a_negative_zero(self):
        spec = CLOSE_WALLS  # whose clamp keeps a coordinate of -0.0
        states = np.array([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0]])
        actions = np.array([[0.0, 0.5], [0.5, 0.0], [-0.0, 0.0]])
        next_states, _, _ = env_step(spec, states, actions)
        assert np.signbit(next_states[[0, 2], 0]).all() and np.signbit(next_states[1:, 1]).all()
        for row in range(3):
            want, _, _ = _oracles.scalar_env_step(spec, states[row], actions[row])
            assert _same_bits(next_states[row], want)

    @pytest.mark.parametrize("order", [1, -1], ids=["nearer-last", "nearer-first"])
    def test_a_row_stops_at_the_nearest_of_two_walls_closer_than_the_margin(self, order):
        # walls at x = 0 and x = 0.0005: a row stepping left from x = 0.2 meets
        # the face of the nearer one, 0.0005 + m, in either layout order
        walls = (((0.0, -1.0), (0.0, 1.0)), ((0.0005, -1.0), (0.0005, 1.0)))[::order]
        spec = dataclasses.replace(CLOSE_WALLS, walls=walls)
        states, actions = np.array([[0.2, 0.8], [-0.2, 0.8]]), np.array([[-1.0, 0.0], [1.0, 0.0]])
        next_states, _, _ = env_step(spec, states, actions)
        m = envs._WALL_MARGIN
        assert next_states[0, 0] == 0.0005 + m and next_states[1, 0] == -m
        for row in range(2):
            want, _, _ = _oracles.scalar_env_step(spec, states[row], actions[row])
            assert _same_bits(next_states[row], want)

    def test_moving_onto_a_wall_line_from_a_margin_away(self):
        # a start exactly one margin below the dividing wall y = 2 cannot cross it
        spec = maze()
        m = envs._WALL_MARGIN
        states = np.array([[1.0, 2.0 - m], [1.0, 2.0 + m], [3.0, 2.0 - m]])
        actions = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0]])
        next_states, _, _ = env_step(spec, states, actions)
        assert next_states[0, 1] == 2.0 - m and next_states[1, 1] == 2.0 + m
        assert next_states[2, 1] == 2.0 - m + spec.step_size  # past the wall's end


class TestTermination:
    def test_terminal_flag_matches_termination_fn(self):
        """env_step's done flag and the standalone rule agree on random transitions."""
        rng = stream(5, "term")
        for spec in (maze(), chain()):
            fn = envs.termination_fn(spec)
            for _ in range(200):
                if spec.env_id == "point_maze":
                    s = rng.uniform(0.2, 3.8, size=2)
                else:
                    s = np.array([rng.uniform(-5.2, 5.2), rng.uniform(-1, 1)])
                    if envs.terminated(spec, s):
                        continue  # stepping from a terminal chain state is out of contract
                a = rng.uniform(-1, 1, size=spec.act_dim)
                s2, _, done = env_step(spec, s, a)
                assert done == bool(fn(s2))

    def test_batch_matches_scalar(self):
        rng = stream(6, "term.batch")
        for spec in (maze(), chain()):
            states = rng.uniform(-6, 6, size=(64, 2))
            batch = envs.terminated_batch(spec, states)
            fn = envs.termination_fn(spec)
            assert batch.shape == (64,)
            assert np.array_equal(batch, fn(states))
            for i in range(64):
                assert batch[i] == envs.terminated(spec, states[i])
                assert batch[i] == bool(fn(states[i]))

    def test_is_success_conventions(self):
        m, c = maze(), chain()
        assert envs.is_success(m, np.array(m.goal), reached_terminal=True)
        assert not envs.is_success(m, np.array(m.goal), reached_terminal=False)
        # chain: only the forward bound counts as success
        assert envs.is_success(c, np.array([5.3, 1.0]), reached_terminal=True)
        assert not envs.is_success(c, np.array([-5.3, -1.0]), reached_terminal=True)


class TestResetState:
    def test_maze_jitter_box(self):
        spec = maze()
        rng = stream(0, "reset")
        for _ in range(50):
            s = reset_state(spec, rng)
            assert np.all(np.abs(s - np.array(spec.start)) <= 0.25)

    def test_chain_reset(self):
        spec = chain()
        rng = stream(0, "reset")
        for _ in range(50):
            s = reset_state(spec, rng)
            assert abs(s[0]) <= 0.1 and s[1] == 0.0

    def test_deterministic(self):
        spec = maze()
        a = reset_state(spec, stream(3, "r"))
        b = reset_state(spec, stream(3, "r"))
        assert np.array_equal(a, b)


class TestExpert:
    def test_maze_expert_reaches_goal(self):
        ds = collect_dataset(maze(), "expert", 10, seed=0)
        terminal = sum(t.ends_terminal for t in ds.trajectories)
        assert terminal >= 9

    def test_chain_expert_is_bang_bang(self):
        spec = chain()
        action, idx = envs.expert_action(spec, np.array([0.3, 0.2]), 4)
        assert np.array_equal(action, [1.0]) and idx == 0

    def test_waypoint_advances_inside_radius(self):
        spec = maze()
        on_first = np.asarray(spec.waypoints[0], dtype=np.float64)
        _, idx = envs.expert_action(spec, on_first, 0)
        assert idx == 1
        # final waypoint never advances past the end
        _, idx = envs.expert_action(spec, np.asarray(spec.waypoints[-1]), len(spec.waypoints) - 1)
        assert idx == len(spec.waypoints) - 1

    def test_steering_is_proportional_and_clipped(self):
        spec = maze()
        pos = np.array([2.7, 0.5])  # outside waypoint 0's radius
        action, idx = envs.expert_action(spec, pos, 0)
        assert idx == 0
        expected = np.clip(3.0 * (np.asarray(spec.waypoints[0]) - pos), -1, 1)
        np.testing.assert_allclose(action, expected)

    def test_batched_chain_expert_is_ones_at_index_0(self):
        states = np.array([[0.3, 0.2], [-4.0, -1.0], [0.0, 0.0]])
        actions, idx = envs.expert_action(chain(), states, np.array([4, 0, 2]))
        assert actions.shape == (3, 1) and np.array_equal(actions, np.ones((3, 1)))
        assert np.array_equal(idx, [0, 0, 0])

    def test_a_row_advances_several_close_waypoints_in_one_call(self):
        spec = envs.EnvSpec(
            env_id="point_maze",
            name="close_waypoints",
            horizon=10,
            obs_dim=2,
            act_dim=2,
            bounds=((0.0, 0.0), (4.0, 4.0)),
            start=(1.0, 1.0),
            goal=(3.0, 3.0),
            waypoints=((1.0, 1.0), (1.2, 1.0), (1.4, 1.0), (3.0, 3.0)),
        )
        states = np.array([[1.1, 1.0], [1.0, 1.0], [2.0, 2.0], [1.3, 1.0]])
        given_idx = np.array([0, 0, 0, 1])
        actions, idx = envs.expert_action(spec, states, given_idx)
        # 0.1, 0.1 and 0.3 from the first three waypoints: all passed in one call
        assert np.array_equal(idx, [3, 2, 0, 3])
        assert np.array_equal(given_idx, [0, 0, 0, 1])  # the caller's indices stay as they were
        for row in range(len(states)):
            want_a, want_idx = _oracles.scalar_expert_action(spec, states[row], int(given_idx[row]))
            assert _same_bits(actions[row], want_a) and idx[row] == want_idx

    @settings(max_examples=200, deadline=None)
    @given(expert_batches())
    def test_batched_expert_equals_the_scalar_call_per_row(self, case):
        spec, states, given_idx = case
        actions, idx = envs.expert_action(spec, states, given_idx)
        assert actions.shape == (len(states), spec.act_dim) and idx.shape == (len(states),)
        for row in range(len(states)):
            want_a, want_idx = _oracles.scalar_expert_action(spec, states[row], int(given_idx[row]))
            one_a, one_idx = envs.expert_action(spec, states[row], int(given_idx[row]))
            assert type(one_idx) is int and one_idx == idx[row] == want_idx
            assert one_a.shape == (spec.act_dim,)
            assert _same_bits(actions[row], want_a) and _same_bits(one_a, want_a)

    def test_chain_expert_beats_random(self):
        spec = chain()
        expert = collect_dataset(spec, "expert", 5, seed=0).returns().mean()
        random = collect_dataset(spec, "random", 5, seed=0).returns().mean()
        assert expert > random


class TestCollect:
    def test_deterministic_bytes(self, tmp_path):
        spec = maze()
        p1, p2 = tmp_path / "a.leqd", tmp_path / "b.leqd"
        save_dataset(collect_dataset(spec, "mixed", 6, seed=11), p1)
        save_dataset(collect_dataset(spec, "mixed", 6, seed=11), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mixed_alternates_collectors(self):
        ds = collect_dataset(maze(), "mixed", 10, seed=3)
        even = [ds.trajectories[i].ends_terminal for i in range(0, 10, 2)]
        odd = [ds.trajectories[i].ends_terminal for i in range(1, 10, 2)]
        # noisy-expert trajectories reach the goal; random walks do not
        assert sum(even) >= 4
        assert sum(odd) <= 1

    def test_metadata(self):
        ds = collect_dataset(maze(), "mixed", 10, seed=3)
        md = ds.metadata
        assert md["env"] == "point_maze_u" and md["collector"] == "mixed"
        assert md["seed"] == 3 and md["n_trajectories"] == 10
        n_success = sum(
            envs.is_success(maze(), t.states[-1], t.ends_terminal) for t in ds.trajectories
        )
        assert md["success_rate"] == n_success / 10

    def test_horizon_override(self):
        ds = collect_dataset(maze(), "random", 4, seed=0, horizon=5)
        assert all(len(t) <= 5 for t in ds.trajectories)

    @pytest.mark.parametrize("collector", datasets.COLLECTORS)
    @pytest.mark.parametrize("env", envs.ENV_NAMES)
    def test_lockstep_bytes_equal_one_trajectory_at_a_time(self, env, collector, tmp_path):
        spec = make_env_spec(env)
        lockstep, alone = tmp_path / "lockstep.leqd", tmp_path / "alone.leqd"
        save_dataset(collect_dataset(spec, collector, 9, seed=4), lockstep)
        save_dataset(_oracles.loop_collect_dataset(spec, collector, 9, seed=4), alone)
        assert lockstep.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("n, horizon", [(9, 1), (9, 5), (1, None)])
    @pytest.mark.parametrize("collector", datasets.COLLECTORS)
    @pytest.mark.parametrize("env", envs.ENV_NAMES)
    def test_lockstep_bytes_equal_the_loop_at_short_horizons_and_one_trajectory(
        self, env, collector, n, horizon, tmp_path
    ):
        spec = make_env_spec(env)
        lockstep, alone = tmp_path / "lockstep.leqd", tmp_path / "alone.leqd"
        save_dataset(collect_dataset(spec, collector, n, seed=7, horizon=horizon), lockstep)
        save_dataset(_oracles.loop_collect_dataset(spec, collector, n, seed=7, horizon=horizon), alone)
        assert lockstep.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize(
        "env, rows, digest",
        [
            ("point_maze_u", 11603, "58218be0c92fc152063cc670846d32886531ae76e5b41552f59c35be085e16fe"),
            ("dense_chain", 7766, "df5bd2d7c76487ce9e2619f5f2ddf58944a5e4fa100197bda87f49a518fb14e9"),
            (
                "point_maze_large_spiral",
                12200,
                "5f600e7d0907abc2f349c2682be985d4d74998b49fea6ac0b566d9d645e66cd1",
            ),
        ],
    )
    def test_benchmark_datasets_keep_their_golden_digest(self, env, rows, digest, tmp_path):
        dataset = collect_dataset(make_env_spec(env), "mixed", 100, seed=0)
        save_dataset(dataset, tmp_path / "d.leqd")
        assert dataset.n_transitions == rows
        assert hashlib.sha256((tmp_path / "d.leqd").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("act_dim", [1, 2])
    def test_one_draw_of_a_whole_horizon_equals_a_draw_per_step(self, act_dim):
        # the premise of drawing each trajectory's noise up front
        H = 37
        for draw in (lambda g, size: g.uniform(-1.0, 1.0, size), lambda g, size: g.normal(0.0, 0.5, size)):
            whole = draw(stream(3, "premise", 1), (H, act_dim))
            per_step_stream = stream(3, "premise", 1)
            per_step = np.array([draw(per_step_stream, act_dim) for _ in range(H)])
            assert _same_bits(whole, per_step)

    def test_each_step_is_one_batched_expert_and_env_call(self, monkeypatch):
        calls = {"expert_action": [], "env_step": []}
        for name in calls:
            real = getattr(datasets, name)

            def spy(spec, states, *args, _real=real, _name=name):
                calls[_name].append(np.shape(states))
                return _real(spec, states, *args)

            monkeypatch.setattr(datasets, name, spy)
        ds = collect_dataset(maze(), "mixed", 10, seed=3)
        steps = max(len(t) for t in ds.trajectories)
        assert len(calls["env_step"]) == steps
        assert 1 <= len(calls["expert_action"]) <= steps
        assert all(len(shape) == 2 for shape in calls["env_step"] + calls["expert_action"])
        assert calls["env_step"][0] == (10, 2) and calls["expert_action"][0] == (5, 2)

    def test_bad_arguments(self):
        with pytest.raises(DatasetError, match="unknown collector"):
            collect_dataset(maze(), "adversarial", 1, seed=0)
        with pytest.raises(DatasetError, match="n_trajectories"):
            collect_dataset(maze(), "random", 0, seed=0)
        for horizon in (0, -3):
            with pytest.raises(DatasetError, match="horizon"):
                collect_dataset(maze(), "random", 2, seed=0, horizon=horizon)


def make_traj(rewards, terminal=False, obs_dim=2, act_dim=1):
    rewards = np.asarray(rewards, dtype=np.float64)
    n = rewards.shape[0]
    return Trajectory(
        states=np.arange((n + 1) * obs_dim, dtype=np.float64).reshape(n + 1, obs_dim),
        actions=np.zeros((n, act_dim)),
        rewards=rewards,
        ends_terminal=terminal,
    )


class TestTrajectoryValidation:
    def test_minimum_length(self):
        with pytest.raises(DatasetError, match="at least one"):
            make_traj([])

    def test_length_mismatch(self):
        with pytest.raises(DatasetError, match="lengths disagree"):
            Trajectory(
                states=np.zeros((2, 2)), actions=np.zeros((3, 1)),
                rewards=np.zeros(3), ends_terminal=False,
            )

    def test_non_finite_rejected(self):
        with pytest.raises(DatasetError, match="non-finite"):
            make_traj([1.0, np.inf])

    def test_action_bounds(self):
        with pytest.raises(DatasetError, match=r"\[-1, 1\]"):
            Trajectory(
                states=np.zeros((2, 2)), actions=np.array([[1.1]]),
                rewards=np.zeros(1), ends_terminal=False,
            )

    def test_arrays_frozen(self):
        t = make_traj([1.0, 2.0])
        for arr in (t.states, t.actions, t.rewards):
            with pytest.raises(ValueError):
                arr[0] = 9.0

    def test_return_and_transitions(self):
        t = make_traj([1.0, 2.0, 4.0], terminal=True)
        assert t.ret == 7.0 and len(t) == 3
        ds = OfflineDataset(trajectories=(t,), obs_dim=2, act_dim=1)
        _, _, rewards, next_states, terminals = ds.flat_arrays()
        assert terminals.tolist() == [False, False, True]
        assert np.array_equal(next_states[1], t.states[2])
        assert rewards[2] == 4.0


class TestOfflineDataset:
    def test_dim_consistency(self):
        with pytest.raises(DatasetError, match="dims disagree"):
            OfflineDataset(trajectories=(make_traj([1.0]),), obs_dim=3, act_dim=1)

    def test_unknown_normalization(self):
        with pytest.raises(DatasetError, match="unknown normalization"):
            OfflineDataset(trajectories=(), obs_dim=2, act_dim=1, reward_normalization="zscore")

    def test_flat_arrays_consistency(self):
        ds = collect_dataset(maze(), "mixed", 4, seed=1)
        states, actions, rewards, next_states, terminals = ds.flat_arrays()
        assert states.shape[0] == ds.n_transitions == actions.shape[0]
        pos = 0
        for t in ds.trajectories:
            n = len(t)
            assert np.array_equal(states[pos : pos + n], t.states[:-1])
            assert np.array_equal(next_states[pos : pos + n], t.states[1:])
            flags = terminals[pos : pos + n]
            assert flags[-1] == t.ends_terminal and not flags[:-1].any()
            pos += n
        assert pos == states.shape[0]

    def test_empty_dataset(self):
        ds = OfflineDataset(trajectories=(), obs_dim=2, act_dim=1)
        arrays = ds.flat_arrays()
        assert ds.n_transitions == 0
        assert arrays[0].shape == (0, 2) and arrays[1].shape == (0, 1)
        assert ds.returns().shape == (0,)


class TestNormalize:
    def test_sparse_shift(self):
        # {0, 1} sparse rewards become -1 per step and 0 on the terminal one
        traj = make_traj([0.0, 0.0, 1.0], terminal=True)
        ds = OfflineDataset(trajectories=(traj,), obs_dim=2, act_dim=1)
        out = normalize_rewards(ds, "sparse_shift")
        np.testing.assert_array_equal(out.trajectories[0].rewards, [-1.0, -1.0, 0.0])
        assert out.reward_normalization == "sparse_shift"

    def test_minmax_divides_by_spread(self):
        ds = OfflineDataset(
            trajectories=(make_traj([0.0, 0.0]), make_traj([60.0, 40.0])),
            obs_dim=2, act_dim=1,
        )
        out = normalize_rewards(ds, "minmax_return")
        np.testing.assert_allclose(out.trajectories[1].rewards, [0.6, 0.4])
        np.testing.assert_allclose(out.returns(), [0.0, 1.0])

    def test_none_is_identity(self):
        ds = OfflineDataset(trajectories=(make_traj([1.0]),), obs_dim=2, act_dim=1)
        assert normalize_rewards(ds, "none") is ds

    def test_zero_spread_rejected(self):
        same = (make_traj([1.0, 2.0]), make_traj([3.0]))
        ds = OfflineDataset(trajectories=same, obs_dim=2, act_dim=1)
        with pytest.raises(DatasetError, match="distinct returns"):
            normalize_rewards(ds, "minmax_return")
        single = OfflineDataset(trajectories=(make_traj([1.0]),), obs_dim=2, act_dim=1)
        with pytest.raises(DatasetError, match="2 trajectories"):
            normalize_rewards(single, "minmax_return")

    def test_double_normalization_rejected(self):
        ds = OfflineDataset(trajectories=(make_traj([1.0]),), obs_dim=2, act_dim=1)
        out = normalize_rewards(ds, "sparse_shift")
        with pytest.raises(DatasetError, match="already normalized"):
            normalize_rewards(out, "minmax_return")

    def test_bad_mode(self):
        ds = OfflineDataset(trajectories=(), obs_dim=2, act_dim=1)
        with pytest.raises(DatasetError, match="unknown normalization"):
            normalize_rewards(ds, "whiten")


def datasets_equal(a: OfflineDataset, b: OfflineDataset) -> bool:
    if (a.obs_dim, a.act_dim, a.reward_normalization) != (
        b.obs_dim, b.act_dim, b.reward_normalization,
    ):
        return False
    if a.metadata != b.metadata or len(a.trajectories) != len(b.trajectories):
        return False
    return all(
        np.array_equal(x.states, y.states)
        and np.array_equal(x.actions, y.actions)
        and np.array_equal(x.rewards, y.rewards)
        and x.ends_terminal == y.ends_terminal
        for x, y in zip(a.trajectories, b.trajectories)
    )


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = collect_dataset(maze(), "mixed", 6, seed=2)
        path = tmp_path / "d.leqd"
        save_dataset(ds, path)
        assert datasets_equal(load_dataset(path), ds)

    def test_empty_round_trip(self, tmp_path):
        ds = OfflineDataset(trajectories=(), obs_dim=2, act_dim=1)
        path = tmp_path / "empty.leqd"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.trajectories == () and loaded.obs_dim == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.leqd"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DatasetFormatError, match="bad magic"):
            load_dataset(path)

    def test_corruption_fails_checksum(self, tmp_path):
        ds = collect_dataset(chain(), "random", 2, seed=0)
        path = tmp_path / "d.leqd"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="checksum"):
            load_dataset(path)

    @staticmethod
    def _reseal(body: bytes) -> bytes:
        import struct as _struct
        import zlib as _zlib

        return body + _struct.pack("<I", _zlib.crc32(body) & 0xFFFFFFFF)

    def test_truncated_file(self, tmp_path):
        # the header promises a trajectory the arrays do not contain
        header = {
            "format": "leq-lab-dataset", "version": 2, "obs_dim": 2, "act_dim": 1,
            "reward_normalization": "none", "metadata": {}, "lengths": [1], "terminals": [False],
        }
        empty = {"states": [], "actions": [], "rewards": []}
        path = tmp_path / "trunc.leqd"
        path.write_bytes(_oracles.container_file(b"LEQD", header, empty))
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        ds = OfflineDataset(trajectories=(), obs_dim=2, act_dim=1)
        path = tmp_path / "d.leqd"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(self._reseal(blob[:-4] + b"junk"))
        with pytest.raises(DatasetFormatError, match="trailing bytes"):
            load_dataset(path)

    def test_unsupported_version(self, tmp_path):
        ds = OfflineDataset(trajectories=(), obs_dim=2, act_dim=1)
        path = tmp_path / "d.leqd"
        save_dataset(ds, path)
        magic, header, body = _oracles.container_parts(path.read_bytes())
        path.write_bytes(_oracles.container_bytes(magic, {**header, "version": 99}, body))
        with pytest.raises(DatasetFormatError, match="unsupported version"):
            load_dataset(path)

    def test_loaded_arrays_are_frozen(self, tmp_path):
        ds = collect_dataset(chain(), "random", 1, seed=5)
        path = tmp_path / "d.leqd"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        with pytest.raises(ValueError):
            loaded.trajectories[0].rewards[0] = 0.0
