"""MLP stack: forward/backward correctness, Adam, EMA, checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leq_lab import agent, envs, nn

from . import _oracles


def make_spec(activation="relu", use_layernorm=False, use_symlog_input=False,
              input_dim=3, hidden=(8, 6), output_dim=2):
    return nn.MlpSpec(
        input_dim=input_dim,
        hidden_dims=hidden,
        output_dim=output_dim,
        use_layernorm=use_layernorm,
        use_symlog_input=use_symlog_input,
        activation=activation,
    )


class TestSymlog:
    def test_values(self):
        assert nn.symlog(0.0) == 0.0
        assert nn.symlog(math.e - 1.0) == pytest.approx(1.0, abs=1e-15)
        assert nn.symlog(-(math.e - 1.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_odd_and_monotone(self):
        x = np.linspace(-20.0, 20.0, 301)
        y = nn.symlog(x)
        np.testing.assert_allclose(y, -nn.symlog(-x), atol=0)
        assert np.all(np.diff(y) > 0.0)

    def test_grad_matches_fd(self):
        x = np.array([-4.0, -0.3, 0.5, 7.0])
        h = 1e-7
        fd = (nn.symlog(x + h) - nn.symlog(x - h)) / (2.0 * h)
        np.testing.assert_allclose(nn.symlog_grad(x), fd, atol=1e-7)


class TestLayoutAndInit:
    def test_layout_covers_n_params(self):
        spec = make_spec(use_layernorm=True)
        layout = nn.param_layout(spec)
        total = sum(int(np.prod(shape)) for _, _, shape in layout)
        assert total == nn.n_params(spec)
        offsets = [start for _, start, _ in layout]
        assert offsets == sorted(offsets)
        rng = np.random.default_rng(0)
        assert nn.init_params(spec, rng).size == total

    def test_init_biases_zero_ln_identity(self):
        spec = make_spec(use_layernorm=True)
        views = nn.param_views(spec, nn.init_params(spec, np.random.default_rng(2)))
        assert not views["b0"].any()
        assert not views["b_out"].any()
        np.testing.assert_array_equal(views["ln_scale0"], 1.0)
        np.testing.assert_array_equal(views["ln_shift0"], 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            nn.MlpSpec(input_dim=0, hidden_dims=(4,), output_dim=1)
        with pytest.raises(ValueError):
            nn.MlpSpec(input_dim=2, hidden_dims=(), output_dim=1)
        with pytest.raises(ValueError):
            nn.MlpSpec(input_dim=2, hidden_dims=(4,), output_dim=1, activation="silu")


class TestForward:
    def test_zero_params_output_is_bias(self):
        spec = make_spec()
        params = np.zeros(nn.n_params(spec))
        nn.param_views(spec, params)["b_out"][...] = [1.5, -2.0]
        x = np.random.default_rng(3).normal(size=(5, 3))
        np.testing.assert_array_equal(nn.forward(spec, params, x),
                                      np.tile([1.5, -2.0], (5, 1)))

    def test_relu_pair_builds_exact_identity(self):
        # relu(x) - relu(-x) = x: composition is exactly linear end to end
        spec = nn.MlpSpec(input_dim=2, hidden_dims=(4,), output_dim=2)
        params = np.zeros(nn.n_params(spec))
        views = nn.param_views(spec, params)
        views["w0"][...] = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        views["w_out"][...] = np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        )
        x = np.random.default_rng(4).normal(size=(7, 2)) * 3.0
        np.testing.assert_array_equal(nn.forward(spec, params, x), x)

    def test_single_and_batch_inputs_agree(self):
        spec = make_spec(activation="tanh", use_symlog_input=True)
        params = nn.init_params(spec, np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(4, 3))
        batch = nn.forward(spec, params, x)
        assert batch.shape == (4, 2)
        for i in range(4):
            row = nn.forward(spec, params, x[i : i + 1])
            assert row.shape == (1, 2)
            # matmul kernels differ by batch shape, so only near-exact
            np.testing.assert_allclose(row[0], batch[i], rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch_raises(self):
        spec = make_spec()
        params = nn.init_params(spec, np.random.default_rng(7))
        for x in (np.zeros((2, 4)), np.zeros(3)):  # a single row is a (1, d) batch
            with pytest.raises(ValueError):
                nn.forward(spec, params, x)

    def test_deterministic_and_golden(self):
        spec = nn.MlpSpec(input_dim=2, hidden_dims=(4,), output_dim=1,
                          use_layernorm=True, use_symlog_input=True, activation="elu")
        params = nn.init_params(spec, np.random.default_rng(0))
        x = np.array([[0.7, -1.3]])
        y = nn.forward(spec, params, x)
        np.testing.assert_array_equal(y, nn.forward(spec, params, x))
        # frozen reference output for seed-0 params on this fixed input
        assert y[0, 0] == pytest.approx(-0.377535671148973, abs=1e-12)

    def test_layernorm_stats_before_affine(self):
        spec = make_spec(use_layernorm=True, hidden=(16,))
        params = nn.init_params(spec, np.random.default_rng(8))
        x = np.random.default_rng(9).normal(size=(32, 3)) * 2.0
        _, cache = nn.forward_cached(spec, params, x)
        _, norm, _, _ = cache[2][0]
        mu = norm.mean(axis=1)
        sd = norm.std(axis=1)
        assert np.abs(mu).max() <= 1e-6
        assert np.abs(sd - 1.0).max() <= 1e-5


class TestActivationGrad:
    """Derivatives taken from the activation output alone."""

    @staticmethod
    def from_input(h, a, kind):
        # the pre-activation forms the output-only ones replace
        if kind == "relu":
            return (h > 0.0).astype(np.float64)
        if kind == "tanh":
            return 1.0 - a * a
        return np.where(h > 0.0, 1.0, a + 1.0)

    @pytest.mark.parametrize("kind", ["relu", "tanh", "elu"])
    def test_equal_to_input_form_bit_for_bit(self, kind):
        edges = [0.0, -0.0, 1e-300, -1e-300, 50.0, -50.0, np.nan, np.inf, -np.inf]
        h = np.concatenate([edges, np.random.default_rng(3).normal(0.0, 3.0, 2000)])
        a = nn._activate(h.copy(), kind)  # _activate consumes its argument
        got = nn._activate_grad(a, kind)
        want = self.from_input(h, a, kind)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def backward(spec, params, x, c):
    """Gradients of <forward(x), c> by a cached forward and its backward sweep."""
    _, cache = nn.forward_cached(spec, params, x)
    return nn.backward_cached(spec, params, cache, c)


class TestBackward:
    def test_output_layer_grads_are_analytic(self):
        spec = nn.MlpSpec(input_dim=2, hidden_dims=(4,), output_dim=2)
        params = np.zeros(nn.n_params(spec))
        views = nn.param_views(spec, params)
        views["w0"][...] = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        views["w_out"][...] = np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        )
        x = np.array([[0.8, -0.6]])
        c = np.array([[2.0, -3.0]])
        grad, gx = backward(spec, params, x, c)
        g = nn.param_views(spec, grad)
        hidden = np.maximum([x[0, 0], x[0, 1], -x[0, 0], -x[0, 1]], 0.0)
        np.testing.assert_allclose(g["w_out"], np.outer(hidden, c[0]), atol=0)
        np.testing.assert_allclose(g["b_out"], c[0], atol=0)
        # the relu pair makes the whole network the identity map
        np.testing.assert_allclose(gx, c, atol=0)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "elu"])
    def test_param_grads_match_fd(self, activation):
        rng = np.random.default_rng(hash(activation) % 2**32)
        for k in range(50):
            ln = bool(rng.integers(2))
            sym = bool(rng.integers(2))
            spec = make_spec(activation, ln, sym, input_dim=3, hidden=(6, 5), output_dim=2)
            # fully random params: zero biases can park a whole relu layer
            # exactly on its kink, where finite differences are meaningless
            params = rng.normal(size=nn.n_params(spec)) * 0.6
            x = rng.normal(size=(4, 3))
            c = rng.normal(size=(4, 2))
            grad, _ = backward(spec, params, x, c)

            def obj(p):
                return float((nn.forward(spec, p, x) * c).sum())

            worst = _oracles.worst_fd_rel_error(obj, grad, params, rng, n_coords=8)
            assert worst < 1e-3, f"draw {k}: rel err {worst:.2e}"

    @pytest.mark.parametrize("activation", ["relu", "tanh", "elu"])
    def test_input_grads_match_fd(self, activation):
        rng = np.random.default_rng(1 + hash(activation) % 2**32)
        for _ in range(10):
            spec = make_spec(activation, bool(rng.integers(2)), bool(rng.integers(2)))
            params = rng.normal(size=nn.n_params(spec)) * 0.6
            x = rng.normal(size=3)
            c = rng.normal(size=(1, 2))
            _, gx = backward(spec, params, x[None], c)

            def obj(v):
                return float((nn.forward(spec, params, v[None]) * c).sum())

            worst = _oracles.worst_fd_rel_error(obj, gx[0], x, rng, n_coords=3)
            assert worst < 1e-3

@st.composite
def mlp_cases(draw):
    """A spec, params, an input of an odd number of rows up to 703 and an
    output cotangent, with a few special values planted in both."""
    spec = nn.MlpSpec(
        input_dim=draw(st.integers(1, 6)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))),
        output_dim=draw(st.integers(1, 4)),
        use_layernorm=draw(st.booleans()),
        use_symlog_input=draw(st.booleans()),
        activation=draw(st.sampled_from(["relu", "tanh", "elu"])),
    )
    rows = draw(st.integers(0, 351).map(lambda k: 2 * k + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.normal(0.0, 1.0, nn.n_params(spec))
    x = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 30.0])), (rows, spec.input_dim))
    cot = rng.normal(0.0, 1.0, (rows, spec.output_dim))
    for arr in (x, cot):
        flat = arr.reshape(-1)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, flat.size - 1))
            flat[at] = draw(st.sampled_from(_oracles.SPECIAL_VALUES))
    return spec, params, x, cot


def _cache_arrays(cache):
    raw_in, x0, layers, last = cache
    return [raw_in, x0, last] + [arr for layer in layers for arr in layer if arr is not None]


class TestInPlaceKernels:
    """The in-place kernels against their allocating forms in _oracles."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # planted NaN and Inf values
    @settings(max_examples=200, deadline=None)
    @given(mlp_cases())
    def test_bit_identical_and_never_write_their_inputs(self, case):
        spec, params, x, cot = case
        before = [params.tobytes(), x.tobytes()]
        y, cache = nn.forward_cached(spec, params, x)
        assert [params.tobytes(), x.tobytes()] == before
        y_ref, cache_ref = _oracles.alloc_forward_cached(spec, params, x)
        _oracles.assert_bits(y, y_ref)
        got_arrays, want_arrays = _cache_arrays(cache), _cache_arrays(cache_ref)
        assert len(got_arrays) == len(want_arrays)
        for got, want in zip(got_arrays, want_arrays):
            _oracles.assert_bits(got, want)

        frozen = [arr.tobytes() for arr in got_arrays] + [params.tobytes(), cot.tobytes()]
        want = _oracles.alloc_backward_cached(spec, params, cache_ref, cot)
        for _ in range(2):  # a second sweep over the same cache, as the pathwise actor runs
            got = nn.backward_cached(spec, params, cache, cot)
            assert [arr.tobytes() for arr in got_arrays] + [params.tobytes(), cot.tobytes()] == frozen
            _oracles.assert_bits(got[0], want[0])
            _oracles.assert_bits(got[1], want[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # planted NaN and Inf values
    @settings(max_examples=200, deadline=None)
    @given(mlp_cases())
    def test_input_only_sweep_is_the_full_input_grad(self, case):
        spec, params, x, cot = case
        _, cache = nn.forward_cached(spec, params, x)
        cache_arrays = _cache_arrays(cache)
        written = cache_arrays + [params, cot]
        frozen = [arr.tobytes() for arr in written]
        _, want = nn.backward_cached(spec, params, cache, cot)
        for _ in range(2):
            grad, got = nn.backward_cached(spec, params, cache, cot, input_only=True)
            assert grad is None
            assert [arr.tobytes() for arr in written] == frozen
            _oracles.assert_bits(got, want)


@st.composite
def stacked_cases(draw):
    """A spec, k (P,) parameter rows, and (k, B, d) inputs and (k, B, o)
    cotangents, with a few special values planted."""
    spec = nn.MlpSpec(
        input_dim=draw(st.integers(1, 6)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))),
        output_dim=draw(st.integers(1, 6)),
        use_layernorm=draw(st.booleans()),
        use_symlog_input=draw(st.booleans()),
        activation=draw(st.sampled_from(["relu", "tanh", "elu"])),
    )
    k = draw(st.integers(1, 5))
    rows = draw(st.sampled_from([1, 2, 3, 17, 128, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.normal(0.0, 1.0, (k, nn.n_params(spec)))
    x = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 30.0])), (k, rows, spec.input_dim))
    cot = rng.normal(0.0, 1.0, (k, rows, spec.output_dim))
    for arr in (x, cot):
        flat = arr.reshape(-1)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, flat.size - 1))
            flat[at] = draw(st.sampled_from(_oracles.SPECIAL_VALUES))
    return spec, params, x, cot


class TestStackedNetworks:
    """A (k, P) stack of networks against k separate 2-D calls."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # planted NaN and Inf values
    @settings(max_examples=200, deadline=None)
    @given(stacked_cases())
    def test_each_slice_has_the_bits_of_its_own_call(self, case):
        spec, params, x, cot = case
        inputs = (params, x, cot)
        before = [arr.tobytes() for arr in inputs]
        y, cache = nn.forward_cached(spec, params, x)
        full = nn.backward_cached(spec, params, cache, cot)
        grad, none = nn.backward_cached(spec, params, cache, cot, params_only=True)
        none_too, g_in = nn.backward_cached(spec, params, cache, cot, input_only=True)
        assert none is None and none_too is None
        assert [arr.tobytes() for arr in inputs] == before
        views = nn.param_views(spec, params)
        for j in range(params.shape[0]):
            p_j, x_j, cot_j = params[j].copy(), x[j].copy(), cot[j].copy()
            y_j, cache_j = nn.forward_cached(spec, p_j, x_j)
            grad_j, g_in_j = nn.backward_cached(spec, p_j, cache_j, cot_j)
            _oracles.assert_bits_but_nan_signs(y[j], y_j)
            for got, want in zip(_cache_arrays(cache), _cache_arrays(cache_j)):
                _oracles.assert_bits_but_nan_signs(got[j], want)
            for got in (full[0][j], grad[j]):
                _oracles.assert_bits_but_nan_signs(got, grad_j)
            for got in (full[1][j], g_in[j]):
                _oracles.assert_bits_but_nan_signs(got, g_in_j)
            for name, view in nn.param_views(spec, p_j).items():
                _oracles.assert_bits_but_nan_signs(views[name][j], view)

    def test_adam_steps_each_network_as_alone(self):
        rng = np.random.default_rng(12)
        params = rng.normal(size=(3, 20))
        alone = [row.copy() for row in params]
        state = nn.init_adam(params.shape, lr=3e-3)
        states = [nn.init_adam(20, lr=3e-3) for _ in alone]
        for _ in range(50):
            grad = rng.normal(size=params.shape)
            nn.adam_step(state, params, grad)
            for row, row_state, row_grad in zip(alone, states, grad):
                nn.adam_step(row_state, row, row_grad.copy())
        for j, row in enumerate(alone):
            _oracles.assert_bits(params[j], row)


class TestParamsOnly:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # planted NaN and Inf values
    @settings(max_examples=100, deadline=None)
    @given(mlp_cases())
    def test_params_only_sweep_is_the_full_param_grad(self, case):
        spec, params, x, cot = case
        _, cache = nn.forward_cached(spec, params, x)
        written = _cache_arrays(cache) + [params, cot]
        frozen = [arr.tobytes() for arr in written]
        want, _ = nn.backward_cached(spec, params, cache, cot)
        grad, g_in = nn.backward_cached(spec, params, cache, cot, params_only=True)
        assert g_in is None
        assert [arr.tobytes() for arr in written] == frozen
        _oracles.assert_bits(grad, want)

    def test_both_flags_are_rejected(self):
        spec = make_spec()
        params = nn.init_params(spec, np.random.default_rng(0))
        _, cache = nn.forward_cached(spec, params, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            nn.backward_cached(spec, params, cache, np.ones((2, 2)), input_only=True, params_only=True)


class TestRowSplit:
    """The backward's row pass and reduction pass, and the row invariance a
    pretraining step split across two processes relies on."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # planted NaN and Inf values
    @settings(max_examples=100, deadline=None)
    @given(mlp_cases())
    def test_the_two_parts_of_the_sums_write_every_entry_of_the_whole_gradient(self, case):
        spec, params, x, cot = case
        _, cache = nn.forward_cached(spec, params, x)
        want, _ = nn.backward_cached(spec, params, cache, cot)
        rows = nn.backward_rows(spec, params, cache, cot)
        grad = np.full_like(params, 7.0)
        for part in (1, 0):
            assert nn.backward_sums(spec, params, rows, grad, part) is grad
        _oracles.assert_bits(grad, want)

    # every env's critic and policy at the desk-scale and the default widths;
    # the point mazes share one shape
    @pytest.mark.parametrize("hidden", [(64, 64), (256, 256)], ids=["desk", "default"])
    @pytest.mark.parametrize("net", ["critic", "policy"])
    @pytest.mark.parametrize("env", envs.ENV_NAMES)
    def test_two_halves_of_a_256_row_pass_are_the_whole_call_bit_for_bit(self, env, net, hidden):
        env_spec = envs.make_env_spec(env)
        spec_for = agent.critic_spec_for if net == "critic" else agent.policy_spec_for
        spec = spec_for(env_spec.obs_dim, env_spec.act_dim, hidden)
        rng = np.random.default_rng(5)
        params = nn.init_params(spec, rng)
        x = rng.normal(0.0, 3.0, (256, spec.input_dim))
        cot = rng.normal(0.0, 1e-2, (256, spec.output_dim))

        def passes(lo, hi):
            y, cache = nn.forward_cached(spec, params, x[lo:hi].copy())
            rows = nn.backward_rows(spec, params, cache, cot[lo:hi].copy())
            return [y, *_cache_arrays(cache)], rows

        (whole, whole_rows), (top, top_rows), (bottom, bottom_rows) = (
            passes(0, 256), passes(0, 128), passes(128, 256)
        )
        for got_top, got_bottom, want in zip(top + list(top_rows), bottom + list(bottom_rows), whole + list(whole_rows)):
            _oracles.assert_bits(np.concatenate([got_top, got_bottom]), want)
        joined = tuple(np.concatenate(parts) for parts in zip(top_rows, bottom_rows))
        grad, _ = nn.backward_cached(spec, params, nn.forward_cached(spec, params, x)[1], cot, params_only=True)
        got = np.zeros_like(params)
        for part in (0, 1):
            nn.backward_sums(spec, params, joined, got, part)
        _oracles.assert_bits(got, grad)


class TestConcatCaches:
    @pytest.mark.parametrize(
        "use_layernorm, use_symlog_input", [(False, False), (True, True)], ids=["plain", "ln-symlog"]
    )
    def test_joined_caches_hold_the_blocks_rows_as_a_forwards_cache_holds_them(
        self, use_layernorm, use_symlog_input
    ):
        spec = make_spec("elu", use_layernorm, use_symlog_input)
        params = nn.init_params(spec, np.random.default_rng(0))
        caches = [
            nn.forward_cached(spec, params, np.random.default_rng(b).normal(size=(4, 3)))[1]
            for b in range(3)
        ]
        joined = nn._concat_caches(caches)
        for i, got in enumerate(_cache_arrays(joined)):
            np.testing.assert_array_equal(got, np.concatenate([_cache_arrays(c)[i] for c in caches]))
        # each array once: x0 is raw_in without symlog, a layer's input the
        # previous layer's output, and last the last layer's
        raw_in, x0, layers, last = joined
        assert (x0 is raw_in) == (not use_symlog_input)
        assert layers[0][0] is x0 and last is layers[-1][3]
        assert all(layers[i][0] is layers[i - 1][3] for i in range(1, len(layers)))
        # one sweep over the joined rows is the blocks' sweeps, summed or stacked
        cot = np.random.default_rng(9).normal(size=(12, 2))
        grad, g_in = nn.backward_cached(spec, params, joined, cot)
        parts = [nn.backward_cached(spec, params, c, cot[4 * b : 4 * b + 4]) for b, c in enumerate(caches)]
        np.testing.assert_allclose(grad, sum(g for g, _ in parts), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(g_in, np.concatenate([g for _, g in parts]), rtol=1e-12, atol=1e-14)


class TestAdam:
    def test_zero_grad_is_identity(self):
        params = np.array([1.0, -2.0, 3.0])
        state = nn.init_adam(3, lr=0.1)
        nn.adam_step(state, params, np.zeros(3))
        np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        params = np.zeros(3)
        g = np.array([0.3, -7.0, 1e-3])
        nn.adam_step(nn.init_adam(3, lr=0.05), params, g)
        np.testing.assert_allclose(params, -0.05 * np.sign(g), atol=1e-6)

    def test_converges_on_scalar_quadratic(self):
        params = np.array([0.0])
        state = nn.init_adam(1, lr=0.1)
        for _ in range(100):
            nn.adam_step(state, params, 2.0 * (params - 3.0))
        assert abs(params[0] - 3.0) < 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.adam_step(nn.init_adam(2, lr=0.1), np.zeros(3), np.zeros(3))

    def test_trajectory_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            params = rng.normal(size=20)
            state = nn.init_adam(20, lr=3e-3)
            for _ in range(100):
                nn.adam_step(state, params, rng.normal(size=20))
            return params

        np.testing.assert_array_equal(run(), run())


class TestEma:
    def test_init_copies(self):
        config = agent.AgentConfig(hidden_actor=(4,), hidden_critic=(4,), n_expand=1)
        state = agent.build_agent(config, envs.make_env_spec("dense_chain"), seed=0)
        np.testing.assert_array_equal(state.critic_ema, state.critic_params)
        state.critic_params[0] = 5.0
        assert state.critic_ema[0] != 5.0

    def test_fixed_point(self):
        params = np.array([2.0, -1.0])
        shadow = params.copy()
        nn.ema_update(shadow, params, 0.9)
        np.testing.assert_array_equal(shadow, params)

    def test_single_update_value(self):
        shadow = np.zeros(1)
        nn.ema_update(shadow, np.ones(1), 0.995)
        assert shadow[0] == pytest.approx(0.005, abs=1e-15)

    def test_geometric_convergence(self):
        shadow = np.zeros(1)
        target = np.ones(1)
        for k in range(1, 51):
            nn.ema_update(shadow, target, 0.9)
            assert shadow[0] == pytest.approx(1.0 - 0.9**k, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes disagree"):
            nn.ema_update(np.zeros(2), np.ones(1), 0.9)

    def test_decay_bounds(self):
        with pytest.raises(ValueError, match="ema_decay"):
            agent.AgentConfig(ema_decay=1.0)
        with pytest.raises(ValueError, match="ema_decay"):
            agent.AgentConfig(ema_decay=0.0)

