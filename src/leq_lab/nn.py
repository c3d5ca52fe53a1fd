"""Minimal differentiable MLP stack with hand-written reverse mode.

Architecture per hidden layer: linear -> (optional layer norm) -> activation,
then a final linear readout. Inputs can optionally be squashed with symlog,
sign(x) * ln(1 + |x|), before the first layer. Parameters live in one flat
float64 vector; the layout maps named tensors to slices so checkpoints and
optimizer state stay trivially serializable.

backward_cached() sweeps a forward_cached() cache and returns gradients
with respect to BOTH parameters and inputs; input gradients are what lets
imagination rollouts backpropagate through critics, world-model members
and the policy. Keeping the forward and backward apart lets one stacked
forward serve several backward passes. The backward has two parts:
backward_rows() takes the cotangent back through the layers, row by row,
and backward_sums() reduces over the rows into the parameter gradient
(the weight products a_in^T @ gh, then the bias and layer-norm sums).
backward_cached() runs both in one sweep, each layer's sums right after
its rows. Apart, a batch's rows can run the forward and the row pass in
blocks, even in two processes, and the two parts of backward_sums() over
the joined rows give the whole call's gradient, wherever the blocks gave
the whole call's rows. A caller that needs only the input gradient (the
pathwise actor's critic sweeps) passes input_only=True, which skips the
parameter gradient's matmuls and sums; one that needs only the parameter
gradient (every loss that updates the network it differentiates) passes
params_only=True, which skips the first layer's input-gradient matmul and
the symlog factor. The gradient kept has the same bits either way.

Every function here also takes a stack of k networks of one spec: (k, P)
parameters, whose param_views are (k, *shape), and (k, B, d) inputs. The
kernels are written once for both: transposes are swapaxes(-1, -2), bias
and layer-norm vectors broadcast as v[..., None, :], bias gradients sum
over axis -2 and row statistics over axis -1. np.matmul runs one BLAS
call per stacked slice with that slice's strides, so slice j of every
output, cache and gradient has the bits of the 2-D call on network j
alone. The one exception is the sign of a NaN where two NaNs meet in an
elementwise op: numpy's SIMD lanes and scalar tails order the operands
differently, and a slice sits at another offset in the stack. A 2-D call
gives the bits it gave before stacks. Adam is elementwise, so
init_adam((k, P), lr) steps k networks at once.

Inputs are (B, d) batches, or (k, B, d) for a stack; one row is a (1, d)
batch. forward_cached()'s cache is (raw_in, x0, layers, last): the raw and
the symlogged input, per hidden layer (a_in, norm, inv_std, out), the
layer input, the layer-norm output and its row-wise 1/std (None without
layer norm) and the activation output, and the last hidden output. Only
this module reads it; _concat_caches() joins the caches of forwards over
row blocks into one, for a backward pass over all their rows. Activation
derivatives are taken from the outputs alone (relu: out > 0, tanh:
1 - out^2, elu: min(out, 0) + 1), which equal the pre-activation forms
bit for bit, so the pre-activation is never stored or recomputed.

The kernels work in place, and a hidden layer still holds at most three
full-size arrays in either direction, input_only sweeps included;
backward_rows() also keeps the cotangents gh and, with layer norm, gz of
every hidden layer for backward_sums(). Forward, h = a @ W + b is
centred and scaled into the cached norm, one scratch array takes the
squares and then the affine output z, and the activation consumes it.
ELU takes three passes, max(z, expm1(min(z, 0))), and its one temporary
is the third array. Layer-norm row means are
np.add.reduce(..., axis=-1) / width: the bits of .mean(axis=-1) without
its call overhead. Backward, the activation derivative takes the
cotangent and then the layer-norm backward, in place but for a gz kept
by backward_rows(), with one scratch array, and the weight gradients go
straight into the flat gradient.
Every in-place step keeps the operand order of the plain expression, so
the bits (NaN signs included) are those of the allocating form; the one
exception is that ELU passes a signaling NaN through unquieted. The
kernels never write into their inputs, cotangents or caches: one cache
can serve several backward passes.

Everything is float64: identical params and inputs give bit-identical
outputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "MlpSpec",
    "AdamState",
    "symlog",
    "symlog_grad",
    "param_layout",
    "n_params",
    "init_params",
    "param_views",
    "forward",
    "forward_cached",
    "backward_cached",
    "backward_rows",
    "backward_sums",
    "init_adam",
    "adam_step",
    "ema_update",
]

ACTIVATIONS = ("relu", "tanh", "elu")
_LN_EPS = 1e-8


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    use_layernorm: bool = False
    use_symlog_input: bool = False
    activation: str = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ValueError("all dimensions must be >= 1")
        if len(self.hidden_dims) < 1:
            raise ValueError("need at least one hidden layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


def symlog(x):
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.log1p(np.abs(x))


def symlog_grad(x):
    return 1.0 / (1.0 + np.abs(np.asarray(x, dtype=np.float64)))


@functools.lru_cache(maxsize=64)
def param_layout(spec: MlpSpec) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    entries = []
    offset = 0

    def add(name: str, shape: tuple[int, ...]) -> None:
        nonlocal offset
        entries.append((name, offset, shape))
        offset += math.prod(shape)

    fan_in = spec.input_dim
    for i, width in enumerate(spec.hidden_dims):
        add(f"w{i}", (fan_in, width))
        add(f"b{i}", (width,))
        if spec.use_layernorm:
            add(f"ln_scale{i}", (width,))
            add(f"ln_shift{i}", (width,))
        fan_in = width
    add("w_out", (fan_in, spec.output_dim))
    add("b_out", (spec.output_dim,))
    return tuple(entries)


def n_params(spec: MlpSpec) -> int:
    layout = param_layout(spec)
    name, start, shape = layout[-1]
    return start + math.prod(shape)


def param_views(spec: MlpSpec, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named views into a flat (P,) parameter vector, or into every row of a
    C-contiguous (k, P) stack of them as (k, *shape) views."""
    lead = flat.shape[:-1]
    views = {}
    for name, start, shape in param_layout(spec):
        views[name] = flat[..., start : start + math.prod(shape)].reshape(lead + shape)
    return views


def init_params(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    """Scaled-normal weight init; biases zero, layer-norm affine identity."""
    flat = np.zeros(n_params(spec), dtype=np.float64)
    views = param_views(spec, flat)
    gain = math.sqrt(2.0) if spec.activation in ("relu", "elu") else 1.0
    n_hidden = len(spec.hidden_dims)
    for i in range(n_hidden):
        w = views[f"w{i}"]
        w[...] = rng.normal(0.0, gain / math.sqrt(w.shape[0]), size=w.shape)
        if spec.use_layernorm:
            views[f"ln_scale{i}"][...] = 1.0
    w = views["w_out"]
    w[...] = rng.normal(0.0, 1.0 / math.sqrt(w.shape[0]), size=w.shape)
    return flat


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """Activation of z, which it consumes: z may be overwritten or returned.

    ELU returns a NaN input as it came, so a signaling NaN passes through
    without being quieted, unlike the four-pass expm1(min(z, 0)) + max(z, 0);
    no arithmetic produces a signaling NaN, and every other bit is the same.
    """
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "tanh":
        return np.tanh(z, out=z)
    # elu as max(z, expm1(min(z, 0))): expm1 sees only the clamped-to-zero
    # half, skipping its slow path, and the max picks z wherever z > 0
    neg = np.minimum(z, 0.0)
    return np.maximum(z, np.expm1(neg, out=neg), out=z)


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the activation, given only its output a; a fresh array."""
    if kind == "relu":
        return (a > 0.0).astype(np.float64)
    if kind == "tanh":
        g = a * a
        return np.subtract(1.0, g, out=g)
    # elu: a > 0 exactly where the input was, and below it a + 1 = exp(h)
    g = np.minimum(a, 0.0)
    g += 1.0
    return g


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True), bit for bit, without mean's call overhead."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def forward_cached(spec: MlpSpec, params: np.ndarray, x: np.ndarray):
    """Forward pass returning (output, cache) for (B, d) inputs, or for a
    stack of k networks: (k, P) params and (k, B, d) inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ValueError(f"expected (B, {spec.input_dim}) inputs, got shape {x.shape}")
    views = param_views(spec, params)
    raw_in = x
    if spec.use_symlog_input:
        x = symlog(x)
    layers = []
    a = x
    for i in range(len(spec.hidden_dims)):
        h = a @ views[f"w{i}"]
        h += views[f"b{i}"][..., None, :]
        if spec.use_layernorm:
            # h becomes the cached norm; z is one scratch array (squares first)
            h -= _row_mean(h)
            z = np.multiply(h, h)
            inv_std = 1.0 / np.sqrt(_row_mean(z) + _LN_EPS)
            h *= inv_std
            norm = h
            np.multiply(norm, views[f"ln_scale{i}"][..., None, :], out=z)
            z += views[f"ln_shift{i}"][..., None, :]
        else:
            norm = inv_std = None
            z = h
        out = _activate(z, spec.activation)
        layers.append((a, norm, inv_std, out))
        a = out
    y = a @ views["w_out"] + views["b_out"][..., None, :]
    return y, (raw_in, x, layers, a)


def _concat_caches(caches):
    """The caches of 2-D forwards joined row-wise in order, sharing arrays as
    forward_cached's cache does (a layer's input is the previous output)."""

    def cat(parts):
        return None if parts[0] is None else np.concatenate(parts)

    raw_in = cat([c[0] for c in caches])
    x0 = raw_in if caches[0][1] is caches[0][0] else cat([c[1] for c in caches])
    layers, a = [], x0
    for blocks in zip(*(c[2] for c in caches)):
        norm, inv_std, out = (cat([block[j] for block in blocks]) for j in (1, 2, 3))
        layers.append((a, norm, inv_std, out))
        a = out
    return raw_in, x0, layers, a


def forward(spec: MlpSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    y, _ = forward_cached(spec, params, x)
    return y


def backward_cached(
    spec: MlpSpec,
    params: np.ndarray,
    cache,
    output_cotangent: np.ndarray,
    *,
    input_only: bool = False,
    params_only: bool = False,
):
    """Reverse-mode sweep over a cached forward.

    Returns (param_grad, input_grad): gradients of <output, cotangent>
    with respect to the flat parameter vector and the raw input, or to
    each network's (k, P) parameters and (k, B, d) input for a stacked
    forward. With input_only the parameter gradient is skipped and
    returned as None; with params_only the first layer's input-gradient
    matmul and the symlog factor are, and the input gradient is None. The
    gradient that is kept has the same bits either way.

    It is backward_rows and backward_sums in one sweep: each layer's sums
    follow its rows, so no layer's rows are kept past it.
    """
    if input_only and params_only:
        raise ValueError("input_only and params_only leave nothing to compute")
    grad = None if input_only else np.zeros_like(params)
    _, ga = _sweep(spec, params, cache, output_cotangent, grad, False, params_only)
    return grad, ga


def backward_rows(
    spec: MlpSpec,
    params: np.ndarray,
    cache,
    output_cotangent: np.ndarray,
    *,
    params_only: bool = False,
):
    """The row pass of backward_cached: (rows, input_grad).

    It takes the cotangent back through every layer, and row r of what it
    computes depends on row r of the cache and of the cotangent alone.
    `rows` holds what backward_sums reduces over the rows: (gy, last, then
    per hidden layer its input a_in, the cotangent gh of its pre-norm
    output h and, with layer norm, norm and the cotangent gz of the affine
    output z = norm * ln_scale + ln_shift), each with one row per input
    row. The input gradient is as backward_cached's.
    """
    return _sweep(spec, params, cache, output_cotangent, None, True, params_only)


def _sweep(spec, params, cache, output_cotangent, grad, keep: bool, params_only: bool):
    """backward_cached's sweep: (rows if `keep`, input gradient). Given a
    flat `grad`, each layer's sums go into it as soon as its rows are done."""
    raw_in, x0, layers, last = cache
    gy = np.asarray(output_cotangent, dtype=np.float64)
    views = param_views(spec, params)
    grads = None if grad is None else param_views(spec, grad)
    if grads is not None:
        _output_sums(grads, last, gy)
    per_layer = []
    ga = gy @ views["w_out"].swapaxes(-1, -2)
    for i in reversed(range(len(spec.hidden_dims))):
        a_in, norm, inv_std, out = layers[i]
        gz = _activate_grad(out, spec.activation)
        np.multiply(ga, gz, out=gz)
        kept = (a_in, gz)
        if spec.use_layernorm:
            # gz turns into gn and then gh in place, with one scratch array;
            # a gz kept for the sums turns into a copy instead
            if grads is not None:
                _layer_norm_sums(grads, i, norm, gz)
            scratch = np.empty_like(gz)
            if keep:
                kept_gz, gz = gz, np.multiply(gz, views[f"ln_scale{i}"][..., None, :])
                kept = (a_in, gz, norm, kept_gz)
            else:
                gz *= views[f"ln_scale{i}"][..., None, :]
            # d/dh of (h - mean) * inv_std with row statistics:
            # gh = inv_std * (gn - mean(gn) - norm * mean(gn * norm))
            gn_mean = _row_mean(gz)
            np.multiply(gz, norm, out=scratch)
            gn_norm_mean = _row_mean(scratch)
            gz -= gn_mean
            gz -= np.multiply(norm, gn_norm_mean, out=scratch)
            np.multiply(inv_std, gz, out=gz)
        if grads is not None:
            _weight_sums(grads, i, a_in, gz)
        if keep:
            per_layer.append(kept)
        if i > 0 or not params_only:
            ga = gz @ views[f"w{i}"].swapaxes(-1, -2)

    rows = (gy, last, *(a for kept in reversed(per_layer) for a in kept)) if keep else None
    if params_only:
        return rows, None
    if spec.use_symlog_input:
        ga *= symlog_grad(raw_in)
    return rows, ga


def _output_sums(grads, last, gy) -> None:
    np.matmul(last.swapaxes(-1, -2), gy, out=grads["w_out"])
    grads["b_out"][...] = gy.sum(axis=-2)


def _layer_norm_sums(grads, i: int, norm, gz) -> None:
    grads[f"ln_scale{i}"][...] = np.multiply(gz, norm).sum(axis=-2)
    grads[f"ln_shift{i}"][...] = gz.sum(axis=-2)


def _weight_sums(grads, i: int, a_in, gh) -> None:
    np.matmul(a_in.swapaxes(-1, -2), gh, out=grads[f"w{i}"])
    grads[f"b{i}"][...] = gh.sum(axis=-2)


def backward_sums(spec: MlpSpec, params: np.ndarray, rows, grad: np.ndarray, part: int) -> np.ndarray:
    """The reduction pass of backward_cached, in two parts: the parameter
    gradient from a backward_rows `rows`, written into `grad`. Each weight
    gradient is one product a_in^T @ gh over all the rows, and each bias
    and layer-norm gradient one sum over them, so `rows` assembled from the
    row passes of row blocks give the bits of one whole call wherever those
    passes gave its rows' bits.

    `part` 0 reduces the output layer and the first half of the hidden
    layers (L // 2 of them), and `part` 1 the others, leaving the rest of
    `grad` as it was; the two parts together write all of it."""
    gy, last, *per_layer = rows
    grads = param_views(spec, grad)
    layers = range(len(spec.hidden_dims))
    if part == 0:
        _output_sums(grads, last, gy)
        layers = layers[: len(layers) // 2]
    else:
        layers = layers[len(layers) // 2 :]
    width = 4 if spec.use_layernorm else 2
    for i in layers:
        a_in, gh, *ln = per_layer[width * i : width * (i + 1)]
        if ln:
            _layer_norm_sums(grads, i, *ln)
        _weight_sums(grads, i, a_in, gh)
    return grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(n: int | tuple[int, ...], lr: float) -> AdamState:
    """Zero moments for n parameters, or for a (k, P) stack of k networks."""
    return AdamState(
        m=np.zeros(n, dtype=np.float64), v=np.zeros(n, dtype=np.float64), step=0, lr=float(lr)
    )


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray):
    """Bias-corrected Adam; mutates state and params in place and returns them."""
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ValueError("parameter/gradient/moment shapes disagree")
    state.step += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state, params


def ema_update(shadow: np.ndarray, params: np.ndarray, decay: float) -> None:
    """shadow <- decay * shadow + (1 - decay) * params, in place."""
    if shadow.shape != params.shape:
        raise ValueError("shadow/parameter shapes disagree")
    shadow *= decay
    shadow += (1.0 - decay) * params

