"""Ensemble of Gaussian dynamics models for differentiable imagination.

Each member is an MLP mapping (state, action) to the mean and log-std of a
diagonal Gaussian over (state delta, reward). Members train independently
on a per-trajectory train/validation split; the five members with the best
validation NLL become the elites used for rollouts.

Training runs every member in one lockstep group: each step draws each
member's batch from that member's own stream, then runs one stacked
forward, backward and Adam step over the (M, P) parameters (`nn` on a
stack); a member whose loss goes non-finite leaves the stack, and
validation runs one member at a time. Since each slice of a stacked call
has the bits of the member's own 2-D call, and a member's draws do not
depend on its neighbours, the ensemble has the bits of training the
members one after another.

The members train in the calling process. Given a `beside` call, as
`cli.run_training` gives BC pretraining, they train in a helper
forked for them (`forked.serving`) while the call runs here, where
`forked.can_fork` allows: the fork start method exists, the process runs
on x86 and may run on at least 2 CPUs and is not a daemonic worker, and
no `nn` function has been wrapped since import, as a tracer or a test's
spy does (the wrapper would never see the child's calls). The helper
forks once the data is split, so it finds the data in its copy of the
run's memory, unpickled. Either way the training writes the members'
parameters, validation NLLs and seconds into arrays of one shared
mapping made before the fork (`forked.shared_arrays`), and the ensemble
is built from copies of them, so the mapping is freed as training ends.

Rollouts sample one elite per step (uniformly) and draw reparameterized
noise, recording both so a rollout can be replayed bit-identically and
differentiated: with the (member, eps) tape frozen, sampled outputs are a
deterministic smooth function of states and actions, and `step_backward`
pushes cotangents on (next_state, reward) back to (state, action).
`imagine_rollout` draws the tapes and `replay_rollout` runs them. Steps,
rollouts and their policy and termination calls take (B, ·) batches, the
rule mapping (B, S) states to (B,) bools as `envs.terminated_batch` does.

A step runs in member-sorted, layer-major order: the rows are sorted by
member once, each layer runs one matmul per member into that member's
contiguous slice of one (B, width) array, and the per-row bias and the
activation (or, going backward, its derivative) then go over the whole
layer at once. Outputs are scattered back to row order once at the end.
Each member's rows meet the same matmuls as they would alone, so the bits
are those of one forward per member, but for a NaN's sign, as in `nn`: where
two NaNs meet in a layer-wide elementwise op, which one survives depends on
a row's offset in the layer. A `StepCache` keeps the hidden activations in
sorted order, with the permutation and the group bounds.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial

import numpy as np

from . import container, forked, heap, nn
from .rng import stream

__all__ = [
    "WorldModelError",
    "WorldModelFormatError",
    "WorldModelConfig",
    "EnsembleWorldModel",
    "ImaginedRollouts",
    "train_ensemble",
    "step_with_tape",
    "step_backward",
    "imagine_rollout",
    "replay_rollout",
    "save_ensemble",
    "load_ensemble",
]

LOG_STD_MIN = -10.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class WorldModelError(RuntimeError):
    pass


class WorldModelFormatError(WorldModelError, container.ContainerError):
    """Corrupt, truncated or incompatible ensemble file."""


@dataclass(frozen=True)
class WorldModelConfig:
    n_members: int = 7
    n_elites: int = 5
    hidden_dims: tuple[int, ...] = (64, 64)
    activation: str = "elu"
    train_steps: int = 4000
    batch_size: int = 128
    lr: float = 1e-3
    val_fraction: float = 0.1
    val_interval: int = 100
    max_val_rows: int = 4096

    def __post_init__(self):
        if not 0 < self.n_elites <= self.n_members:
            raise ValueError("need 0 < n_elites <= n_members")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if min(self.train_steps, self.batch_size, self.val_interval, self.max_val_rows) <= 0:
            raise ValueError("train_steps, batch_size, val_interval and max_val_rows must be positive")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.activation not in nn.ACTIVATIONS:
            raise ValueError(f"activation must be one of {nn.ACTIVATIONS}, got {self.activation!r}")


def member_spec(obs_dim: int, act_dim: int, config: WorldModelConfig) -> nn.MlpSpec:
    return nn.MlpSpec(
        input_dim=obs_dim + act_dim,
        hidden_dims=config.hidden_dims,
        output_dim=2 * (obs_dim + 1),
        use_layernorm=False,
        use_symlog_input=False,
        activation=config.activation,
    )


def _split_heads(out: np.ndarray, head_dim: int):
    """(mean, clamped log-std, clamp-interior mask) from raw net output."""
    mu = out[..., :head_dim]
    raw = out[..., head_dim:]
    log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
    interior = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
    return mu, log_std, interior


def _nll(res, inv_var, log_std):
    """Mean Gaussian NLL over the rows from the residuals and inverse variances."""
    per_row = 0.5 * res * res * inv_var + log_std + _HALF_LOG_2PI
    return per_row.sum(axis=-1).mean(axis=-1)


def _nll_from_heads(mu, log_std, targets):
    """Mean Gaussian NLL over the rows; one per network for a (k, B, D) stack."""
    return _nll(targets - mu, np.exp(-2.0 * log_std), log_std)


def _nll_grad_on(spec, params, x, t, head_dim):
    """(k,) NLL losses of a (k, P) stack of members on their (k, B, d) batches,
    and the (k, P) parameter gradients."""
    out, cache = nn.forward_cached(spec, params, x)
    mu, log_std, interior = _split_heads(out, head_dim)
    inv_var = np.exp(-2.0 * log_std)
    res = t - mu
    loss = _nll(res, inv_var, log_std)
    batch = x.shape[-2]
    g_mu = -res * inv_var / batch
    g_log_std = (1.0 - res * res * inv_var) / batch * interior
    cot = np.concatenate([g_mu, g_log_std], axis=-1)
    grad, _ = nn.backward_cached(spec, params, cache, cot, params_only=True)
    return loss, grad


def _split_rows(dataset, rng, val_fraction: float):
    """Per-trajectory 90/10 row split; falls back to row split for one traj."""
    lengths = [traj.rewards.shape[0] for traj in dataset.trajectories]
    n_traj = len(lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    if n_traj >= 2:
        order = rng.permutation(n_traj)
        n_val = max(1, int(round(val_fraction * n_traj)))
        if n_val >= n_traj:
            n_val = n_traj - 1
        val_traj = set(order[:n_val].tolist())
        val_rows = np.concatenate(
            [np.arange(offsets[i], offsets[i + 1]) for i in sorted(val_traj)]
        )
        train_rows = np.concatenate(
            [np.arange(offsets[i], offsets[i + 1]) for i in range(n_traj) if i not in val_traj]
        )
    else:
        rows = rng.permutation(int(offsets[-1]))
        n_val = max(1, int(round(val_fraction * rows.size)))
        val_rows, train_rows = rows[:n_val], rows[n_val:]
    return np.sort(train_rows), np.sort(val_rows)


@dataclass(frozen=True)
class EnsembleWorldModel:
    obs_dim: int
    act_dim: int
    spec: nn.MlpSpec
    member_params: np.ndarray  # (M, P)
    val_nll: np.ndarray  # (M,)
    elite_idx: tuple[int, ...]  # sorted by validation NLL, best first
    config: WorldModelConfig = field(default_factory=WorldModelConfig)
    # wall seconds the members took to train, in the process that trained
    # them; 0.0 once loaded, and never saved
    train_s: float = field(default=0.0, compare=False, repr=False)
    # the run seed it was trained with, and the sha256 of the dataset file
    # it was trained on, which `train_ensemble` leaves to its caller
    seed: int | None = field(default=None, compare=False, repr=False)
    dataset_sha256: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.elite_idx) != self.config.n_elites:
            raise WorldModelError(
                f"expected {self.config.n_elites} elites, got {len(self.elite_idx)}"
            )
        self.member_params.flags.writeable = False

    @cached_property
    def _layers(self) -> list:
        """(W (M, in, out), b (M, out)) per layer, the readout last: views of
        member_params for gathered rollouts."""
        views = nn.param_views(self.spec, self.member_params)
        n_hidden = len(self.spec.hidden_dims)
        names = [(f"w{i}", f"b{i}") for i in range(n_hidden)] + [("w_out", "b_out")]
        return [(views[w], views[b]) for w, b in names]


def _train_members(
    spec, data, config: WorldModelConfig, seed: int, best_params, val_nll, seconds
) -> None:
    """Train all members in lockstep into zeroed arrays: their best
    parameters into `best_params` (M, P), their validation NLLs into
    `val_nll` (M,) and the wall seconds taken into `seconds` ().

    Each step draws every live member's batch from its own stream and runs
    one stacked forward, backward and Adam step. A member whose loss goes
    non-finite leaves the stack and is dropped: its parameters stay zero
    and its validation NLL infinite. Validation runs per member.
    """
    t0 = time.perf_counter()
    x_tr, t_tr, x_val, t_val = data
    head_dim = t_tr.shape[1]
    rngs = [stream(seed, "wm.member", m) for m in range(config.n_members)]
    params = np.stack([nn.init_params(spec, rng) for rng in rngs])
    adam = nn.init_adam(params.shape, config.lr)
    live = list(range(config.n_members))  # members still training
    val_nll[:] = np.inf
    for step in range(config.train_steps):
        idx = np.stack([rngs[m].integers(0, x_tr.shape[0], size=config.batch_size) for m in live])
        loss, grad = _nll_grad_on(spec, params, x_tr[idx], t_tr[idx], head_dim)
        finite = np.isfinite(loss)
        if not finite.all():
            live = [m for m, ok in zip(live, finite) if ok]
            if not live:
                break
            params, grad = params[finite], grad[finite]
            adam.m, adam.v = adam.m[finite], adam.v[finite]
        adam, params = nn.adam_step(adam, params, grad)
        if (step + 1) % config.val_interval == 0 or step + 1 == config.train_steps:
            for row, m in enumerate(live):
                out = nn.forward(spec, params[row], x_val)
                mu, log_std, _ = _split_heads(out, head_dim)
                score = float(_nll_from_heads(mu, log_std, t_val))
                if np.isfinite(score) and score < val_nll[m]:
                    val_nll[m], best_params[m] = score, params[row]
    dropped = np.setdiff1d(np.arange(config.n_members), live)
    val_nll[dropped], best_params[dropped] = np.inf, 0.0
    seconds[...] = time.perf_counter() - t0


def train_ensemble(dataset, config: WorldModelConfig, seed: int, beside=None) -> EnsembleWorldModel:
    """Train all members on a shared split; pick elites by validation NLL.

    The members train in one lockstep group. Every member draws its init
    and batches from its own `wm.member` stream, each slice of a stacked
    step meets the same BLAS calls as that member alone, and validation
    runs per member, so the result equals training the members one after
    another.

    `beside`, a call with no arguments, runs in this process: while the
    members train in a helper forked for them, which `cli.run_training`
    uses to run BC meanwhile, and otherwise after they have trained here.
    The helper is joined before this returns, so a later stage may fork
    its own. If `beside` raises, the error goes on and the helper is killed.
    A helper call that fails, or a helper that dies, raises
    WorldModelError. Without `beside` the members always train here.

    It first sets `heap.set_heap_policy`'s thresholds, as `cli.run_training`
    does: without them glibc maps and unmaps every freed temporary of 128 KB
    or more, and a stacked step costs about 1.5-2x as much per member.
    """
    heap.set_heap_policy()
    states, actions, rewards, next_states, _ = dataset.flat_arrays()
    if states.shape[0] < 20:
        raise WorldModelError(f"need at least 20 transitions, got {states.shape[0]}")
    spec = member_spec(dataset.obs_dim, dataset.act_dim, config)
    inputs = np.concatenate([states, actions], axis=1)
    targets = np.concatenate([next_states - states, rewards[:, None]], axis=1)

    train_rows, val_rows = _split_rows(dataset, stream(seed, "wm.split"), config.val_fraction)
    val_rows = val_rows[: config.max_val_rows]
    data = (inputs[train_rows], targets[train_rows], inputs[val_rows], targets[val_rows])

    mapped = forked.shared_arrays((config.n_members, nn.n_params(spec)), (config.n_members,), ())
    train = partial(_train_members, spec, data, config, seed, *mapped)
    with forked.serving(train) if beside is not None else contextlib.nullcontext() as helper:
        if helper is None:
            train()
            if beside is not None:
                beside()
        else:
            helper.call()
            beside()
            try:
                helper.result()
            except forked.HelperError as err:
                raise WorldModelError(f"world-model training failed: {err}") from err
    member_params, val_nll, train_s = (a.copy() for a in mapped)
    order = np.argsort(val_nll, kind="stable")
    elites = [int(i) for i in order[: config.n_elites]]
    if not np.isfinite(val_nll[elites]).all():
        n_ok = int(np.isfinite(val_nll).sum())
        raise WorldModelError(
            f"only {n_ok} members trained to a finite validation NLL; need {config.n_elites}"
        )
    return EnsembleWorldModel(
        obs_dim=dataset.obs_dim,
        act_dim=dataset.act_dim,
        spec=spec,
        member_params=member_params,
        val_nll=val_nll,
        elite_idx=tuple(elites),
        config=config,
        train_s=float(train_s),
        seed=seed,
    )


@dataclass
class StepCache:
    """Everything needed to push cotangents back through one sampled step.

    The hidden activations are kept in member-sorted order: sorted row i is
    row order[i], and the sorted rows lo:hi of each (member, lo, hi) in
    `groups` went through that member. The head arrays are in row order.
    """

    post: list  # per hidden layer: activation output (B, width), member-sorted
    order: np.ndarray  # (B,) the row behind each sorted row
    groups: list  # per distinct member, ascending: (member id, lo, hi)
    sigma: np.ndarray  # (B, S+1)
    eps: np.ndarray  # (B, S+1)
    interior: np.ndarray  # (B, S+1) log-std clamp interior mask


def _grouped_matmul(a: np.ndarray, w: np.ndarray, groups: list) -> np.ndarray:
    """Member-sorted rows times their member's matrix, into one array: rows
    lo:hi of the result are a[lo:hi] @ w[m] for each (m, lo, hi) in groups."""
    out = np.empty((a.shape[0], w.shape[2]))
    for m, lo, hi in groups:
        np.matmul(a[lo:hi], w[m], out=out[lo:hi])
    return out


def _gathered_forward(ensemble: EnsembleWorldModel, member: np.ndarray, x: np.ndarray):
    """Forward each row through its own member; returns (out, post, order, groups).

    Rows are sorted by member once. Each layer runs one matmul per member
    into that member's contiguous slice of a (B, width) array, then adds the
    per-row bias and applies the activation over the whole layer. `out` is
    scattered back to row order once at the end; `post` stays sorted.
    """
    layers = ensemble._layers
    activation = ensemble.spec.activation
    order = np.argsort(member, kind="stable")
    ids = member[order]
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), ids.size]
    groups = [(int(ids[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    a = x[order]
    post = []
    for w, b in layers[:-1]:
        h = _grouped_matmul(a, w, groups)
        h += b[ids]
        a = nn._activate(h, activation)
        post.append(a)
    w, b = layers[-1]
    h = _grouped_matmul(a, w, groups)
    h += b[ids]
    out = np.empty_like(h)
    out[order] = h
    return out, post, order, groups


def step_with_tape(ensemble: EnsembleWorldModel, states, actions, member, eps):
    """Deterministic sampled step given a frozen (member, eps) tape.

    (B, S) states, (B, A) actions, (B,) member ids and (B, S+1) eps give
    (next_states, rewards, cache); next = state + predicted delta.
    """
    x = np.concatenate([states, actions], axis=1)
    out, post, order, groups = _gathered_forward(ensemble, member, x)
    head_dim = ensemble.obs_dim + 1
    mu, log_std, interior = _split_heads(out, head_dim)
    sigma = np.exp(log_std)
    sample = mu + sigma * eps
    next_states = states + sample[:, : ensemble.obs_dim]
    rewards = sample[:, ensemble.obs_dim]
    cache = StepCache(
        post=post, order=order, groups=groups, sigma=sigma, eps=eps, interior=interior
    )
    return next_states, rewards, cache


def step_backward(ensemble: EnsembleWorldModel, cache: StepCache, g_next, g_reward):
    """Cotangents on (next_state, reward) -> cotangents on (state, action).

    The skip connection next = state + delta is included: the returned state
    gradient already contains the identity term from g_next. The sweep runs
    in the forward's member-sorted order, one matmul per member and layer,
    with each activation derivative applied once over the whole layer.
    g_next is (B, S) and g_reward (B,).
    """
    g_sample = np.concatenate([g_next, g_reward[:, None]], axis=1)
    g_mu = g_sample
    g_log_std = g_sample * cache.eps * cache.sigma * cache.interior
    g = np.concatenate([g_mu, g_log_std], axis=1)[cache.order]
    layers = ensemble._layers
    activation = ensemble.spec.activation
    # w.swapaxes(1, 2)[m] is the same transposed view as w[m].T
    g = _grouped_matmul(g, layers[-1][0].swapaxes(1, 2), cache.groups)
    for layer in reversed(range(len(cache.post))):
        gz = nn._activate_grad(cache.post[layer], activation)
        np.multiply(g, gz, out=gz)
        g = _grouped_matmul(gz, layers[layer][0].swapaxes(1, 2), cache.groups)
    g_in = np.empty_like(g)
    g_in[cache.order] = g
    g_state = g_in[:, : ensemble.obs_dim] + g_next
    g_action = g_in[:, ensemble.obs_dim :]
    return g_state, g_action


@dataclass
class ImaginedRollouts:
    """Padded batch of imagined trajectories with replay tapes.

    Row b has t_eff[b] valid transitions; states/rewards past that are
    frozen/zeroed padding. `terminal[b]` marks rollouts that ended in a
    terminal state (their final state is states[b, t_eff[b]]); `nonfinite`
    flags rows truncated because the model produced a non-finite state.
    """

    states: np.ndarray  # (B, H+1, S)
    actions: np.ndarray  # (B, H, A)
    rewards: np.ndarray  # (B, H)
    member_ids: np.ndarray  # (B, H) absolute member indices
    eps: np.ndarray  # (B, H, S+1)
    t_eff: np.ndarray  # (B,) valid transition counts
    terminal: np.ndarray  # (B,) bool
    nonfinite: np.ndarray  # (B,) bool
    caches: list | None = None  # per-step StepCache when differentiable

    @property
    def horizon(self) -> int:
        return self.rewards.shape[1]


def imagine_rollout(
    ensemble: EnsembleWorldModel,
    policy,
    start_states,
    horizon: int,
    termination,
    action_noise_sigma: float,
    rng,
    differentiable: bool = False,
) -> ImaginedRollouts:
    """Roll the policy from (B, S) start states through per-step sampled
    elites for `horizon` steps: draws the (member, eps) tapes, and the
    action noise when action_noise_sigma > 0, then `replay_rollout`s them."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    batch = len(start_states)
    elite_arr = np.asarray(ensemble.elite_idx, dtype=np.intp)
    member_ids = elite_arr[rng.integers(0, elite_arr.size, size=(batch, horizon))]
    eps = rng.standard_normal((batch, horizon, ensemble.obs_dim + 1))
    noise = None
    if action_noise_sigma > 0.0:
        noise = action_noise_sigma * rng.standard_normal((batch, horizon, ensemble.act_dim))
    return replay_rollout(
        ensemble, policy, start_states, member_ids, eps, termination, noise, differentiable
    )


def replay_rollout(
    ensemble: EnsembleWorldModel,
    policy,
    start_states,
    member_ids: np.ndarray,
    eps: np.ndarray,
    termination,
    action_noise: np.ndarray | None = None,
    differentiable: bool = False,
) -> ImaginedRollouts:
    """Run a rollout under frozen (B, H) member and (B, H, S+1) eps tapes.

    `policy` maps (B, S) states to (B, A) actions, clipped to [-1, 1] with
    the (B, H, A) `action_noise` added when given, and `termination` maps
    (B, S) states to (B,) bools. With the same policy this reproduces the
    original bit-for-bit; with a perturbed policy it realizes the
    common-random-numbers path used by finite-difference gradient checks.
    """
    batch, horizon = member_ids.shape
    obs_dim, act_dim = ensemble.obs_dim, ensemble.act_dim
    states = np.zeros((batch, horizon + 1, obs_dim))
    actions = np.zeros((batch, horizon, act_dim))
    rewards = np.zeros((batch, horizon))
    s = np.array(start_states, dtype=np.float64)
    states[:, 0] = s
    alive = ~termination(s)
    t_eff = np.zeros(batch, dtype=np.intp)
    terminal = ~alive  # start states already inside a terminal set
    nonfinite = np.zeros(batch, dtype=bool)
    caches = [] if differentiable else None
    for k in range(horizon):
        a = np.clip(policy(s), -1.0, 1.0)
        if action_noise is not None:
            a = np.clip(a + action_noise[:, k], -1.0, 1.0)
        nxt, r, cache = step_with_tape(ensemble, s, a, member_ids[:, k], eps[:, k])
        if differentiable:
            caches.append(cache)
        finite = np.isfinite(nxt).all(axis=1) & np.isfinite(r)
        bad = alive & ~finite
        nonfinite |= bad
        step_ok = alive & finite
        actions[:, k] = np.where(step_ok[:, None], a, 0.0)
        rewards[:, k] = np.where(step_ok, r, 0.0)
        s = np.where(step_ok[:, None], nxt, s)
        states[:, k + 1] = s
        t_eff[step_ok] = k + 1
        done_now = step_ok & termination(s)
        terminal |= done_now
        alive = step_ok & ~done_now
    return ImaginedRollouts(
        states=states,
        actions=actions,
        rewards=rewards,
        member_ids=member_ids,
        eps=eps,
        t_eff=t_eff,
        terminal=terminal,
        nonfinite=nonfinite,
        caches=caches,
    )


_ENSEMBLE_MAGIC = b"LEQE"
_ENSEMBLE_VERSION = 3


def save_ensemble(path, ensemble: EnsembleWorldModel) -> None:
    """Write `ensemble`; the header also records its `seed` and
    `dataset_sha256`, which a resumed run checks, so a loaded ensemble
    saves to the same bytes."""
    header = {
        "format": "leq-lab-ensemble",
        "version": _ENSEMBLE_VERSION,
        "obs_dim": ensemble.obs_dim,
        "act_dim": ensemble.act_dim,
        "config": asdict(ensemble.config),
        "elite_idx": list(ensemble.elite_idx),
        "seed": ensemble.seed,
        "dataset_sha256": ensemble.dataset_sha256,
    }
    arrays = {"member_params": ensemble.member_params, "val_nll": ensemble.val_nll}
    container.write(path, _ENSEMBLE_MAGIC, header, arrays)


def load_ensemble(path) -> EnsembleWorldModel:
    try:
        header, arrays = container.read(
            path, _ENSEMBLE_MAGIC, "leq-lab-ensemble", _ENSEMBLE_VERSION
        )
    except container.ContainerError as err:
        raise WorldModelFormatError(f"ensemble checkpoint {err}") from err
    config = container.from_dict(WorldModelConfig, header["config"])
    spec = member_spec(header["obs_dim"], header["act_dim"], config)
    return EnsembleWorldModel(
        obs_dim=header["obs_dim"],
        act_dim=header["act_dim"],
        spec=spec,
        member_params=arrays["member_params"].reshape(arrays["val_nll"].size, nn.n_params(spec)),
        val_nll=arrays["val_nll"],
        elite_idx=tuple(header["elite_idx"]),
        config=config,
        seed=header["seed"],
        dataset_sha256=header["dataset_sha256"],
    )
