"""Conservative model-based actor-critic on imagined lambda-returns.

The critic minimizes an asymmetric (expectile) squared error against
lambda-return targets computed on imagined rollouts, blended with a
one-step real-data Bellman loss and an EMA anchor:

    L(phi) = beta * L_model + (1 - beta) * L_env + omega * L_ema.

With tau < 0.5, targets above the current estimate are down-weighted, so
the critic tracks a lower expectile of the imagined return distribution
and stays pessimistic about transitions the world model invents.

The actor ascends the same expectile objective through its differentiable
surrogate: lambda-returns are recomputed as explicit functions of rollout
rewards, states and actions (with the per-step (member, eps) tapes and the
expectile weights frozen), and the gradient flows through the reparameter-
ized model steps and the deterministic policy, DDPG-style. At tau = 0.5
both updates reduce to standard lambda-return actor-critic up to a factor
of one half.

Ablation switches select lower-expectile or MOBILE-style LCB-penalized
targets (tau = 0.5 gives the unpenalized, symmetric ones), lambda, one-step
or H-step critic targets, and value-gradient or advantage-weighted policy
updates, so baseline variants share every other code path.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import container, envs, forked, nn, returns, world_model
from .expectile import ExpectileParam, expectile_weight
from .rng import stream

__all__ = [
    "AgentError",
    "AgentFormatError",
    "DivergenceError",
    "AgentConfig",
    "MlpPolicy",
    "ModelStateBuffer",
    "AgentState",
    "build_agent",
    "critic_loss_model",
    "critic_loss_env",
    "critic_loss_ema",
    "critic_loss_total",
    "policy_loss_surrogate",
    "awr_policy_loss",
    "pretrain_bc",
    "pretrain_fqe",
    "expand_dataset",
    "needs_model",
    "elite_helper",
    "train_step",
    "evaluate_policy",
    "save_agent",
    "load_agent",
]

CONSERVATISM_MODES = ("lower_expectile", "mobile_lcb")
CRITIC_TARGET_MODES = ("lambda", "one_step", "h_step")
POLICY_UPDATE_MODES = ("lambda_expectile", "q_value", "awr")


class AgentError(RuntimeError):
    pass


class AgentFormatError(AgentError, container.ContainerError):
    """Corrupt, truncated or incompatible agent checkpoint."""


class DivergenceError(AgentError):
    """A loss or gradient went non-finite; carries a diagnostic snapshot."""

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message)
        self.snapshot = snapshot or {}


@dataclass(frozen=True)
class AgentConfig:
    tau: float = 0.1
    lam: float = 0.95
    gamma: float = 0.997
    horizon: int = 10
    rollout_r: int = 5
    beta: float = 0.25
    omega_ema: float = 1.0
    sigma_exp: float = 1.0
    lr_actor: float = 3e-5
    lr_critic: float = 1e-4
    batch_env: int = 256
    batch_model: int = 256
    t_expand: int = 5000
    n_expand: int = 50000
    n_iter: int = 50000
    ema_decay: float = 0.995
    hidden_actor: tuple[int, ...] = (256, 256)
    hidden_critic: tuple[int, ...] = (256, 256)
    bc_steps: int = 2000
    fqe_steps: int = 20000
    lr_pretrain: float = 1e-3
    conservatism: str = "lower_expectile"
    lcb_c: float = 1.0
    critic_target: str = "lambda"
    policy_update: str = "lambda_expectile"
    awr_alpha: float = 1.0
    use_expansion: bool = True

    def __post_init__(self):
        ExpectileParam(self.tau)  # bounds check
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lambda must lie in [0, 1), got {self.lam}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.horizon < 1 or self.rollout_r < 1:
            raise ValueError("horizon and rollout_r must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.omega_ema < 0.0 or self.sigma_exp < 0.0:
            raise ValueError("omega_ema and sigma_exp must be nonnegative")
        if min(self.lr_actor, self.lr_critic, self.lr_pretrain) <= 0.0:
            raise ValueError("learning rates must be positive")
        if min(self.batch_env, self.batch_model, self.t_expand, self.n_expand, self.n_iter) <= 0:
            raise ValueError("batch sizes and schedule counters must be positive")
        if min(self.bc_steps, self.fqe_steps) < 0:
            raise ValueError("bc_steps and fqe_steps must be nonnegative")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must lie in (0, 1), got {self.ema_decay}")
        if self.conservatism not in CONSERVATISM_MODES:
            raise ValueError(f"conservatism must be one of {CONSERVATISM_MODES}")
        if self.critic_target not in CRITIC_TARGET_MODES:
            raise ValueError(f"critic_target must be one of {CRITIC_TARGET_MODES}")
        if self.policy_update not in POLICY_UPDATE_MODES:
            raise ValueError(f"policy_update must be one of {POLICY_UPDATE_MODES}")
        if self.awr_alpha <= 0.0:
            raise ValueError(f"awr_alpha must be positive, got {self.awr_alpha}")
        if self.lcb_c < 0.0:
            raise ValueError(f"lcb_c must be nonnegative, got {self.lcb_c}")

    def desk_scale(self) -> "AgentConfig":
        """Laptop-budget preset: smaller nets, batches, expansion cadence."""
        return replace(
            self,
            hidden_actor=(64, 64),
            hidden_critic=(64, 64),
            batch_env=128,
            batch_model=64,
            n_iter=50000,
            n_expand=5000,
            t_expand=1000,
        )


@dataclass
class MlpPolicy:
    """Deterministic tanh-squashed policy: (B, S) states to (B, A) actions."""

    spec: nn.MlpSpec
    params: np.ndarray

    def __call__(self, states):
        return _policy_forward(self.spec, self.params, states)[0]


def policy_spec_for(obs_dim: int, act_dim: int, hidden: tuple[int, ...]) -> nn.MlpSpec:
    return nn.MlpSpec(
        input_dim=obs_dim,
        hidden_dims=hidden,
        output_dim=act_dim,
        use_layernorm=False,
        use_symlog_input=False,
        activation="elu",
    )


def critic_spec_for(obs_dim: int, act_dim: int, hidden: tuple[int, ...]) -> nn.MlpSpec:
    return nn.MlpSpec(
        input_dim=obs_dim + act_dim,
        hidden_dims=hidden,
        output_dim=1,
        use_layernorm=True,
        use_symlog_input=True,
        activation="elu",
    )


@dataclass
class ModelStateBuffer:
    """Ring buffer of imagination start states."""

    data: np.ndarray  # (capacity, S)
    size: int = 0
    cursor: int = 0

    @classmethod
    def create(cls, capacity: int, obs_dim: int) -> "ModelStateBuffer":
        return cls(data=np.zeros((capacity, obs_dim)))

    @property
    def capacity(self) -> int:
        return self.data.shape[0]

    def insert(self, states: np.ndarray) -> None:
        """Write rows at the cursor, wrapping; past capacity the last rows win."""
        n, cap = states.shape[0], self.capacity
        kept = states[max(0, n - cap) :]
        start = (self.cursor + n - kept.shape[0]) % cap
        head = min(kept.shape[0], cap - start)
        self.data[start : start + head] = kept[:head]
        self.data[: kept.shape[0] - head] = kept[head:]
        self.cursor = (self.cursor + n) % cap
        self.size = min(self.size + n, cap)

    def sample(self, n: int, rng) -> np.ndarray:
        if self.size == 0:
            raise AgentError("cannot sample from an empty state buffer")
        return self.data[rng.integers(0, self.size, size=n)]


@dataclass
class AgentState:
    config: AgentConfig
    env_spec: envs.EnvSpec
    policy_spec: nn.MlpSpec
    critic_spec: nn.MlpSpec
    policy_params: np.ndarray
    critic_params: np.ndarray
    critic_ema: np.ndarray  # the critic's EMA shadow parameters
    adam_actor: nn.AdamState
    adam_critic: nn.AdamState
    buffer: ModelStateBuffer
    step: int = 0
    extra: dict = field(default_factory=dict)  # the checkpoint header's free-form summary
    seed: int | None = None  # the run seed it was built with
    dataset_sha256: str | None = None  # sha256 of the dataset file the agent trains on

    @property
    def policy(self) -> MlpPolicy:
        return MlpPolicy(self.policy_spec, self.policy_params)


def build_agent(config: AgentConfig, env_spec: envs.EnvSpec, seed: int) -> AgentState:
    p_spec = policy_spec_for(env_spec.obs_dim, env_spec.act_dim, config.hidden_actor)
    c_spec = critic_spec_for(env_spec.obs_dim, env_spec.act_dim, config.hidden_critic)
    p_params = nn.init_params(p_spec, stream(seed, "init.policy"))
    c_params = nn.init_params(c_spec, stream(seed, "init.critic"))
    return AgentState(
        config=config,
        env_spec=env_spec,
        policy_spec=p_spec,
        critic_spec=c_spec,
        policy_params=p_params,
        critic_params=c_params,
        critic_ema=c_params.copy(),
        adam_actor=nn.init_adam(p_params.size, config.lr_actor),
        adam_critic=nn.init_adam(c_params.size, config.lr_critic),
        buffer=ModelStateBuffer.create(10 * config.n_expand, env_spec.obs_dim),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# forward helpers: the only way this module evaluates the critic and the
# policy. A caller that needs only the output takes [0], so the cache is
# freed as the call returns.


def _critic_forward(spec, params, states, actions):
    x = np.concatenate([states, actions], axis=1)
    q, cache = nn.forward_cached(spec, params, x)
    return q[:, 0], cache


def _policy_forward(spec, params, states):
    pre, cache = nn.forward_cached(spec, params, states)
    return np.tanh(pre), cache


@dataclass
class _PolicyEval:
    """The policy at every rollout state, one B-row forward per state; every
    later pass reuses it, and the pathwise actor runs one backward per state on it."""

    acts: np.ndarray  # (K*B, A), k-major: row k * B + b is rollouts.states[b, k]'s
    steps: list  # steps[k]: (acts (B, A), cache) at rollouts.states[:, k]; empty once joined
    cache: tuple | None = None  # the steps' caches joined in order, for AWR's one backward


@dataclass
class _CriticEval:
    """Stacked critic forward over (state, pi(state)) rows of a rollout."""

    q: np.ndarray  # (K*B,)
    cache: tuple
    boot_q: np.ndarray  # (B, H+1), terminal apex zeroed


def _recording_policy(state, steps: list):
    """The rollout policy, appending each call's (acts, cache) to `steps`."""

    def policy(states):
        steps.append(_policy_forward(state.policy_spec, state.policy_params, states))
        return steps[-1][0]

    return policy


def _policy_eval(state, rollouts, steps: list) -> _PolicyEval:
    """`_PolicyEval` from a `_recording_policy` rollout's `steps` and its last states."""
    steps = [*steps, _policy_forward(state.policy_spec, state.policy_params, rollouts.states[:, -1])]
    return _PolicyEval(np.concatenate([acts for acts, _ in steps]), steps)


def _critic_eval(state, rollouts, pol: _PolicyEval) -> _CriticEval:
    B, Hp1, S = rollouts.states.shape
    flat = rollouts.states.transpose(1, 0, 2).reshape(Hp1 * B, S)
    q, cache = _critic_forward(state.critic_spec, state.critic_params, flat, pol.acts)
    boot_q = np.ascontiguousarray(q.reshape(Hp1, B).T)
    rows = np.arange(B)
    apex = rollouts.t_eff
    boot_q[rows, apex] = np.where(rollouts.terminal, 0.0, boot_q[rows, apex])
    return _CriticEval(q, cache, boot_q)


def _split_elites(elite_idx: tuple) -> tuple[tuple, tuple]:
    """(the elites whose LCB predictions a step computes here, the helper's):
    the first n // 2 of n, and the rest. On lcb_spiral, giving this process
    the larger half instead made no measurable difference to the step rate."""
    half = len(elite_idx) // 2
    return elite_idx[:half], elite_idx[half:]


def _model_targets(config: AgentConfig, rollouts, boot_q):
    """Per-(rollout, t) lower-expectile critic regression targets and the
    valid mask.

    critic_target picks the target family: normalized lambda-mixture,
    one-step, or the single full-horizon n-step return. (conservatism
    "mobile_lcb" builds its targets in `_mobile_targets` instead.)
    """
    if config.critic_target == "h_step":
        return returns.full_return_batch(rollouts.rewards, boot_q, rollouts.t_eff, config.gamma)
    lam = config.lam if config.critic_target == "lambda" else 0.0
    return returns.lambda_return_batch(rollouts.rewards, boot_q, rollouts.t_eff, lam, config.gamma)


def _lcb_rows(rollouts) -> tuple:
    """(s_t, a_t) at every valid (b, t) of a rollout, b-major: (N, S), (N, A)."""
    valid = np.arange(rollouts.horizon)[None, :] < rollouts.t_eff[:, None]
    return rollouts.states[:, :-1][valid], rollouts.actions[valid]


def _elite_preds(ensemble, state, members, s, a) -> tuple[list, list]:
    """r_m + gamma * (1 - done(s')) * Q(s', pi(s')) and Q(s', pi(s')) for
    each member m of `members`, in order, where (s' - s, r_m) is m's
    predicted mean and done is `state.env_spec`'s termination rule."""
    preds_r, preds_q = [], []
    x = np.concatenate([s, a], axis=1)
    for m in members:
        out = nn.forward(ensemble.spec, ensemble.member_params[m], x)
        mu = out[:, : ensemble.obs_dim + 1]
        nxt = s + mu[:, : ensemble.obs_dim]
        r = mu[:, ensemble.obs_dim]
        acts = _policy_forward(state.policy_spec, state.policy_params, nxt)[0]
        q = _critic_forward(state.critic_spec, state.critic_params, nxt, acts)[0]
        done = envs.terminated_batch(state.env_spec, nxt)
        preds_r.append(r + state.config.gamma * (1.0 - done) * q)
        preds_q.append(q)
    return preds_r, preds_q


@dataclass
class _MappedElites:
    """The elite helper's function. `state` is a `dataclasses.replace`
    copy of the run's state, whose specs, env spec and config
    `_elite_preds` reads. Its policy and critic parameters, `s`, `a` and
    `preds` are float64 views of one anonymous shared mapping made before
    the fork, so a call carries only its row count n; the helper writes
    `_elite_preds` of the first n rows into `preds[:, :, :n]`, then
    replies."""

    ensemble: object
    state: AgentState  # the run's state, with the mapping's parameters
    members: tuple  # the helper's `_split_elites` share
    s: np.ndarray  # (batch_model * horizon, S): room for every (b, t) of a rollout
    a: np.ndarray  # (batch_model * horizon, A)
    preds: np.ndarray  # (2, len(members), batch_model * horizon): the targets, then Q

    @classmethod
    def create(cls, state: AgentState, ensemble) -> "_MappedElites":
        config = state.config
        rows, members = config.batch_model * config.horizon, _split_elites(ensemble.elite_idx)[1]
        s, a, p, c, preds = forked.shared_arrays(
            (rows, ensemble.obs_dim), (rows, ensemble.act_dim), state.policy_params.shape,
            state.critic_params.shape, (2, len(members), rows),
        )
        return cls(ensemble, replace(state, policy_params=p, critic_params=c), members, s, a, preds)

    def __call__(self, n: int) -> None:
        self.preds[:, :, :n] = _elite_preds(self.ensemble, self.state, self.members, self.s[:n], self.a[:n])


def _send_elites(helper, state, rollouts) -> None:
    """Hand the helper its `_split_elites` share of a step's LCB predictions:
    write the `_lcb_rows` and parameters into its `_MappedElites` mapping,
    then call with the row count alone. The next write follows `result()`."""
    s, a = _lcb_rows(rollouts)
    if n := s.shape[0]:
        mapped = helper.fn
        mapped.s[:n], mapped.a[:n] = s, a
        mapped.state.policy_params[:] = state.policy_params
        mapped.state.critic_params[:] = state.critic_params
        helper.call(n)


def _mobile_targets(state, ensemble, s, a, remote=None) -> np.ndarray:
    """One-step targets r + gamma * (1 - done) * Q(s', pi(s')) at N >= 1
    rows (s, a), averaged over all elites and penalized by c times the
    population std of their Q(s', pi(s')): the MOBILE-style LCB baseline.

    Given the helper that `_send_elites` sent these rows, this process
    evaluates the elites the helper was not sent, and the helper's
    predictions, read from its mapping once `result()` returns, join them
    in elite order."""
    here = ensemble.elite_idx if remote is None else _split_elites(ensemble.elite_idx)[0]
    preds_r, preds_q = _elite_preds(ensemble, state, here, s, a)
    if remote is not None:
        remote.result()
        theirs = remote.fn.preds[:, :, : s.shape[0]]
        preds_r += list(theirs[0])
        preds_q += list(theirs[1])
    preds_r = np.stack(preds_r)  # (E, N)
    preds_q = np.stack(preds_q)
    return preds_r.mean(axis=0) - state.config.lcb_c * preds_q.std(axis=0)


# ---------------------------------------------------------------------------
# critic losses


def _bellman_target(state, batch: dict) -> np.ndarray:
    """r + gamma * (1 - done) * Q(s', pi(s')) on real transitions, as a constant."""
    next_s = batch["next_states"]
    next_acts = _policy_forward(state.policy_spec, state.policy_params, next_s)[0]
    next_q = _critic_forward(state.critic_spec, state.critic_params, next_s, next_acts)[0]
    return batch["rewards"] + state.config.gamma * (1.0 - batch["terminals"]) * next_q


def critic_loss_model(state, ensemble, rollouts, pol: _PolicyEval, remote=None):
    """Asymmetric squared error of Q against rollout targets, with its
    gradient.

    lower_expectile regresses Q(s_t, pi(s_t)), from the stacked critic
    forward over every rollout state, onto its targets at expectile tau.
    mobile_lcb regresses Q(s_t, a_t) at the valid (b, t) of `_lcb_rows`
    onto its LCB targets, built from those actions, symmetrically (tau
    0.5); under awr a_t is the noisy rollout action, not pi(s_t).
    """
    config = state.config
    if config.conservatism == "mobile_lcb":
        s, a = _lcb_rows(rollouts)
        if not s.shape[0]:
            return 0.0, np.zeros_like(state.critic_params)
        q, cache = _critic_forward(state.critic_spec, state.critic_params, s, a)
        y = _mobile_targets(state, ensemble, s, a, remote)
        rows = slice(None)
        tau = 0.5
    else:
        ce = _critic_eval(state, rollouts, pol)
        targets, valid = _model_targets(config, rollouts, ce.boot_q)
        flat_idx = np.argwhere(valid)
        if flat_idx.size == 0:
            return 0.0, np.zeros_like(state.critic_params)
        y = targets[flat_idx[:, 0], flat_idx[:, 1]]
        q, cache = ce.q, ce.cache
        rows = flat_idx[:, 1] * valid.shape[0] + flat_idx[:, 0]  # k-major row of (b, t)
        tau = config.tau
    n_valid = y.size
    diff = q[rows] - y
    w = expectile_weight(diff, tau)
    loss = float((w * diff * diff).mean())
    cot = np.zeros((q.size, 1))
    cot[rows, 0] = 2.0 * w * diff / n_valid
    grad, _ = nn.backward_cached(
        state.critic_spec, state.critic_params, cache, cot, params_only=True
    )
    return loss, grad


def critic_loss_env(state, batch: dict, fwd: tuple):
    """One-step Bellman regression on real transitions, target frozen.

    `fwd` is the critic's `_critic_forward` (q, cache) over batch's (s, a),
    which `critic_loss_ema` shares. Returns the loss and the residual
    q - target; `_real_batch_grad` turns the residuals of both terms into
    one gradient."""
    target = _bellman_target(state, batch)
    diff = fwd[0] - target
    return float(0.5 * (diff * diff).mean()), diff


def critic_loss_ema(state, batch: dict, fwd: tuple):
    """Squared drift of the critic from its EMA shadow, `state.critic_ema`,
    on real (s, a), at `critic_loss_env`'s `fwd`. Returns the loss and the
    residual q - q_shadow."""
    q_shadow = _critic_forward(
        state.critic_spec, state.critic_ema, batch["states"], batch["actions"]
    )[0]
    diff = fwd[0] - q_shadow
    return float((diff * diff).mean()), diff


def _real_batch_grad(state, cache, d_env, d_ema) -> np.ndarray:
    """Gradient of (1 - beta) * L_env + omega * L_ema from their residuals
    at one critic forward's `cache`: the cotangents are mixed first, so one
    backward covers both terms."""
    config = state.config
    cot = (((1.0 - config.beta) * d_env + 2.0 * config.omega_ema * d_ema) / d_env.size)[:, None]
    grad, _ = nn.backward_cached(
        state.critic_spec, state.critic_params, cache, cot, params_only=True
    )
    return grad


def critic_loss_total(state, ensemble, rollouts, env_batch, pol: _PolicyEval, remote=None):
    """beta * L_model + (1 - beta) * L_env + omega * L_ema, with gradient.

    L_ema anchors to the EMA shadow, `state.critic_ema`. The env and EMA
    terms share one critic forward over the real (s, a) batch and one
    backward, `_real_batch_grad`.
    Given the helper `_send_elites` called, `_mobile_targets` shares its
    elites with it, which computes them while the env and EMA terms and the
    LCB-row critic forward run here.
    """
    config = state.config
    target = _bellman_target(state, env_batch)
    q_shadow = _critic_forward(
        state.critic_spec, state.critic_ema, env_batch["states"], env_batch["actions"]
    )[0]
    q, cache = _critic_forward(
        state.critic_spec, state.critic_params, env_batch["states"], env_batch["actions"]
    )
    d_env = q - target
    d_ema = q - q_shadow
    l_env = float(0.5 * (d_env * d_env).mean())
    l_ema = float((d_ema * d_ema).mean())
    g_env_ema = _real_batch_grad(state, cache, d_env, d_ema)
    l_model, g_model = critic_loss_model(state, ensemble, rollouts, pol, remote)
    total = config.beta * l_model + (1.0 - config.beta) * l_env + config.omega_ema * l_ema
    grad = config.beta * g_model + g_env_ema
    parts = {"loss_model": l_model, "loss_env": l_env, "loss_ema": l_ema, "loss_critic": total}
    return total, grad, parts


# ---------------------------------------------------------------------------
# policy losses


def _policy_pathwise(state, ensemble, rollouts, weights, pol: _PolicyEval, ce: _CriticEval, qlam, valid):
    """Loss -mean(w_t * Qlam_t) and its pathwise gradient w.r.t. policy params.

    `weights` (B, H) are constants, and `qlam` and `valid` the lambda-returns
    of `ce`'s bootstraps and their valid mask. The lambda-return is
    differentiated as an explicit function of rollout rewards and
    bootstraps; cotangents then flow backward through critic inputs, frozen
    model steps (skip included) and the tanh policy at every visited state.

    The critic cotangents c_q are known up front, so all critic input
    gradients run as one stacked backward pass. The walk k = H..0 adds s_k's
    critic and model-step action cotangents and runs one policy backward per
    state, on `pol`'s forward at s_k.
    """
    B, H = rollouts.rewards.shape
    if rollouts.caches is None:
        raise AgentError("policy update needs rollouts recorded with differentiable=True")
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(state.policy_params), {"qlam_mean": 0.0}
    loss = -float((weights * qlam).sum() / n_valid)

    rows = np.arange(B)
    bootstrap_ok = np.zeros((B, H + 1))
    k_idx = np.arange(H + 1)[None, :]
    bootstrap_ok[k_idx <= rollouts.t_eff[:, None]] = 1.0
    bootstrap_ok[rows, rollouts.t_eff] = np.where(rollouts.terminal, 0.0, 1.0)
    c_r, c_q = returns.policy_grad_coefficients(
        -weights / n_valid, rollouts.t_eff, bootstrap_ok, state.config.lam, state.config.gamma
    )

    S = ensemble.obs_dim
    # all critic input gradients at once: cotangent c_q[b, k] on row k*B + b
    _, g_in = nn.backward_cached(
        state.critic_spec, state.critic_params, ce.cache, c_q.T.reshape(-1, 1), input_only=True
    )
    g_s_crit = g_in[:, :S].reshape(H + 1, B, S)
    g_a_crit = g_in[:, S:].reshape(H + 1, B, -1)
    theta_grad = np.zeros_like(state.policy_params)

    def policy_backprop(k, g_action):
        # push s_k's action cotangent through tanh(mlp(s_k))
        acts, cache = pol.steps[k]
        g_params, g_states = nn.backward_cached(
            state.policy_spec, state.policy_params, cache, g_action * (1.0 - acts * acts)
        )
        np.add(theta_grad, g_params, out=theta_grad)
        return g_states

    g_s_next = g_s_crit[H] + policy_backprop(H, g_a_crit[H])
    for k in range(H - 1, -1, -1):
        alive = (rollouts.t_eff > k)[:, None]
        g_next = g_s_next * alive
        g_reward = c_r[:, k]
        g_s_model, g_a_model = world_model.step_backward(
            ensemble, rollouts.caches[k], g_next, g_reward
        )
        g_s_model = np.where(alive, g_s_model, 0.0)
        g_s_pol = policy_backprop(k, np.where(alive, g_a_model, 0.0) + g_a_crit[k])
        g_s_next = g_s_model + g_s_crit[k] + g_s_pol + g_s_next * (~alive)
    info = {"qlam_mean": float(qlam[valid].mean())}
    return loss, theta_grad, info


def policy_loss_surrogate(state, ensemble, rollouts, pol: _PolicyEval):
    """Expectile-weighted lambda-return ascent with frozen weights.

    w_t = |tau - 1(Q(s_t, a_t) > Qlam_t)| uses the rollout actions a_t; the
    indicator and weight are constants for the gradient. The rollout ran
    noise-free, so a_t = pi(s_t) and Q(s_t, a_t) is the bootstrap at t.
    """
    config = state.config
    ce = _critic_eval(state, rollouts, pol)
    qlam, valid = returns.lambda_return_batch(
        rollouts.rewards, ce.boot_q, rollouts.t_eff, config.lam, config.gamma
    )
    q_taken = np.where(valid, ce.boot_q[:, :-1], 0.0)
    weights = np.where(valid, expectile_weight(q_taken - qlam, config.tau), 0.0)
    loss, grad, info = _policy_pathwise(state, ensemble, rollouts, weights, pol, ce, qlam, valid)
    info["weight_mean"] = float(weights[valid].mean()) if valid.any() else 0.0
    info["weights"] = weights
    return loss, grad, info


def _policy_q_value(state, states):
    """DDPG-style loss -mean Q(s, pi(s)) on a batch of states."""
    acts, p_cache = _policy_forward(state.policy_spec, state.policy_params, states)
    q, c_cache = _critic_forward(state.critic_spec, state.critic_params, states, acts)
    loss = -float(q.mean())
    cot = np.full((q.size, 1), -1.0 / q.size)
    _, g_in = nn.backward_cached(
        state.critic_spec, state.critic_params, c_cache, cot, input_only=True
    )
    g_action = g_in[:, states.shape[1] :]
    g_pre = g_action * (1.0 - acts * acts)
    grad, _ = nn.backward_cached(
        state.policy_spec, state.policy_params, p_cache, g_pre, params_only=True
    )
    return loss, grad, {}


def awr_policy_loss(state, rollouts, pol: _PolicyEval):
    """Advantage-weighted regression toward rollout actions.

    Weights min(exp(A_t / alpha), 20) are constants; the loss pulls
    pi(s_t) toward the recorded (noisy) rollout actions. pi(s_t) comes from
    `pol`, and the one backward runs on its joined cache, with zero
    cotangents on the rows of invalid (b, t).
    """
    if not rollouts.t_eff.any():
        return 0.0, np.zeros_like(state.policy_params), {}
    config = state.config
    boot_q = _critic_eval(state, rollouts, pol).boot_q
    qlam, valid = returns.lambda_return_batch(
        rollouts.rewards, boot_q, rollouts.t_eff, config.lam, config.gamma
    )
    flat_idx = np.argwhere(valid)
    a_taken = rollouts.actions[flat_idx[:, 0], flat_idx[:, 1]]
    q_pol = boot_q[flat_idx[:, 0], flat_idx[:, 1]]
    adv = qlam[flat_idx[:, 0], flat_idx[:, 1]] - q_pol
    with np.errstate(over="ignore"):  # exp overflows to inf past 709 * alpha; the cap is 20
        w = np.minimum(np.exp(adv / config.awr_alpha), 20.0)
    rows = flat_idx[:, 1] * valid.shape[0] + flat_idx[:, 0]  # k-major row of (b, t)
    acts = pol.acts[rows]
    res = acts - a_taken
    loss = float((w * (res * res).sum(axis=1)).mean())
    g_pre = np.zeros_like(pol.acts)
    g_pre[rows] = 2.0 * w[:, None] * res / w.size * (1.0 - acts * acts)
    grad, _ = nn.backward_cached(
        state.policy_spec, state.policy_params, pol.cache, g_pre, params_only=True
    )
    return loss, grad, {"awr_weight_mean": float(w.mean())}


# ---------------------------------------------------------------------------
# pretraining


def _check_rows(states: np.ndarray, stage: str) -> None:
    if states.shape[0] == 0:
        raise AgentError(f"{stage} pretraining needs transitions, but the dataset holds none")


# the one FQE step size whose 128-row halves tests pin as rounding like
# the whole call, at every workload's network shapes: the default batch
_SPLIT_ROWS = 256
# an `_Fqe`'s tasks: the helper's rounding check, a split step's two
# passes, and the two table fills
_CHECK, _ROWS, _SUMS, _FILL_NEXT_A, _FILL_Y = range(5)


@dataclass
class _Fqe:
    """One FQE run of `pretrain_fqe`: the code its whole and split steps
    share, and the arrays it works on.

    `self(task, lo, hi)` does part [lo, hi) of a task and writes only into
    that part: a table fill's blocks (`_FILL_NEXT_A`, `_FILL_Y`), a split
    step's forward and row pass of `nn.backward_rows` at its rows
    (`_ROWS`), its `nn.backward_sums` part lo (`_SUMS`), or the rounding
    check (`_CHECK`). `_halves` runs a task on its whole range here, or on
    one half here and the other in a helper, whose function is this object.
    A split step's two processes each write their half of the rows, then
    each takes one part of the sums over all the rows, and this process
    checks the loss and takes the Adam step. Each weight product and sum
    is one call over the whole batch, so every bit is as in one whole call
    wherever the halves give the whole call's rows.

    Where steps split (`create`), the live critic, the tables and the
    split's arrays are views of one anonymous shared mapping made before
    the fork: a step's dataset rows `idx`, its `rows`, its loss rows, its
    gradient, and the outcome of the rounding check. The helper's first
    call (`_CHECK`) runs the forward and the row pass on the dataset's
    first rows, whole and in halves, and the split goes on only if the
    halves give the whole call's bits. They do at every workload's shapes,
    but not at every width: a (100, 50) network rounds apart at 128 rows.
    The check runs in the helper alone, never through `_halves`, so that
    its arrays never add to this process's peak memory.
    """

    spec: nn.MlpSpec
    states: np.ndarray  # (N, S)
    actions: np.ndarray  # (N, A)
    rewards: np.ndarray  # (N,)
    next_states: np.ndarray  # (N, S)
    terminals: np.ndarray  # (N,) as float64
    policy: MlpPolicy
    gamma: float
    size: int  # the rows of a step and of a table fill's call
    live: np.ndarray  # (P,) the critic being trained
    next_a: np.ndarray  # (N, A) pi(s') at every row
    y: np.ndarray  # (N,) the targets at every row
    # the split's mapped arrays, where steps split
    idx: np.ndarray | None = None  # (_SPLIT_ROWS,) a step's rows, as float64
    rows: tuple = ()  # backward_rows' arrays at _SPLIT_ROWS rows
    loss: np.ndarray | None = None  # (_SPLIT_ROWS,) a step's residuals
    grad: np.ndarray | None = None  # (P,)
    alike: np.ndarray | None = None  # (), 1 once the check has passed

    @classmethod
    def create(cls, spec, arrays, policy, gamma: float, size: int, params, split: bool) -> "_Fqe":
        """A run from `params` on the dataset's flat `arrays`. With `split`,
        where a step takes `_SPLIT_ROWS` rows and `forked.can_fork()`
        allows, the live critic, the tables and the split's arrays are
        mapped; elsewhere nothing is, and the live critic is `params`."""
        states, actions, rewards, next_states, terminals = arrays
        n, act_dim = actions.shape
        run = (spec, states, actions, rewards, next_states, terminals.astype(np.float64), policy, gamma, size)
        if not (split and size == _SPLIT_ROWS and forked.can_fork()):
            return cls(*run, params, np.empty((n, act_dim)), np.empty(n))
        x = np.concatenate([states[:1], actions[:1]], axis=1)
        shapes = [(_SPLIT_ROWS, *w.shape[1:]) for w in _passes(spec, params, x)[1:]]
        live, idx, loss, grad, alike, *rest = forked.shared_arrays(
            params.shape, (_SPLIT_ROWS,), (_SPLIT_ROWS,), params.shape, (), *shapes, (n, act_dim), (n,)
        )
        live[:] = params
        *rows, next_a, y = rest
        return cls(*run, live, next_a, y, idx, tuple(rows), loss, grad, alike)

    def targets(self, rows, next_a, target) -> np.ndarray:
        """r + gamma * (1 - done) * Q_target(s', next_a) at dataset rows `rows`."""
        next_q = _critic_forward(self.spec, target, self.next_states[rows], next_a)[0]
        return self.rewards[rows] + self.gamma * (1.0 - self.terminals[rows]) * next_q

    def step_rows(self, idx, y_idx) -> tuple:
        """(cache, cotangent, residuals) of the live critic's forward at a
        step's dataset rows `idx`, whose targets are y_idx."""
        q, cache = _critic_forward(self.spec, self.live, self.states[idx], self.actions[idx])
        diff = q - y_idx
        return cache, (2.0 * diff / self.size)[:, None], diff

    def __call__(self, task: int, lo: int, hi: int) -> None:
        if task == _ROWS:
            idx = self.idx[lo:hi].astype(np.intp)
            cache, cot, self.loss[lo:hi] = self.step_rows(idx, self.y[idx])
            for buf, part in zip(self.rows, nn.backward_rows(self.spec, self.live, cache, cot)):
                buf[lo:hi] = part
        elif task == _SUMS:
            nn.backward_sums(self.spec, self.live, self.rows, self.grad, lo)
        elif task == _CHECK:
            self._check()
        else:
            # every call takes exactly `size` rows: the last block wraps
            # around to row 0 and keeps only its rows not already filled
            n = self.y.shape[0]
            for start in range(0, n, self.size)[lo:hi]:
                rows, end = np.arange(start, start + self.size) % n, start + self.size
                if task == _FILL_NEXT_A:
                    self.next_a[start:end] = self.policy(self.next_states[rows])[: n - start]
                else:
                    self.y[start:end] = self.targets(rows, self.next_a[rows], self.live)[: n - start]

    def _check(self) -> None:
        x = np.concatenate([self.states[:_SPLIT_ROWS], self.actions[:_SPLIT_ROWS]], axis=1)
        half = _SPLIT_ROWS // 2
        whole, top, bottom = (_passes(self.spec, self.live, part) for part in (x, x[:half], x[half:]))
        pairs = zip(whole, top, bottom)
        self.alike[...] = all(np.concatenate(p).tobytes() == w.tobytes() for w, *p in pairs)


def _passes(spec, params, x) -> tuple:
    """The forward's output and the row pass at inputs x, with the output
    as the cotangent."""
    y, cache = nn.forward_cached(spec, params, x)
    return (y, *nn.backward_rows(spec, params, cache, y))


def _halves(helper, fqe: _Fqe, task: int, n: int) -> None:
    """Run `fqe`'s task on [0, n) here without a helper, or on [n // 2, n)
    in the helper and on [0, n // 2) here, and wait for both."""
    if helper is None:
        fqe(task, 0, n)
        return
    helper.call(task, n // 2, n)
    fqe(task, 0, n // 2)
    helper.result()


@contextlib.contextmanager
def _fqe_helper(fqe: _Fqe, helper_s: dict | None):
    """`forked.serving(fqe, "fqe")` where its steps split, or None, also
    once its rounding check has failed; a helper's busy_s and wait_s go
    into `helper_s`, if given."""
    with forked.serving(fqe, "fqe") if fqe.alike is not None else contextlib.nullcontext() as helper:
        try:
            if helper is not None:
                helper.call(_CHECK, 0, 0)
                helper.result()
                if not fqe.alike:
                    helper.close()  # whole steps from here on
            yield helper if helper is not None and fqe.alike else None
        finally:
            if helper is not None and helper_s is not None:
                helper_s.update(busy_s=helper.busy_s, wait_s=helper.wait_s)


def pretrain_bc(dataset, spec: nn.MlpSpec, params: np.ndarray, steps: int, seed: int, lr: float, batch: int = 256):
    """Behavioral cloning: minimize ||tanh(mlp(s)) - a||^2 over the dataset.

    Returns the params and the last step's batch MSE, taken before its
    update (nan at zero steps). Raises DivergenceError, with the step in
    its snapshot, when a step's loss is non-finite before its update, as
    `pretrain_fqe` does; the residuals' dot product with themselves is
    finite exactly when the loss is, as the tanh policy's actions and the
    dataset's lie in [-1, 1]. A last update that blows up surfaces at
    FQE's first step, as FQE's own last one does at the main loop's.

    Its steps are not split across two processes as FQE's are: at 128 rows
    the policy's forward and row pass take over half the time of 256, and
    on `modelfree_chain` the split's fixed costs (the fork, the mapping and
    `multiprocessing`'s import) left `bc_s` higher in 4 of 5 benchmark pairs.
    """
    states, actions, _, _, _ = dataset.flat_arrays()
    _check_rows(states, "BC")
    if steps <= 0:
        return params, float("nan")
    rng = stream(seed, "pretrain.bc")
    adam = nn.init_adam(params.size, lr)
    for step_i in range(steps):
        idx = rng.integers(0, states.shape[0], size=min(batch, states.shape[0]))
        acts, cache = _policy_forward(spec, params, states[idx])
        res = acts - actions[idx]
        if not math.isfinite(np.dot(res.ravel(), res.ravel())):
            raise DivergenceError("BC loss diverged", {"step": step_i})
        g_act = 2.0 * res / res.shape[0]
        g_pre = g_act * (1.0 - acts * acts)
        grad, _ = nn.backward_cached(spec, params, cache, g_pre, params_only=True)
        adam, params = nn.adam_step(adam, params, grad)
    return params, float((res * res).sum(axis=1).mean())


def pretrain_fqe(dataset, policy, spec: nn.MlpSpec, params: np.ndarray, steps: int, gamma: float, seed: int, lr: float,
                 batch: int = 256, target_every: int = 250, *, helper_s: dict | None = None):
    """Fitted Q evaluation of a frozen policy on the offline dataset.

    Bootstraps come from a parameter snapshot refreshed every target_every
    steps, so each stretch of updates regresses onto fixed targets
    (approximate value iteration). Bootstrapping from the live parameters
    instead is unstable here: at gamma near 1 the moving targets chase the
    regression downhill and the values drift far past the true ones.

    Neither the policy nor the snapshot changes within a stretch, so on a
    small enough dataset they are evaluated once per dataset row, into two
    float64 tables: the next actions pi(s') once before the first step, and
    the targets y = r + gamma * (1 - done) * Q_snapshot(s', pi(s')) at the
    start of each stretch. The snapshot is the live critic at that moment,
    so it is never copied, and a snapshot due after the last step is never
    taken. A step gathers y at its sampled rows and trains the live critic
    on them.

    The tables cost ceil(N / size) forwards of each network up front, then
    ceil(N / size) critic forwards per stretch, where size = min(batch, N);
    evaluating both networks on every step's batch costs 2 forwards a step.
    A step itself costs one forward and one backward either way. The
    tables are built only while they cost fewer forwards,
    ceil(N / size) * (1 + stretches) < 2 * steps, that is while N stays
    below about 2 * batch * steps / (1 + stretches) rows: 51,200 at 300
    steps with the defaults, nearing 2 * batch * target_every = 128,000 over
    many stretches. Larger datasets (D4RL's 1M rows) are evaluated batch by
    batch, with the snapshot copied at each refresh. A split run (below)
    shares the table fills between two processes, which halves their wall
    time, but per-batch evaluation is never split, so the rule, which counts
    forwards, only understates the tables' advantage there.

    The tables hold the bits that per-step batches would give because every
    forward that fills them takes exactly size rows, a step's batch size.
    BLAS chooses its kernel by the row count, so one whole-dataset forward,
    or a short last block, rounds some rows differently; the last block
    wraps around to the first rows instead. This also needs every row of a
    call to round alike wherever it sits, which holds when the row count is
    a multiple of the kernel's row unroll, as 256 is. Below one batch, at a
    ragged count such as 11 rows, the last rows of a call round apart, and
    the tables can differ from per-step batches in the last bits.

    The run's arrays, tables and live critic sit in one `_Fqe`, whose
    methods fill the tables and compute a step's rows for whole and split
    steps alike. With the tables, where a step takes `_SPLIT_ROWS` rows and
    `forked.can_fork` allows, a helper fills half of each table's blocks
    and computes half of each step, and every bit is as in whole steps.
    A forked helper's busy_s and wait_s go into `helper_s`, if given.
    `cli` runs FQE once the world model's helper has been joined, so a
    model-based run splits it too. The helper is killed when FQE ends,
    and the shared mapping is unmapped as this returns.
    """
    loss = float("nan")
    arrays = dataset.flat_arrays()
    _check_rows(arrays[0], "FQE")
    if steps <= 0:
        return params, loss
    rng = stream(seed, "pretrain.fqe")
    adam = nn.init_adam(params.size, lr)
    n = arrays[0].shape[0]
    size = min(batch, n)
    blocks = -(-n // size)
    tables = blocks * (1 + -(-steps // target_every)) < 2 * steps
    fqe = _Fqe.create(spec, arrays, policy, gamma, size, params, split=tables)
    with _fqe_helper(fqe, helper_s) as helper:
        if tables:
            _halves(helper, fqe, _FILL_NEXT_A, blocks)
        for step_i in range(steps):
            if step_i % target_every == 0:
                if tables:
                    _halves(helper, fqe, _FILL_Y, blocks)
                else:
                    target = fqe.live.copy()
            idx = rng.integers(0, n, size=size)
            if helper is None:
                y_idx = fqe.y[idx] if tables else fqe.targets(idx, policy(fqe.next_states[idx]), target)
                cache, cot, diff = fqe.step_rows(idx, y_idx)
            else:
                fqe.idx[:] = idx
                _halves(helper, fqe, _ROWS, _SPLIT_ROWS)
                diff = fqe.loss
            loss = float((diff * diff).mean())
            if not np.isfinite(loss):
                raise DivergenceError("FQE loss diverged", {"step": step_i})
            if helper is None:
                grad, _ = nn.backward_cached(spec, fqe.live, cache, cot, params_only=True)
            else:
                _halves(helper, fqe, _SUMS, 2)
                grad = fqe.grad
            nn.adam_step(adam, fqe.live, grad)
    params[...] = fqe.live
    return params, loss


# ---------------------------------------------------------------------------
# dataset expansion and the training step


def expand_dataset(
    buffer: ModelStateBuffer,
    ensemble,
    policy,
    config: AgentConfig,
    env_states: np.ndarray,
    termination,
    rng,
) -> int:
    """Add up to n_expand pre-step states from noisy imagined rollouts.

    Start states come from the real dataset; rollouts run rollout_r steps
    under pi + N(0, sigma_exp^2) noise, and every state the rollout stood
    in *before* stepping is inserted (so rollout_r=1 re-inserts only the
    dataset states themselves).
    """
    inserted = 0
    stalls = 0
    while inserted < config.n_expand:
        want = config.n_expand - inserted
        n_roll = max(1, min(512, -(-want // config.rollout_r)))
        starts = env_states[rng.integers(0, env_states.shape[0], size=n_roll)]
        ro = world_model.imagine_rollout(
            ensemble, policy, starts, config.rollout_r, termination, config.sigma_exp, rng
        )
        # pre-step states of every valid transition, rows b-major
        stood = np.arange(config.rollout_r)[None, :] < ro.t_eff[:, None]
        new = ro.states[:, :-1][stood][: config.n_expand - inserted]
        buffer.insert(new)
        inserted += new.shape[0]
        if new.shape[0] == 0:
            stalls += 1
            if stalls >= 100:
                raise AgentError("expansion stalled: every sampled start state is terminal")
        else:
            stalls = 0
    return inserted


def needs_model(config: AgentConfig) -> bool:
    """Whether a run imagines rollouts, and so trains or loads a world model:
    the critic's beta > 0 model term, or a lambda_expectile or awr actor."""
    return config.beta > 0.0 or config.policy_update in ("lambda_expectile", "awr")


def elite_helper(state: AgentState, ensemble):
    """A context that yields the `forked.Helper` for `state`'s main-loop
    steps, bound to `ensemble`'s elite predictions, or None.

    Its function, a `_MappedElites`, holds a copy of `state` whose policy
    and critic parameters live in the one mapping it shares with the
    helper: `_send_elites` writes a step's LCB rows and parameters there
    and calls with the row count alone, and the helper writes its
    predictions there, so a call pickles nothing either way.

    Only a mobile_lcb step with beta > 0 gives a helper work, and only
    with a model and a step left to run is one forked (where
    `forked.can_fork` allows). Other steps run here alone: on `leq_maze`
    the real-batch critic terms (about 1.5 ms of a 20 ms step) did not pay
    for their transfer and for the slowdown a busy second CPU brings. A
    model-free run forks none here; it loads `multiprocessing` (about
    0.6 MB of peak RSS) only for its FQE helper.
    """
    config = state.config
    uses = config.beta > 0.0 and config.conservatism == "mobile_lcb"
    if not uses or ensemble is None or state.step >= config.n_iter:
        return contextlib.nullcontext()
    return forked.serving(_MappedElites.create(state, ensemble), "main_loop")


def train_step(
    state: AgentState,
    ensemble,
    env_batch: dict,
    start_states: np.ndarray,
    rng,
    logged: bool = True,
    helper=None,
) -> dict:
    """One critic step, one EMA update, one actor step; returns metrics.

    Every loss reads the networks, the config and the EMA shadow from
    `state` itself, so the step builds no bundle of them. The critic's Adam
    step updates `state.critic_params` in place, so the actor's loss sees
    the new critic.

    At beta > 0 the critic step is `critic_loss_total`. At beta 0 it is
    `critic_loss_env` and `critic_loss_ema` on one shared critic forward
    over the real (s, a): each returns its loss and residual, and
    `_real_batch_grad` mixes the residuals into one backward.

    `mean_q` needs one more critic forward, so only a `logged` step has it.

    Given the helper `elite_helper` yields for this state and ensemble,
    the step has it compute its `_split_elites` share of the LCB
    predictions while this process evaluates the rollout, the real-batch
    critic terms and the other elites. Every result has the bits it has
    here.
    """
    config = state.config
    term_fn = functools.partial(envs.terminated_batch, state.env_spec)
    # the rollout's policy forwards serve both loss phases, as the policy is fixed until its Adam
    # step; the lambda_expectile and awr actors and the lower_expectile model term read them
    reads_pol = config.policy_update != "q_value" or config.conservatism == "lower_expectile"
    rollouts, steps = None, []
    if needs_model(config):
        noise = config.sigma_exp if config.policy_update == "awr" else 0.0
        rollouts = world_model.imagine_rollout(
            ensemble,
            _recording_policy(state, steps) if reads_pol else state.policy,
            start_states,
            config.horizon,
            term_fn,
            noise,
            rng,
            differentiable=config.policy_update == "lambda_expectile",
        )
    if helper is not None:
        _send_elites(helper, state, rollouts)

    pol = _policy_eval(state, rollouts, steps) if reads_pol and rollouts is not None else None
    if config.policy_update == "awr":  # joined while the helper computes its elites
        pol.cache, pol.steps = nn._concat_caches([cache for _, cache in pol.steps]), []
    del steps  # so a joined `pol` holds the rollout's policy caches once
    if config.beta > 0.0:
        total, c_grad, parts = critic_loss_total(state, ensemble, rollouts, env_batch, pol, helper)
    else:
        fwd = _critic_forward(
            state.critic_spec, state.critic_params, env_batch["states"], env_batch["actions"]
        )
        l_env, d_env = critic_loss_env(state, env_batch, fwd)
        l_ema, d_ema = critic_loss_ema(state, env_batch, fwd)
        total = l_env + config.omega_ema * l_ema
        c_grad = _real_batch_grad(state, fwd[1], d_env, d_ema)
        parts = {"loss_model": 0.0, "loss_env": l_env, "loss_ema": l_ema, "loss_critic": total}
    if not (np.isfinite(total) and np.isfinite(c_grad).all()):
        raise DivergenceError("critic loss diverged", {"step": state.step, **parts})
    state.adam_critic, state.critic_params = nn.adam_step(
        state.adam_critic, state.critic_params, c_grad
    )
    nn.ema_update(state.critic_ema, state.critic_params, config.ema_decay)

    if config.policy_update == "lambda_expectile":
        p_loss, p_grad, p_info = policy_loss_surrogate(state, ensemble, rollouts, pol)
    elif config.policy_update == "awr":
        p_loss, p_grad, p_info = awr_policy_loss(state, rollouts, pol)
    else:
        p_loss, p_grad, p_info = _policy_q_value(state, env_batch["states"])
    if not (np.isfinite(p_loss) and np.isfinite(p_grad).all()):
        raise DivergenceError("policy loss diverged", {"step": state.step, "loss": p_loss})
    state.adam_actor, state.policy_params = nn.adam_step(
        state.adam_actor, state.policy_params, p_grad
    )
    state.step += 1

    metrics = {"step": state.step, "loss_policy": p_loss}
    if logged:
        q = _critic_forward(
            state.critic_spec, state.critic_params, env_batch["states"], env_batch["actions"]
        )[0]
        metrics["mean_q"] = float(np.mean(q))
    scalars = {k: v for k, v in p_info.items() if isinstance(v, (int, float))}
    return {**metrics, **parts, **scalars}


def evaluate_policy(policy, env_spec: envs.EnvSpec, n_episodes: int, seed: int) -> dict:
    """Deterministic rollouts in the true environment, every episode in lockstep.

    `policy` maps (B, S) states to (B, A) actions. Episode `ep` starts from
    its own `stream(seed, "eval.episode", ep)` reset and runs until it
    terminates or reaches the horizon; at each step, the live episodes
    share one policy call and one batched `envs.env_step`. Returns add per
    episode in step order and the episode totals add in episode order, so
    the scores equal stepping each episode alone with the same actions. A
    forward over B rows may round differently in the last bit from a
    one-row one.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    states = np.array(
        [envs.reset_state(env_spec, stream(seed, "eval.episode", ep)) for ep in range(n_episodes)]
    )
    ep_returns = np.zeros(n_episodes)
    done = np.zeros(n_episodes, dtype=bool)
    live = np.arange(n_episodes)
    lengths = 0
    for _ in range(env_spec.horizon):
        live_states = states[live]
        next_states, rewards, live_done = envs.env_step(env_spec, live_states, policy(live_states))
        states[live] = next_states
        ep_returns[live] += rewards
        done[live] = live_done
        lengths += live.size
        live = live[~live_done]
        if live.size == 0:
            break
    total_return = 0.0
    for ep_return in ep_returns.tolist():
        total_return += ep_return
    successes = int(envs.is_success(env_spec, states, done).sum())
    return {
        "mean_return": total_return / n_episodes,
        "success_rate": successes / n_episodes,
        "mean_length": lengths / n_episodes,
    }


# ---------------------------------------------------------------------------
# checkpointing

_AGENT_MAGIC = b"LEQA"
_AGENT_VERSION = 3


def save_agent(path, state: AgentState) -> None:
    """Write `state` to `path`, all of it: the header records its `seed`
    and `dataset_sha256`, which a resume checks against its own run, and
    its `extra`, so a loaded state saves to the same bytes."""
    header = {
        "format": "leq-lab-agent",
        "version": _AGENT_VERSION,
        "config": asdict(state.config),
        "env": state.env_spec.name,
        "policy_spec": asdict(state.policy_spec),
        "critic_spec": asdict(state.critic_spec),
        "step": state.step,
        "adam_actor_t": state.adam_actor.step,
        "adam_critic_t": state.adam_critic.step,
        "buffer_size": state.buffer.size,
        "buffer_cursor": state.buffer.cursor,
        "buffer_capacity": state.buffer.capacity,
        "seed": state.seed,
        "dataset_sha256": state.dataset_sha256,
        "extra": state.extra,
    }
    arrays = {
        "policy_params": state.policy_params,
        "critic_params": state.critic_params,
        "ema_shadow": state.critic_ema,
        "adam_actor_m": state.adam_actor.m,
        "adam_actor_v": state.adam_actor.v,
        "adam_critic_m": state.adam_critic.m,
        "adam_critic_v": state.adam_critic.v,
        "buffer_data": state.buffer.data,
    }
    container.write(path, _AGENT_MAGIC, header, arrays)


def load_agent(path) -> AgentState:
    try:
        header, views = container.read(path, _AGENT_MAGIC, "leq-lab-agent", _AGENT_VERSION)
    except container.ContainerError as err:
        raise AgentFormatError(f"agent checkpoint {err}") from err
    config = container.from_dict(AgentConfig, header["config"])
    env_spec = envs.make_env_spec(header["env"])
    adam_a = nn.AdamState(
        m=views["adam_actor_m"],
        v=views["adam_actor_v"],
        step=header["adam_actor_t"],
        lr=config.lr_actor,
    )
    adam_c = nn.AdamState(
        m=views["adam_critic_m"],
        v=views["adam_critic_v"],
        step=header["adam_critic_t"],
        lr=config.lr_critic,
    )
    buffer = ModelStateBuffer(
        data=views["buffer_data"].reshape(header["buffer_capacity"], env_spec.obs_dim),
        size=header["buffer_size"],
        cursor=header["buffer_cursor"],
    )
    return AgentState(
        config=config,
        env_spec=env_spec,
        policy_spec=container.from_dict(nn.MlpSpec, header["policy_spec"]),
        critic_spec=container.from_dict(nn.MlpSpec, header["critic_spec"]),
        policy_params=views["policy_params"],
        critic_params=views["critic_params"],
        critic_ema=views["ema_shadow"],
        adam_actor=adam_a,
        adam_critic=adam_c,
        buffer=buffer,
        step=header["step"],
        extra=header["extra"],
        seed=header["seed"],
        dataset_sha256=header["dataset_sha256"],
    )
