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
    "MlpCritic",
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
        return np.tanh(nn.forward(self.spec, self.params, states))


@dataclass
class MlpCritic:
    """Scalar Q network: (B, S) states and (B, A) actions to (B,) values."""

    spec: nn.MlpSpec
    params: np.ndarray

    def __call__(self, states, actions):
        x = np.concatenate([states, actions], axis=1)
        return nn.forward(self.spec, self.params, x)[:, 0]


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
    critic_ema: nn.EmaTracker
    adam_actor: nn.AdamState
    adam_critic: nn.AdamState
    buffer: ModelStateBuffer
    step: int = 0
    extra: dict = field(default_factory=dict)  # the checkpoint header's free-form summary
    seed: int | None = None  # the run seed the checkpoint header recorded, once loaded

    @property
    def policy(self) -> MlpPolicy:
        return MlpPolicy(self.policy_spec, self.policy_params)

    @property
    def critic(self) -> MlpCritic:
        return MlpCritic(self.critic_spec, self.critic_params)


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
        critic_ema=nn.init_ema(c_params, config.ema_decay),
        adam_actor=nn.init_adam(p_params.size, config.lr_actor),
        adam_critic=nn.init_adam(c_params.size, config.lr_critic),
        buffer=ModelStateBuffer.create(10 * config.n_expand, env_spec.obs_dim),
    )


# ---------------------------------------------------------------------------
# forward helpers


def _critic_forward(spec, params, states, actions):
    x = np.concatenate([states, actions], axis=1)
    q, cache = nn.forward_cached(spec, params, x)
    return q[:, 0], cache


def _policy_forward(spec, params, states):
    pre, cache = nn.forward_cached(spec, params, states)
    return np.tanh(pre), cache


@dataclass
class _PolicyEval:
    """Stacked policy forward over every rollout state, k-major.

    Row k * B + b corresponds to rollouts.states[b, k]; keeping the cache
    lets later backward passes reuse the forward instead of recomputing it.
    """

    flat_states: np.ndarray  # (K*B, S)
    acts: np.ndarray  # (K*B, A)
    cache: tuple


@dataclass
class _CriticEval:
    """Stacked critic forward over (state, pi(state)) rows of a rollout."""

    q: np.ndarray  # (K*B,)
    cache: tuple
    boot_q: np.ndarray  # (B, H+1), terminal apex zeroed


def _policy_eval(plan, rollouts) -> _PolicyEval:
    B, Hp1, S = rollouts.states.shape
    flat = rollouts.states.transpose(1, 0, 2).reshape(Hp1 * B, S)
    pre, cache = nn.forward_cached(plan.policy_spec, plan.policy_params, flat)
    return _PolicyEval(flat, np.tanh(pre), cache)


def _critic_eval(plan, rollouts, pol: _PolicyEval) -> _CriticEval:
    B, Hp1, S = rollouts.states.shape
    q, cache = nn.forward_cached(
        plan.critic_spec, plan.critic_params, np.concatenate([pol.flat_states, pol.acts], axis=1)
    )
    q = q[:, 0]
    boot_q = np.ascontiguousarray(q.reshape(Hp1, B).T)
    rows = np.arange(B)
    apex = rollouts.t_eff
    boot_q[rows, apex] = np.where(rollouts.terminal, 0.0, boot_q[rows, apex])
    return _CriticEval(q, cache, boot_q)


@dataclass
class _Plan:
    """Parameter bundle threaded through loss computations, with the env
    whose termination rule the MOBILE targets apply to predicted states."""

    policy_spec: nn.MlpSpec
    policy_params: np.ndarray
    critic_spec: nn.MlpSpec
    critic_params: np.ndarray
    env_spec: envs.EnvSpec


@dataclass
class _Remote:
    """A mobile_lcb train step's share of the elites in its `elite_helper`,
    and the `_lcb_rows` (s_t, a_t): the helper has a call in flight on
    them unless they are empty."""

    helper: object
    rows: tuple


def _split_elites(elite_idx: tuple) -> tuple[tuple, tuple]:
    """(the elites whose LCB predictions a step computes here, the helper's):
    the first n // 2 of n, and the rest. Meanwhile this process evaluates the
    policy and the critic over every rollout state, about two thirds of one
    elite's three forwards, so the helper takes the larger half."""
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


def _elite_preds(ensemble, plan, gamma: float, members, s, a) -> tuple[list, list]:
    """r_m + gamma * (1 - done(s')) * Q(s', pi(s')) and Q(s', pi(s')) for
    each member m of `members`, in order, where (s' - s, r_m) is m's
    predicted mean and done is `plan.env_spec`'s termination rule."""
    preds_r, preds_q = [], []
    x = np.concatenate([s, a], axis=1)
    for m in members:
        out = nn.forward(ensemble.spec, ensemble.member_params[m], x)
        mu = out[:, : ensemble.obs_dim + 1]
        nxt = s + mu[:, : ensemble.obs_dim]
        r = mu[:, ensemble.obs_dim]
        acts = np.tanh(nn.forward(plan.policy_spec, plan.policy_params, nxt))
        q = nn.forward(plan.critic_spec, plan.critic_params, np.concatenate([nxt, acts], axis=1))[
            :, 0
        ]
        done = envs.terminated_batch(plan.env_spec, nxt)
        preds_r.append(r + gamma * (1.0 - done) * q)
        preds_q.append(q)
    return preds_r, preds_q


def _send_elites(helper, plan, config: AgentConfig, ensemble, rollouts) -> _Remote:
    """Hand the helper, bound to `ensemble`, its `_split_elites` share of
    the LCB predictions."""
    s, a = _lcb_rows(rollouts)
    if s.shape[0]:
        helper.call(plan, config.gamma, _split_elites(ensemble.elite_idx)[1], s, a)
    return _Remote(helper, (s, a))


def _mobile_targets(plan, config: AgentConfig, ensemble, s, a, remote=None) -> np.ndarray:
    """One-step targets r + gamma * (1 - done) * Q(s', pi(s')) at N >= 1
    rows (s, a), averaged over all elites and penalized by c times the
    population std of their Q(s', pi(s')): the MOBILE-style LCB baseline.

    With a `_Remote`, whose call was given these rows, this process
    evaluates the elites the helper was not sent, and the helper's
    predictions join them in elite order."""
    here = ensemble.elite_idx if remote is None else _split_elites(ensemble.elite_idx)[0]
    preds_r, preds_q = _elite_preds(ensemble, plan, config.gamma, here, s, a)
    if remote is not None:
        theirs_r, theirs_q = remote.helper.result()
        preds_r += theirs_r
        preds_q += theirs_q
    preds_r = np.stack(preds_r)  # (E, N)
    preds_q = np.stack(preds_q)
    return preds_r.mean(axis=0) - config.lcb_c * preds_q.std(axis=0)


# ---------------------------------------------------------------------------
# critic losses


def _bellman_target(plan, config: AgentConfig, batch: dict) -> np.ndarray:
    """r + gamma * (1 - done) * Q(s', pi(s')) on real transitions, as a constant."""
    next_acts = np.tanh(nn.forward(plan.policy_spec, plan.policy_params, batch["next_states"]))
    next_q = nn.forward(
        plan.critic_spec,
        plan.critic_params,
        np.concatenate([batch["next_states"], next_acts], axis=1),
    )[:, 0]
    return batch["rewards"] + config.gamma * (1.0 - batch["terminals"]) * next_q


def _shadow_q(plan, shadow_params, batch: dict) -> np.ndarray:
    """The EMA shadow critic's Q on real (s, a)."""
    x = np.concatenate([batch["states"], batch["actions"]], axis=1)
    return nn.forward(plan.critic_spec, shadow_params, x)[:, 0]


def critic_loss_model(plan, config: AgentConfig, ensemble, rollouts, pol: _PolicyEval, remote=None):
    """Asymmetric squared error of Q against rollout targets, with its
    gradient.

    lower_expectile regresses Q(s_t, pi(s_t)), from the stacked critic
    forward over every rollout state, onto its targets at expectile tau.
    mobile_lcb regresses Q(s_t, a_t) at the valid (b, t) of `_lcb_rows`
    onto its LCB targets, built from those actions, symmetrically (tau
    0.5); under awr a_t is the noisy rollout action, not pi(s_t).
    """
    if config.conservatism == "mobile_lcb":
        s, a = _lcb_rows(rollouts) if remote is None else remote.rows
        if not s.shape[0]:
            return 0.0, np.zeros_like(plan.critic_params)
        y = _mobile_targets(plan, config, ensemble, s, a, remote)
        q, cache = _critic_forward(plan.critic_spec, plan.critic_params, s, a)
        rows = slice(None)
        tau = 0.5
    else:
        ce = _critic_eval(plan, rollouts, pol)
        targets, valid = _model_targets(config, rollouts, ce.boot_q)
        flat_idx = np.argwhere(valid)
        if flat_idx.size == 0:
            return 0.0, np.zeros_like(plan.critic_params)
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
        plan.critic_spec, plan.critic_params, cache, cot, params_only=True
    )
    return loss, grad


def critic_loss_env(plan, config: AgentConfig, batch: dict, fwd: tuple):
    """One-step Bellman regression on real transitions, target frozen.

    `fwd` is the critic's `_critic_forward` (q, cache) over batch's (s, a),
    which `critic_loss_ema` shares."""
    target = _bellman_target(plan, config, batch)
    q, cache = fwd
    diff = q - target
    loss = float(0.5 * (diff * diff).mean())
    cot = (diff / diff.size)[:, None]
    grad, _ = nn.backward_cached(
        plan.critic_spec, plan.critic_params, cache, cot, params_only=True
    )
    return loss, grad


def critic_loss_ema(plan, shadow_params, batch: dict, fwd: tuple):
    """Squared drift of the critic from its EMA shadow on real (s, a), at
    `critic_loss_env`'s `fwd`."""
    q_shadow = _shadow_q(plan, shadow_params, batch)
    q, cache = fwd
    diff = q - q_shadow
    loss = float((diff * diff).mean())
    cot = (2.0 * diff / diff.size)[:, None]
    grad, _ = nn.backward_cached(
        plan.critic_spec, plan.critic_params, cache, cot, params_only=True
    )
    return loss, grad


def critic_loss_total(
    plan, config: AgentConfig, ensemble, rollouts, env_batch, shadow_params, pol: _PolicyEval,
    remote=None,
):
    """beta * L_model + (1 - beta) * L_env + omega * L_ema, with gradient.

    The env and EMA terms share one critic forward over the real (s, a)
    batch; their cotangents are pre-mixed so a single backward covers both.
    With a `_Remote`, `_mobile_targets` shares its elites with the helper,
    which computes them while the env and EMA terms run here first.
    """
    target = _bellman_target(plan, config, env_batch)
    q_shadow = _shadow_q(plan, shadow_params, env_batch)
    q, cache = _critic_forward(
        plan.critic_spec, plan.critic_params, env_batch["states"], env_batch["actions"]
    )
    d_env = q - target
    d_ema = q - q_shadow
    l_env = float(0.5 * (d_env * d_env).mean())
    l_ema = float((d_ema * d_ema).mean())
    cot = (((1.0 - config.beta) * d_env + 2.0 * config.omega_ema * d_ema) / q.size)[:, None]
    g_env_ema, _ = nn.backward_cached(
        plan.critic_spec, plan.critic_params, cache, cot, params_only=True
    )
    l_model, g_model = critic_loss_model(plan, config, ensemble, rollouts, pol, remote)
    total = config.beta * l_model + (1.0 - config.beta) * l_env + config.omega_ema * l_ema
    grad = config.beta * g_model + g_env_ema
    parts = {"loss_model": l_model, "loss_env": l_env, "loss_ema": l_ema, "loss_critic": total}
    return total, grad, parts


# ---------------------------------------------------------------------------
# policy losses


def _policy_pathwise(
    plan, config: AgentConfig, ensemble, rollouts, weights, pol: _PolicyEval, ce: _CriticEval,
    qlam, valid,
):
    """Loss -mean(w_t * Qlam_t) and its pathwise gradient w.r.t. policy params.

    `weights` (B, H) are constants, and `qlam` and `valid` the lambda-returns
    of `ce`'s bootstraps and their valid mask. The lambda-return is
    differentiated as an explicit function of rollout rewards and
    bootstraps; cotangents then flow backward through critic inputs, frozen
    model steps (skip included) and the tanh policy at every visited state.

    The critic cotangents c_q are known up front, so all critic input
    gradients and their squash-through-policy parts run as two stacked
    backward passes; only cotangents surfacing from model steps still walk
    the horizon sequentially.
    """
    B, H = rollouts.rewards.shape
    if rollouts.caches is None:
        raise AgentError("policy update needs rollouts recorded with differentiable=True")
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(plan.policy_params), {"qlam_mean": 0.0}
    loss = -float((weights * qlam).sum() / n_valid)

    rows = np.arange(B)
    bootstrap_ok = np.zeros((B, H + 1))
    k_idx = np.arange(H + 1)[None, :]
    bootstrap_ok[k_idx <= rollouts.t_eff[:, None]] = 1.0
    bootstrap_ok[rows, rollouts.t_eff] = np.where(rollouts.terminal, 0.0, 1.0)
    c_r, c_q = returns.policy_grad_coefficients(
        -weights / n_valid, rollouts.t_eff, bootstrap_ok, config.lam, config.gamma
    )

    S = ensemble.obs_dim
    squash_grad = 1.0 - pol.acts * pol.acts

    # all critic input gradients at once: cotangent c_q[b, k] on row k*B + b
    _, g_in = nn.backward_cached(
        plan.critic_spec, plan.critic_params, ce.cache, c_q.T.reshape(-1, 1), input_only=True
    )
    g_s_crit = g_in[:, :S].reshape(H + 1, B, S)
    # ... and their action components through tanh(policy), also at once
    theta_grad, g_s_flat = nn.backward_cached(
        plan.policy_spec, plan.policy_params, pol.cache, g_in[:, S:] * squash_grad
    )
    g_s_polc = g_s_flat.reshape(H + 1, B, S)

    def policy_backprop(k, g_action):
        # push model-step action cotangents through tanh(mlp(s_k))
        nonlocal theta_grad
        if not np.any(g_action):
            return np.zeros((B, S))
        lo, hi = k * B, (k + 1) * B
        g_pre = g_action * squash_grad[lo:hi]
        g_params, g_states = nn.backward_cached(
            plan.policy_spec, plan.policy_params, nn._slice_cache(pol.cache, lo, hi), g_pre
        )
        theta_grad += g_params
        return g_states

    g_s_next = g_s_crit[H] + g_s_polc[H]
    for k in range(H - 1, -1, -1):
        alive = (rollouts.t_eff > k)[:, None]
        g_next = g_s_next * alive
        g_reward = c_r[:, k]
        g_s_model, g_a_model = world_model.step_backward(
            ensemble, rollouts.caches[k], g_next, g_reward
        )
        g_s_model = np.where(alive, g_s_model, 0.0)
        g_a_model = np.where(alive, g_a_model, 0.0)
        g_s_pol = policy_backprop(k, g_a_model)
        g_s_next = g_s_model + g_s_crit[k] + g_s_polc[k] + g_s_pol + g_s_next * (~alive)
    info = {"qlam_mean": float(qlam[valid].mean())}
    return loss, theta_grad, info


def policy_loss_surrogate(plan, config: AgentConfig, ensemble, rollouts, pol: _PolicyEval):
    """Expectile-weighted lambda-return ascent with frozen weights.

    w_t = |tau - 1(Q(s_t, a_t) > Qlam_t)| uses the rollout actions a_t; the
    indicator and weight are constants for the gradient. The rollout ran
    noise-free, so a_t = pi(s_t) and Q(s_t, a_t) is the bootstrap at t.
    """
    ce = _critic_eval(plan, rollouts, pol)
    qlam, valid = returns.lambda_return_batch(
        rollouts.rewards, ce.boot_q, rollouts.t_eff, config.lam, config.gamma
    )
    q_taken = np.where(valid, ce.boot_q[:, :-1], 0.0)
    weights = np.where(valid, expectile_weight(q_taken - qlam, config.tau), 0.0)
    loss, grad, info = _policy_pathwise(
        plan, config, ensemble, rollouts, weights, pol, ce, qlam, valid
    )
    info["weight_mean"] = float(weights[valid].mean()) if valid.any() else 0.0
    info["weights"] = weights
    return loss, grad, info


def _policy_q_value(plan, states):
    """DDPG-style loss -mean Q(s, pi(s)) on a batch of states."""
    acts, p_cache = _policy_forward(plan.policy_spec, plan.policy_params, states)
    q, c_cache = _critic_forward(plan.critic_spec, plan.critic_params, states, acts)
    loss = -float(q.mean())
    cot = np.full((q.size, 1), -1.0 / q.size)
    _, g_in = nn.backward_cached(
        plan.critic_spec, plan.critic_params, c_cache, cot, input_only=True
    )
    g_action = g_in[:, states.shape[1] :]
    g_pre = g_action * (1.0 - acts * acts)
    grad, _ = nn.backward_cached(
        plan.policy_spec, plan.policy_params, p_cache, g_pre, params_only=True
    )
    return loss, grad, {}


def awr_policy_loss(plan, config: AgentConfig, rollouts, pol: _PolicyEval):
    """Advantage-weighted regression toward rollout actions.

    Weights min(exp(A_t / alpha), 20) are constants; the loss pulls
    pi(s_t) toward the recorded (noisy) rollout actions. pi(s_t) and the
    backward reuse `pol`'s stacked forward, with zero cotangents on the
    rows of invalid (b, t).
    """
    if not rollouts.t_eff.any():
        return 0.0, np.zeros_like(plan.policy_params), {}
    boot_q = _critic_eval(plan, rollouts, pol).boot_q
    qlam, valid = returns.lambda_return_batch(
        rollouts.rewards, boot_q, rollouts.t_eff, config.lam, config.gamma
    )
    flat_idx = np.argwhere(valid)
    a_taken = rollouts.actions[flat_idx[:, 0], flat_idx[:, 1]]
    q_pol = boot_q[flat_idx[:, 0], flat_idx[:, 1]]
    adv = qlam[flat_idx[:, 0], flat_idx[:, 1]] - q_pol
    w = np.minimum(np.exp(adv / config.awr_alpha), 20.0)
    rows = flat_idx[:, 1] * valid.shape[0] + flat_idx[:, 0]  # k-major row of (b, t)
    acts = pol.acts[rows]
    res = acts - a_taken
    loss = float((w * (res * res).sum(axis=1)).mean())
    g_pre = np.zeros_like(pol.acts)
    g_pre[rows] = 2.0 * w[:, None] * res / w.size * (1.0 - acts * acts)
    grad, _ = nn.backward_cached(
        plan.policy_spec, plan.policy_params, pol.cache, g_pre, params_only=True
    )
    return loss, grad, {"awr_weight_mean": float(w.mean())}


# ---------------------------------------------------------------------------
# pretraining


def _check_rows(states: np.ndarray, stage: str) -> None:
    if states.shape[0] == 0:
        raise AgentError(f"{stage} pretraining needs transitions, but the dataset holds none")


def pretrain_bc(dataset, spec: nn.MlpSpec, params: np.ndarray, steps: int, seed: int, lr: float, batch: int = 256):
    """Behavioral cloning: minimize ||tanh(mlp(s)) - a||^2 over the dataset."""
    states, actions, _, _, _ = dataset.flat_arrays()
    _check_rows(states, "BC")
    rng = stream(seed, "pretrain.bc")
    adam = nn.init_adam(params.size, lr)
    mse = float("nan")
    for _ in range(steps):
        idx = rng.integers(0, states.shape[0], size=min(batch, states.shape[0]))
        acts, cache = _policy_forward(spec, params, states[idx])
        res = acts - actions[idx]
        mse = float((res * res).sum(axis=1).mean())
        g_act = 2.0 * res / res.shape[0]
        g_pre = g_act * (1.0 - acts * acts)
        grad, _ = nn.backward_cached(spec, params, cache, g_pre, params_only=True)
        adam, params = nn.adam_step(adam, params, grad)
    return params, mse


def _fill_in_blocks(out: np.ndarray, size: int, rows_fn) -> np.ndarray:
    """out[i] = rows_fn(rows)[j] for every row i = rows[j], `size` rows a call.

    Every call gets exactly `size` rows: the last block wraps around to
    row 0 (`np.arange(lo, lo + size) % n`), and only its rows not already
    filled are kept.
    """
    n = out.shape[0]
    for lo in range(0, n, size):
        out[lo : lo + size] = rows_fn(np.arange(lo, lo + size) % n)[: n - lo]
    return out


def pretrain_fqe(dataset, policy, spec: nn.MlpSpec, params: np.ndarray, steps: int, gamma: float, seed: int, lr: float, batch: int = 256, target_every: int = 250):
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
    The tables are built only while they cost fewer forwards,
    ceil(N / size) * (1 + stretches) < 2 * steps, that is while N stays
    below about 2 * batch * steps / (1 + stretches) rows: 51,200 at 300
    steps with the defaults, nearing 2 * batch * target_every = 128,000 over
    many stretches. Larger datasets (D4RL's 1M rows) are evaluated batch by
    batch, with the snapshot copied at each refresh.

    The tables hold the bits that per-step batches would give because every
    forward that fills them takes exactly size rows, a step's batch size.
    BLAS chooses its kernel by the row count, so one whole-dataset forward,
    or a short last block, rounds some rows differently; the last block
    wraps around to the first rows instead. This also needs every row of a
    call to round alike wherever it sits, which holds when the row count is
    a multiple of the kernel's row unroll, as 256 is. Below one batch, at a
    ragged count such as 11 rows, the last rows of a call round apart, and
    the tables can differ from per-step batches in the last bits.
    """
    loss = float("nan")
    states, actions, rewards, next_states, terminals = dataset.flat_arrays()
    _check_rows(states, "FQE")
    if steps <= 0:
        return params, loss
    terminals = terminals.astype(np.float64)
    rng = stream(seed, "pretrain.fqe")
    adam = nn.init_adam(params.size, lr)
    n = states.shape[0]
    size = min(batch, n)
    tables = -(-n // size) * (1 + -(-steps // target_every)) < 2 * steps

    def targets(rows, next_a, target):
        next_q = nn.forward(spec, target, np.concatenate([next_states[rows], next_a], axis=1))[:, 0]
        return rewards[rows] + gamma * (1.0 - terminals[rows]) * next_q

    if tables:
        next_a = _fill_in_blocks(
            np.empty((n, actions.shape[1])), size, lambda rows: policy(next_states[rows])
        )
        y = np.empty(n)
    for step_i in range(steps):
        if step_i % target_every == 0:
            if tables:
                _fill_in_blocks(y, size, lambda rows: targets(rows, next_a[rows], params))
            else:
                target = params.copy()
        idx = rng.integers(0, n, size=size)
        y_idx = y[idx] if tables else targets(idx, policy(next_states[idx]), target)
        q, cache = _critic_forward(spec, params, states[idx], actions[idx])
        diff = q - y_idx
        loss = float((diff * diff).mean())
        if not np.isfinite(loss):
            raise DivergenceError("FQE loss diverged", {"step": step_i})
        cot = (2.0 * diff / diff.size)[:, None]
        grad, _ = nn.backward_cached(spec, params, cache, cot, params_only=True)
        adam, params = nn.adam_step(adam, params, grad)
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

    Only a mobile_lcb step with beta > 0 gives a helper work, and only
    with a model and a step left to run is one forked (where
    `forked.can_fork` allows). Other steps run here alone: on `leq_maze`
    the real-batch critic terms (about 1.5 ms of a 20 ms step) did not pay
    for their transfer and for the slowdown a busy second CPU brings. A
    model-free run never loads `multiprocessing` here (about 0.6 MB of
    peak RSS).
    """
    config = state.config
    uses = config.beta > 0.0 and config.conservatism == "mobile_lcb"
    if not uses or ensemble is None or state.step >= config.n_iter:
        return contextlib.nullcontext()
    return forked.serving(functools.partial(_elite_preds, ensemble))


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

    `mean_q` needs one more critic forward, so only a `logged` step has it.

    Given the helper `elite_helper` yields for this state and ensemble,
    the step has it compute its `_split_elites` share of the LCB
    predictions while this process evaluates the rollout, the real-batch
    critic terms and the other elites. Every result has the bits it has
    here.
    """
    config = state.config
    plan = _Plan(
        state.policy_spec, state.policy_params, state.critic_spec, state.critic_params, state.env_spec
    )
    term_fn = functools.partial(envs.terminated_batch, state.env_spec)
    rollouts = None
    if needs_model(config):
        noise = config.sigma_exp if config.policy_update == "awr" else 0.0
        rollouts = world_model.imagine_rollout(
            ensemble,
            state.policy,
            start_states,
            config.horizon,
            term_fn,
            noise,
            rng,
            differentiable=config.policy_update == "lambda_expectile",
        )
    remote = None if helper is None else _send_elites(helper, plan, config, ensemble, rollouts)

    # policy params stay fixed until the actor Adam step, so one stacked
    # policy forward over the rollout states serves both loss phases; the
    # lambda_expectile and awr actors and the lower_expectile model term read it
    reads_pol = config.policy_update != "q_value" or config.conservatism == "lower_expectile"
    pol = _policy_eval(plan, rollouts) if reads_pol and rollouts is not None else None
    if config.beta > 0.0:
        total, c_grad, parts = critic_loss_total(
            plan, config, ensemble, rollouts, env_batch, state.critic_ema.shadow, pol, remote
        )
    else:
        # one critic forward over the real (s, a) serves both terms' backward passes
        fwd = _critic_forward(
            plan.critic_spec, plan.critic_params, env_batch["states"], env_batch["actions"]
        )
        l_env, g_env = critic_loss_env(plan, config, env_batch, fwd)
        l_ema, g_ema = critic_loss_ema(plan, state.critic_ema.shadow, env_batch, fwd)
        total = l_env + config.omega_ema * l_ema
        c_grad = g_env + config.omega_ema * g_ema
        parts = {"loss_model": 0.0, "loss_env": l_env, "loss_ema": l_ema, "loss_critic": total}
    if not (np.isfinite(total) and np.isfinite(c_grad).all()):
        raise DivergenceError("critic loss diverged", {"step": state.step, **parts})
    state.adam_critic, state.critic_params = nn.adam_step(
        state.adam_critic, state.critic_params, c_grad
    )
    state.critic_ema = nn.ema_update(state.critic_ema, state.critic_params)

    # adam_step updated critic_params in place, so the actor sees the new values
    if config.policy_update == "lambda_expectile":
        p_loss, p_grad, p_info = policy_loss_surrogate(plan, config, ensemble, rollouts, pol)
    elif config.policy_update == "awr":
        p_loss, p_grad, p_info = awr_policy_loss(plan, config, rollouts, pol)
    else:
        p_loss, p_grad, p_info = _policy_q_value(plan, env_batch["states"])
    if not (np.isfinite(p_loss) and np.isfinite(p_grad).all()):
        raise DivergenceError("policy loss diverged", {"step": state.step, "loss": p_loss})
    state.adam_actor, state.policy_params = nn.adam_step(
        state.adam_actor, state.policy_params, p_grad
    )
    state.step += 1

    metrics = {"step": state.step, "loss_policy": p_loss}
    if logged:
        metrics["mean_q"] = float(np.mean(state.critic(env_batch["states"], env_batch["actions"])))
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
_AGENT_VERSION = 2


def save_agent(path, state: AgentState, seed: int | None = None, extra: dict | None = None) -> None:
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
        "seed": seed,
        "extra": extra or {},
    }
    arrays = {
        "policy_params": state.policy_params,
        "critic_params": state.critic_params,
        "ema_shadow": state.critic_ema.shadow,
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
    ema = nn.EmaTracker(shadow=views["ema_shadow"], decay=config.ema_decay)
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
        critic_ema=ema,
        adam_actor=adam_a,
        adam_critic=adam_c,
        buffer=buffer,
        step=header["step"],
        extra=header["extra"],
        seed=header["seed"],
    )
