"""n-step returns and normalized lambda-mixtures over rollouts.

For a rollout with T valid transitions (T <= H; shorter when the rollout
hit a terminal state), the i-step return from time t is

    G_{t:t+i} = sum_{j<i} gamma^j r_{t+j} + gamma^i q_{t+i},

where q_k is the critic bootstrap at (s_k, a_k), zeroed when s_k is the
terminal end of the rollout. The lambda-return mixes the available n-step
returns with weights proportional to lambda^(i-1), normalized by their
actual sum so the mixture weights add to exactly 1 for every t (including
t = T - 1, where the mixture degenerates to G_{t:t+1}).

The *_batch functions operate on padded arrays (B, H): rows may have
different effective lengths `t_eff`, and entries past a row's length are
ignored. `policy_grad_coefficients` returns the partial derivatives of the
weighted lambda-return sum with respect to every reward and bootstrap,
which is what the pathwise policy update backpropagates through rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LambdaReturnTable",
    "n_step_return",
    "lambda_returns",
    "lambda_return_batch",
    "policy_grad_coefficients",
]


def _traj_fields(traj):
    states = np.asarray(traj.states, dtype=np.float64)
    rewards = np.asarray(traj.rewards, dtype=np.float64)
    if hasattr(traj, "terminal"):
        terminal = bool(traj.terminal)
    else:
        terminal = bool(traj.ends_terminal)
    if states.shape[0] != rewards.shape[0] + 1:
        raise ValueError("need one more state than rewards")
    return states, rewards, terminal


@dataclass(frozen=True)
class LambdaReturnTable:
    """Per-timestep n-step returns and their normalized lambda-mixtures."""

    n_step: tuple[np.ndarray, ...]  # n_step[t][i-1] = G_{t:t+i}, 1 <= i <= T-t
    mixture_weights: tuple[np.ndarray, ...]  # same ragged shape, each sums to 1
    qlam: np.ndarray  # (T,)
    terminal: bool


def _bootstraps(states, terminal, critic, policy):
    actions = policy(states)
    q = np.asarray(critic(states, actions), dtype=np.float64).reshape(-1)
    if terminal:
        q[-1] = 0.0
    return q


def n_step_return(traj, t: int, n: int, critic, policy, gamma: float) -> float:
    """G_{t:t+n} with the bootstrap zeroed on a terminal rollout end."""
    states, rewards, terminal = _traj_fields(traj)
    horizon = rewards.shape[0]
    if n < 1 or t < 0 or t + n > horizon:
        raise IndexError(f"n-step window [{t}, {t + n}] outside rollout of length {horizon}")
    discounts = gamma ** np.arange(n)
    value = float(discounts @ rewards[t : t + n])
    if not (terminal and t + n == horizon):
        sa = states[t + n]
        q = float(np.asarray(critic(sa[None, :], policy(sa[None, :]))).reshape(()))
        value += gamma**n * q
    return value


def lambda_returns(traj, critic, policy, lam: float, gamma: float) -> LambdaReturnTable:
    """Full table for one rollout; bootstraps use a_k = policy(s_k)."""
    if not (0.0 <= lam < 1.0):
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    states, rewards, terminal = _traj_fields(traj)
    horizon = rewards.shape[0]
    q = _bootstraps(states, terminal, critic, policy)
    n_step, weights, qlam = [], [], np.zeros(horizon)
    for t in range(horizon):
        m = horizon - t
        g = np.zeros(m)
        running = 0.0
        for i in range(1, m + 1):
            running += gamma ** (i - 1) * rewards[t + i - 1]
            g[i - 1] = running + gamma**i * q[t + i]
        raw = lam ** np.arange(m)
        w = raw / raw.sum()
        n_step.append(g)
        weights.append(w)
        qlam[t] = float(w @ g)
    return LambdaReturnTable(
        n_step=tuple(n_step), mixture_weights=tuple(weights), qlam=qlam, terminal=terminal
    )


def lambda_return_batch(
    rewards: np.ndarray,
    boot_q: np.ndarray,
    t_eff: np.ndarray,
    lam: float,
    gamma: float,
):
    """Vectorized lambda-returns over padded rollouts.

    rewards: (B, H); boot_q: (B, H+1) with boot_q[b, k] already zeroed when
    s_k is a terminal end; t_eff: (B,) valid transition counts per row.
    Returns (qlam (B, H), valid (B, H)) with qlam zero outside valid.
    """
    B, H = rewards.shape
    starts = np.arange(H)
    acc = np.zeros((B, H))
    wsum = np.zeros((B, H))
    running = np.zeros((B, H))
    # one pass per mixture index i over every start t < H - i + 1 at once;
    # i ascends, so each (row, t) accumulates in the order of a loop over i
    for i in range(1, H + 1):
        n = H - i + 1
        running[:, :n] += gamma ** (i - 1) * rewards[:, i - 1 :]
        g_i = running[:, :n] + gamma**i * boot_q[:, i:]
        ok = (starts[:n] + i)[None, :] <= t_eff[:, None]
        w = lam ** (i - 1)
        acc[:, :n] += np.where(ok, w * g_i, 0.0)
        wsum[:, :n] += np.where(ok, w, 0.0)
    valid = np.arange(H)[None, :] < t_eff[:, None]
    qlam = np.where(valid, acc / np.where(wsum > 0.0, wsum, 1.0), 0.0)
    return qlam, valid


def policy_grad_coefficients(
    weights: np.ndarray,
    t_eff: np.ndarray,
    bootstrap_ok: np.ndarray,
    lam: float,
    gamma: float,
):
    """Partials of sum_{b, t valid} weights[b,t] * Qlam[b,t] w.r.t. rewards
    and bootstraps.

    weights: (B, H) constants (zero outside valid range); bootstrap_ok:
    (B, H+1) marks bootstraps that are real critic evaluations rather than
    zeroed terminal placeholders. Returns (c_r (B, H), c_q (B, H+1)).
    """
    B, H = weights.shape
    c_r = np.zeros((B, H))
    c_q = np.zeros((B, H + 1))
    # starts at or past every row's t_eff contribute nothing
    n_t = min(H, int(np.max(t_eff, initial=0)))
    i_vals = np.arange(1, H + 1)
    raw = lam ** (i_vals - 1.0)
    # normalized mixture weights w_i = lam^{i-1} / wsum, truncated per row;
    # each wsum is summed over exactly H - t terms, as numpy's pairwise sum
    # groups them by length
    scale = np.zeros((B, n_t))
    for t in range(n_t):
        avail = (t + i_vals[: H - t])[None, :] <= t_eff[:, None]  # (B, H - t)
        wsum = (raw[None, : H - t] * avail).sum(axis=1)
        wsum = np.where(wsum > 0.0, wsum, 1.0)
        scale[:, t] = np.where(t_eff > t, weights[:, t], 0.0) / wsum
    # one pass per i over every start t at once; i descends, so both each
    # start's suffix sum and each c_r/c_q entry add in the order of a loop
    # over t ascending with i descending inside it
    suffix = np.zeros((B, n_t))
    for i in range(H, 0, -1):
        n = min(H - i + 1, n_t)
        avail = (np.arange(n) + i)[None, :] <= t_eff[:, None]
        w_i = np.where(avail, raw[i - 1] * scale[:, :n], 0.0)
        c_q[:, i : i + n] += w_i * gamma**i * bootstrap_ok[:, i : i + n]
        suffix[:, :n] += w_i
        c_r[:, i - 1 : i - 1 + n] += gamma ** (i - 1) * suffix[:, :n]
    return c_r, c_q
