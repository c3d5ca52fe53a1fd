"""n-step returns and normalized lambda-mixtures over rollouts.

For a rollout with T valid transitions (T <= H; shorter when the rollout
hit a terminal state), the i-step return from time t is

    G_{t:t+i} = sum_{j<i} gamma^j r_{t+j} + gamma^i q_{t+i},

where q_k is the critic bootstrap at (s_k, a_k), zeroed when s_k is the
terminal end of the rollout. The lambda-return mixes the available n-step
returns with weights proportional to lambda^(i-1), normalized by their
actual sum so the mixture weights add to exactly 1 for every t (including
t = T - 1, where the mixture degenerates to G_{t:t+1}).

The full return G_{t:T} is the single n-step return over everything left
of the rollout, the H-step target of the critic ablation.

Every function operates on padded arrays (B, H): rows may have different
effective lengths `t_eff`, and entries past a row's length are ignored.
`policy_grad_coefficients` returns the partial derivatives of the
weighted lambda-return sum with respect to every reward and bootstrap,
which is what the pathwise policy update backpropagates through rollouts.
Each makes one vectorized pass per mixture index i over every start t at
once. Every entry still accumulates in the order a loop over (t, i) pairs
adds it, so results equal that loop form bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lambda_return_batch",
    "full_return_batch",
    "policy_grad_coefficients",
]


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


def full_return_batch(rewards: np.ndarray, boot_q: np.ndarray, t_eff: np.ndarray, gamma: float):
    """G_{t:T} = sum_{j<T-t} gamma^j r_{t+j} + gamma^(T-t) q_T per valid (b, t).

    Same arguments as lambda_return_batch, without lambda. Returns
    (targets (B, H), valid (B, H)) with targets zero outside valid.
    """
    B, H = rewards.shape
    starts = np.arange(H)
    acc = np.zeros((B, H))
    for i in range(1, H + 1):
        n = H - i + 1
        ok = (starts[:n] + i)[None, :] <= t_eff[:, None]
        acc[:, :n] += gamma ** (i - 1) * rewards[:, i - 1 :] * ok
    valid = starts[None, :] < t_eff[:, None]
    apex_q = boot_q[np.arange(B), t_eff][:, None]
    targets = np.where(valid, acc + gamma ** (t_eff[:, None] - starts[None, :]) * apex_q, 0.0)
    return targets, valid


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
