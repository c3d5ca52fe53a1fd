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

Each function is one array pass over an (i, t, B) layout: mixture index
i, start t, row b. Index and weight tables are built once per (H, lambda,
gamma) and cached read-only. Entries with t + i > H read zero padding and
add exact zeros. Every entry still adds in the order a loop over (t, i)
pairs adds it, so results equal that loop form bit for bit:

- the partial reward sums run over i ascending, by `np.cumsum`;
- the mixture sums, and every reward and bootstrap partial, run over the
  leading axis by `np.add.reduce(..., axis=0, initial=0.0)`, which adds
  elementwise in axis order from 0.0. The partials read their terms
  along each output's diagonal t + i in order of i descending;
- a normalizer that depends only on (t, t_eff) is tabulated over
  t_eff = 0..H by the same reduction that summed it per row.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = [
    "lambda_return_batch",
    "full_return_batch",
    "policy_grad_coefficients",
]


class _Tables(NamedTuple):
    """Read-only tables of one (H, lambda, gamma); [i - 1, t] is the
    (mixture index, start) entry."""

    end: np.ndarray  # (H, H, 1) t + i
    r_idx: np.ndarray  # (H, H) row of r_{t+i-1} in `_padded(rewards, H + 1)`
    q_idx: np.ndarray  # (H, H) row of q_{t+i} in `_padded(boot_q, H + 2)`
    g_r: np.ndarray  # (H, 1, 1) gamma^(i-1)
    g_q: np.ndarray  # (H, 1, 1) gamma^i
    # lambda^(i-1) twice: by Python's float power, as lambda_return_batch's
    # loop form takes it, and by numpy's, as policy_grad_coefficients' does
    lam_w: np.ndarray  # (H, 1, 1)
    lam_denom: np.ndarray  # (H, H + 1) [t, t_eff] lambda_return_batch's weight sum, 1 if 0
    raw: np.ndarray  # (H, 1, 1)
    grad_wsum: np.ndarray  # (H, H + 1) [t, t_eff] policy_grad_coefficients' weight sum, 1 if 0
    q_diag: np.ndarray  # (H, H + 1) [s, k] flat (i - 1, t) with t + i = k, i = H - s; pad H*H
    r_diag: np.ndarray  # (H, H) [s, k] flat (i - 1, t) with t + i - 1 = k, i = H - s; pad H*H


@functools.lru_cache(maxsize=64)
def _tables(H: int, lam: float, gamma: float) -> _Tables:
    i_vals = np.arange(1, H + 1)
    end = i_vals[:, None] + np.arange(H)[None, :]
    inside = end <= H
    t_effs = np.arange(H + 1)
    lam_w = np.array([lam ** (n - 1) for n in range(1, H + 1)])[:, None, None]
    lam_wsum = np.add.reduce(
        np.where(end[:, :, None] <= t_effs, lam_w, 0.0), axis=0, initial=0.0
    )
    raw = lam ** (i_vals - 1.0)
    # each start's weight sum adds exactly H - t terms, as numpy's pairwise
    # sum groups them by length
    grad_wsum = np.zeros((H, H + 1))
    for start in range(H):
        avail = (start + i_vals[: H - start])[None, :] <= t_effs[:, None]
        grad_wsum[start] = (raw[None, : H - start] * avail).sum(axis=1)
    # slot s of the diagonal reads i = H - s, so each partial adds over i descending
    i_desc = H - np.arange(H)[:, None]
    k = np.arange(H + 1)[None, :]
    q_diag = np.where(i_desc <= k, (i_desc - 1) * H + k - i_desc, H * H)
    r_diag = np.where(i_desc <= k[:, :H] + 1, (i_desc - 1) * H + k[:, :H] + 1 - i_desc, H * H)
    tables = _Tables(
        end=end[:, :, None],
        r_idx=np.where(inside, end - 1, H),
        q_idx=np.where(inside, end, H + 1),
        g_r=np.array([gamma ** (n - 1) for n in range(1, H + 1)])[:, None, None],
        g_q=np.array([gamma**n for n in range(1, H + 1)])[:, None, None],
        lam_w=lam_w,
        lam_denom=np.where(lam_wsum > 0.0, lam_wsum, 1.0),
        raw=raw[:, None, None],
        grad_wsum=np.where(grad_wsum > 0.0, grad_wsum, 1.0),
        q_diag=q_diag,
        r_diag=r_diag,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _padded(x: np.ndarray, n_rows: int) -> np.ndarray:
    """x.T, (n, B), over zero rows up to n_rows: the rows past the horizon."""
    out = np.zeros((n_rows, x.shape[0]))
    out[: x.shape[1]] = x.T
    return out


def _diagonal_sums(terms: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """(B, K) sums of (H, H, B) `terms` read along `diag`'s (slot, k) entries."""
    H, _, B = terms.shape
    flat = np.concatenate([terms.reshape(H * H, B), np.zeros((1, B))])
    return np.ascontiguousarray(np.add.reduce(flat[diag], axis=0, initial=0.0).T)


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
    tab = _tables(H, float(lam), float(gamma))
    running = np.cumsum(tab.g_r * _padded(rewards, H + 1)[tab.r_idx], axis=0)
    g = running + tab.g_q * _padded(boot_q, H + 2)[tab.q_idx]
    acc = np.add.reduce(np.where(tab.end <= t_eff, tab.lam_w * g, 0.0), axis=0, initial=0.0)
    valid = np.arange(H)[None, :] < t_eff[:, None]
    qlam = np.where(valid, (acc / tab.lam_denom[:, t_eff]).T, 0.0)
    return np.ascontiguousarray(qlam), valid


def full_return_batch(rewards: np.ndarray, boot_q: np.ndarray, t_eff: np.ndarray, gamma: float):
    """G_{t:T} = sum_{j<T-t} gamma^j r_{t+j} + gamma^(T-t) q_T per valid (b, t).

    Same arguments as lambda_return_batch, without lambda. Returns
    (targets (B, H), valid (B, H)) with targets zero outside valid.
    """
    B, H = rewards.shape
    tab = _tables(H, 0.0, float(gamma))  # lambda does not enter G_{t:T}
    terms = tab.g_r * _padded(rewards, H + 1)[tab.r_idx] * (tab.end <= t_eff)
    acc = np.add.reduce(terms, axis=0, initial=0.0).T
    starts = np.arange(H)
    valid = starts[None, :] < t_eff[:, None]
    apex_q = boot_q[np.arange(B), t_eff][:, None]
    targets = np.where(valid, acc + gamma ** (t_eff[:, None] - starts[None, :]) * apex_q, 0.0)
    return np.ascontiguousarray(targets), valid


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
    tab = _tables(H, float(lam), float(gamma))
    # normalized mixture weights w_i = lam^{i-1} / wsum, truncated per row
    scale = np.where(t_eff > np.arange(H)[:, None], weights.T, 0.0) / tab.grad_wsum[:, t_eff]
    w = np.where(tab.end <= t_eff, tab.raw * scale, 0.0)
    q_terms = w * tab.g_q * _padded(bootstrap_ok, H + 2)[tab.q_idx]
    # each start's suffix sum of w over i descending
    r_terms = tab.g_r * np.cumsum(w[::-1], axis=0)[::-1]
    return _diagonal_sums(r_terms, tab.r_diag), _diagonal_sums(q_terms, tab.q_diag)
