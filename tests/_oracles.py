"""Independent reference implementations used to cross-check the library.

Everything here is written straight from the definitions, favoring loops
and dense grids over the vectorized forms the library uses. Slow and
obvious on purpose.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import zlib

import numpy as np

from leq_lab import agent, datasets, envs, nn, returns, world_model
from leq_lab.rng import stream


def grid_minimize_expectile(samples, weights, tau: float, fine_step: float = 1e-5) -> float:
    """Argmin of E[|tau - 1(y > x)| (y - x)^2] over a dense grid.

    The objective is strictly convex in y, so its grid restriction is
    unimodal: a coarse pass followed by a fine pass around the coarse
    winner (with two cells of margin) finds the global grid minimizer.
    """
    xs = np.asarray(samples, dtype=np.float64)
    ws = np.asarray(weights, dtype=np.float64)
    lo, hi = float(xs.min()), float(xs.max())
    if lo == hi:
        return lo

    def loss(grid):
        d = grid[:, None] - xs[None, :]
        w = np.where(d > 0.0, 1.0 - tau, tau)
        return (w * d * d) @ ws

    coarse = np.linspace(lo, hi, 801)
    y0 = coarse[int(np.argmin(loss(coarse)))]
    half = (hi - lo) / 800.0
    fine = np.arange(y0 - 2.0 * half, y0 + 2.0 * half + fine_step, fine_step)
    return float(fine[int(np.argmin(loss(fine)))])


def brute_force_lambda_returns(rewards, boot_q, t_eff, lam: float, gamma: float):
    """qlam from the printed definition, one (row, t) at a time.

    rewards: (B, H); boot_q: (B, H+1) with terminal bootstraps already
    zeroed; t_eff: valid transition counts. Returns (B, H) with zeros
    outside each row's valid range.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    boot_q = np.asarray(boot_q, dtype=np.float64)
    B, H = rewards.shape
    out = np.zeros((B, H))
    for b in range(B):
        T = int(t_eff[b])
        for t in range(T):
            num, den = 0.0, 0.0
            for i in range(1, T - t + 1):
                g = sum(gamma**j * rewards[b, t + j] for j in range(i))
                g += gamma**i * boot_q[b, t + i]
                num += lam ** (i - 1) * g
                den += lam ** (i - 1)
            out[b, t] = num / den
    return out


def loop_lambda_return_batch(rewards, boot_q, t_eff, lam: float, gamma: float):
    """`returns.lambda_return_batch` as one loop over every (t, i) pair.

    The library's form makes one pass per i; this is the arithmetic it
    must reproduce bit for bit, in the same order.
    """
    B, H = rewards.shape
    acc = np.zeros((B, H))
    wsum = np.zeros((B, H))
    for t in range(H):
        m_max = H - t
        running = np.zeros(B)
        for i in range(1, m_max + 1):
            running = running + gamma ** (i - 1) * rewards[:, t + i - 1]
            g_i = running + gamma**i * boot_q[:, t + i]
            ok = (t + i) <= t_eff
            w = lam ** (i - 1)
            acc[:, t] += np.where(ok, w * g_i, 0.0)
            wsum[:, t] += np.where(ok, w, 0.0)
    valid = np.arange(H)[None, :] < t_eff[:, None]
    qlam = np.where(valid, acc / np.where(wsum > 0.0, wsum, 1.0), 0.0)
    return qlam, valid


def loop_policy_grad_coefficients(weights, t_eff, bootstrap_ok, lam: float, gamma: float):
    """`returns.policy_grad_coefficients` as one loop over every (t, i) pair."""
    B, H = weights.shape
    c_r = np.zeros((B, H))
    c_q = np.zeros((B, H + 1))
    for t in range(H):
        row_ok = t_eff > t
        if not row_ok.any():
            continue
        m_max = H - t
        i_vals = np.arange(1, m_max + 1)
        avail = (t + i_vals)[None, :] <= t_eff[:, None]
        raw = lam ** (i_vals - 1.0)
        wsum = (raw[None, :] * avail).sum(axis=1)
        wsum = np.where(wsum > 0.0, wsum, 1.0)
        scale = np.where(row_ok, weights[:, t], 0.0) / wsum
        suffix = np.zeros(B)
        for i in range(m_max, 0, -1):
            w_i = np.where(avail[:, i - 1], raw[i - 1] * scale, 0.0)
            c_q[:, t + i] += w_i * gamma**i * bootstrap_ok[:, t + i]
            suffix += w_i
            c_r[:, t + i - 1] += gamma ** (i - 1) * suffix
    return c_r, c_q


def loop_full_return_batch(rewards, boot_q, t_eff, gamma: float):
    """`returns.full_return_batch` as one loop over every start t, the
    H-step critic target as `agent._model_targets` once computed it."""
    B, H = rewards.shape
    targets = np.zeros((B, H))
    valid = np.arange(H)[None, :] < t_eff[:, None]
    for t in range(H):
        rows = t_eff > t
        if not rows.any():
            continue
        m = t_eff - t
        acc = np.zeros(B)
        for i in range(1, H - t + 1):
            acc = acc + gamma ** (i - 1) * rewards[:, t + i - 1] * ((t + i) <= t_eff)
        apex_q = boot_q[np.arange(B), t_eff]
        targets[:, t] = np.where(rows, acc + gamma**m * apex_q, 0.0)
    return targets, valid


def loop_buffer_insert(data, size: int, cursor: int, states):
    """Ring-buffer insert one row at a time; returns (data, size, cursor)."""
    data = np.array(data, dtype=np.float64, copy=True)
    capacity = data.shape[0]
    for row in np.atleast_2d(np.asarray(states, dtype=np.float64)):
        data[cursor] = row
        cursor = (cursor + 1) % capacity
        size = min(size + 1, capacity)
    return data, size, cursor


def loop_expand_dataset(buffer, ensemble, policy, config, env_states, termination, rng) -> int:
    """`agent.expand_dataset` inserting one rollout row at a time."""
    inserted = 0
    stalls = 0
    while inserted < config.n_expand:
        want = config.n_expand - inserted
        n_roll = max(1, min(512, -(-want // config.rollout_r)))
        starts = env_states[rng.integers(0, env_states.shape[0], size=n_roll)]
        ro = world_model.imagine_rollout(
            ensemble, policy, starts, config.rollout_r, termination, config.sigma_exp, rng
        )
        before = inserted
        for b in range(n_roll):
            n_valid = int(ro.t_eff[b])
            if n_valid == 0:
                continue
            take = min(n_valid, config.n_expand - inserted)
            buffer.insert(ro.states[b, :take])
            inserted += take
            if inserted >= config.n_expand:
                break
        if inserted == before:
            stalls += 1
            if stalls >= 100:
                raise agent.AgentError("expansion stalled: every sampled start state is terminal")
        else:
            stalls = 0
    return inserted


def loop_mobile_targets(ensemble, policy, critic, rollouts, gamma: float, lcb_c: float, termination):
    """MOBILE-style one-step LCB targets, one valid (b, t) and one elite at a time.

    For each elite m: s' = s + mu_m(s, a)[:S], r_m = mu_m(s, a)[S], and
    y_m = r_m + gamma * Q(s', pi(s')), or r_m alone when `termination(s')`.
    The target is mean_m y_m minus lcb_c times the population std of
    Q(s', pi(s')) over the elites, terminal or not. Every network and the
    termination rule see one-row batches.
    """
    B, H = rollouts.rewards.shape
    S = ensemble.obs_dim
    targets = np.zeros((B, H))
    for b in range(B):
        for t in range(int(rollouts.t_eff[b])):
            s, a = rollouts.states[b, t], rollouts.actions[b, t]
            ys, qs = [], []
            for m in ensemble.elite_idx:
                x = np.concatenate([s, a])[None]
                out = nn.forward(ensemble.spec, ensemble.member_params[m], x)[0]
                nxt = (s + out[:S])[None]
                q = float(critic(nxt, policy(nxt))[0])
                ys.append(out[S] + (0.0 if termination(nxt)[0] else gamma * q))
                qs.append(q)
            mean_q = sum(qs) / len(qs)
            std_q = math.sqrt(sum((q - mean_q) ** 2 for q in qs) / len(qs))
            targets[b, t] = sum(ys) / len(ys) - lcb_c * std_q
    return targets


def loop_pretrain_fqe(dataset, policy, spec, params, steps: int, gamma: float, seed: int, lr: float,
                      batch: int = 256, target_every: int = 250):
    """`agent.pretrain_fqe` re-evaluating the policy and the target snapshot
    on every step's sampled batch, as it did before its row tables."""
    states, actions, rewards, next_states, terminals = dataset.flat_arrays()
    terminals = terminals.astype(np.float64)
    rng = stream(seed, "pretrain.fqe")
    adam = nn.init_adam(params.size, lr)
    target = params.copy()
    loss = float("nan")
    for step_i in range(steps):
        idx = rng.integers(0, states.shape[0], size=min(batch, states.shape[0]))
        next_a = np.atleast_2d(policy(next_states[idx]))
        next_q = nn.forward(spec, target, np.concatenate([next_states[idx], next_a], axis=1))[:, 0]
        y = rewards[idx] + gamma * (1.0 - terminals[idx]) * next_q
        x = np.concatenate([states[idx], actions[idx]], axis=1)
        q, cache = nn.forward_cached(spec, params, x)
        diff = q[:, 0] - y
        loss = float((diff * diff).mean())
        if not np.isfinite(loss):
            raise agent.DivergenceError("FQE loss diverged", {"step": step_i})
        cot = (2.0 * diff / diff.size)[:, None]
        grad, _ = nn.backward_cached(spec, params, cache, cot)
        adam, params = nn.adam_step(adam, params, grad)
        if (step_i + 1) % target_every == 0:
            target = params.copy()
    return params, loss


def loop_train_ensemble(dataset, config, seed: int):
    """`world_model.train_ensemble` training its members one after another,
    one 2-D forward, backward and Adam step per member and step, as it did
    before the lockstep groups."""
    states, actions, rewards, next_states, _ = dataset.flat_arrays()
    if states.shape[0] < 20:
        raise world_model.WorldModelError(f"need at least 20 transitions, got {states.shape[0]}")
    spec = world_model.member_spec(dataset.obs_dim, dataset.act_dim, config)
    inputs = np.concatenate([states, actions], axis=1)
    targets = np.concatenate([next_states - states, rewards[:, None]], axis=1)
    train_rows, val_rows = world_model._split_rows(
        dataset, stream(seed, "wm.split"), config.val_fraction
    )
    val_rows = val_rows[: config.max_val_rows]
    x_tr, t_tr = inputs[train_rows], targets[train_rows]
    x_val, t_val = inputs[val_rows], targets[val_rows]
    head_dim = dataset.obs_dim + 1

    lo, hi = world_model.LOG_STD_MIN, world_model.LOG_STD_MAX

    def nll(out, t):
        res = t - out[:, :head_dim]
        log_std = np.clip(out[:, head_dim:], lo, hi)
        per_row = 0.5 * res * res * np.exp(-2.0 * log_std) + log_std + world_model._HALF_LOG_2PI
        return float(per_row.sum(axis=-1).mean())

    n_p = nn.n_params(spec)
    member_params = np.zeros((config.n_members, n_p))
    val_nll = np.full(config.n_members, np.inf)
    for m in range(config.n_members):
        rng = stream(seed, "wm.member", m)
        params = nn.init_params(spec, rng)
        adam = nn.init_adam(n_p, config.lr)
        best = (np.inf, params.copy())
        diverged = False
        for step in range(config.train_steps):
            idx = rng.integers(0, x_tr.shape[0], size=config.batch_size)
            x, t = x_tr[idx], t_tr[idx]
            out, cache = nn.forward_cached(spec, params, x)
            loss = nll(out, t)
            if not np.isfinite(loss):
                diverged = True
                break
            raw = out[:, head_dim:]
            log_std = np.clip(raw, lo, hi)
            interior = (raw > lo) & (raw < hi)
            inv_var = np.exp(-2.0 * log_std)
            res = t - out[:, :head_dim]
            g_mu = -res * inv_var / x.shape[0]
            g_log_std = (1.0 - res * res * inv_var) / x.shape[0] * interior
            grad, _ = nn.backward_cached(spec, params, cache, np.concatenate([g_mu, g_log_std], axis=1))
            adam, params = nn.adam_step(adam, params, grad)
            if (step + 1) % config.val_interval == 0 or step + 1 == config.train_steps:
                score = nll(nn.forward(spec, params, x_val), t_val)
                if np.isfinite(score) and score < best[0]:
                    best = (score, params.copy())
        if not diverged and np.isfinite(best[0]):
            member_params[m] = best[1]
            val_nll[m] = best[0]
    order = np.argsort(val_nll, kind="stable")
    elites = [int(i) for i in order[: config.n_elites]]
    if not np.isfinite(val_nll[elites]).all():
        n_ok = int(np.isfinite(val_nll).sum())
        raise world_model.WorldModelError(
            f"only {n_ok} members trained to a finite validation NLL; need {config.n_elites}"
        )
    return world_model.EnsembleWorldModel(
        obs_dim=dataset.obs_dim,
        act_dim=dataset.act_dim,
        spec=spec,
        member_params=member_params,
        val_nll=val_nll,
        elite_idx=tuple(elites),
        config=config,
    )


def two_pass_policy_pathwise(plan, config, ensemble, rollouts, weights, pol, ce, qlam, valid):
    """`agent._policy_pathwise` with two policy backward passes per rollout
    state, as it ran before they were merged: the critic's action
    cotangents go through one stacked policy forward and backward over
    every state, and each model step's through that state's forward in
    `pol`, skipped where they are all zero. Returns (loss, gradient)."""
    B, H = rollouts.rewards.shape
    n_valid = int(valid.sum())
    loss = -float((weights * qlam).sum() / n_valid)
    rows = np.arange(B)
    bootstrap_ok = np.zeros((B, H + 1))
    bootstrap_ok[np.arange(H + 1)[None, :] <= rollouts.t_eff[:, None]] = 1.0
    bootstrap_ok[rows, rollouts.t_eff] = np.where(rollouts.terminal, 0.0, 1.0)
    c_r, c_q = returns.policy_grad_coefficients(
        -weights / n_valid, rollouts.t_eff, bootstrap_ok, config.lam, config.gamma
    )
    S = ensemble.obs_dim
    _, g_in = nn.backward_cached(
        plan.critic_spec, plan.critic_params, ce.cache, c_q.T.reshape(-1, 1), input_only=True
    )
    g_s_crit = g_in[:, :S].reshape(H + 1, B, S)
    flat = rollouts.states.transpose(1, 0, 2).reshape((H + 1) * B, S)
    acts, cache = agent._policy_forward(plan.policy_spec, plan.policy_params, flat)
    theta_grad, g_s_flat = nn.backward_cached(
        plan.policy_spec, plan.policy_params, cache, g_in[:, S:] * (1.0 - acts * acts)
    )
    g_s_polc = g_s_flat.reshape(H + 1, B, S)
    g_s_next = g_s_crit[H] + g_s_polc[H]
    for k in range(H - 1, -1, -1):
        alive = (rollouts.t_eff > k)[:, None]
        g_s_model, g_a_model = world_model.step_backward(
            ensemble, rollouts.caches[k], g_s_next * alive, c_r[:, k]
        )
        g_s_model = np.where(alive, g_s_model, 0.0)
        g_a_model = np.where(alive, g_a_model, 0.0)
        g_s_pol = np.zeros((B, S))
        if np.any(g_a_model):
            step_acts, step_cache = pol.steps[k]
            g_params, g_s_pol = nn.backward_cached(
                plan.policy_spec, plan.policy_params, step_cache,
                g_a_model * (1.0 - step_acts * step_acts),
            )
            theta_grad += g_params
        g_s_next = g_s_model + g_s_crit[k] + g_s_polc[k] + g_s_pol + g_s_next * (~alive)
    return loss, theta_grad


def central_diff(fn, params, i: int, h: float) -> float:
    p = np.array(params, dtype=np.float64, copy=True)
    p[i] += h
    up = fn(p)
    p[i] -= 2.0 * h
    dn = fn(p)
    return (up - dn) / (2.0 * h)


def worst_fd_rel_error(fn, grad, params, rng, n_coords: int = 25, h: float = 1e-6,
                       floor: float = 1e-4) -> float:
    """Worst relative disagreement between `grad` and central differences
    of `fn` over randomly chosen coordinates; |grad| floored to keep the
    ratio meaningful where the true gradient is ~0."""
    grad = np.asarray(grad, dtype=np.float64)
    idx = rng.choice(params.size, size=min(n_coords, params.size), replace=False)
    worst = 0.0
    for i in idx:
        fd = central_diff(fn, params, int(i), h)
        worst = max(worst, abs(fd - grad[int(i)]) / max(floor, abs(grad[int(i)])))
    return worst


# --- a 3-state deterministic ring MDP for fitted-Q-evaluation checks ---

RING_REWARDS = (1.0, 0.0, 2.0)


def ring_policy_values(gamma: float, iters: int = 4000) -> np.ndarray:
    """V^pi by plain value iteration on the s0 -> s1 -> s2 -> s0 ring."""
    r = np.array(RING_REWARDS, dtype=np.float64)
    v = np.zeros(3)
    for _ in range(iters):
        v = r + gamma * v[[1, 2, 0]]
    return v


def ring_trajectory_arrays(n_cycles: int):
    """One long ring rollout as (states, actions, rewards) arrays.

    States are one-hot rows; the single action coordinate is always 0
    (the evaluated policy), rewards follow RING_REWARDS per source state.
    """
    n = 3 * n_cycles
    order = np.arange(n + 1) % 3
    states = np.eye(3)[order]
    actions = np.zeros((n, 1))
    rewards = np.array([RING_REWARDS[s] for s in order[:-1]], dtype=np.float64)
    return states, actions, rewards


# --- the container file layout, written out by hand ---


def container_bytes(magic: bytes, header: dict, body: bytes) -> bytes:
    """magic, u32 header length, sorted-key JSON header, body, CRC32."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = magic + struct.pack("<I", len(blob)) + blob + body
    return payload + struct.pack("<I", zlib.crc32(payload))


def container_parts(blob: bytes) -> tuple[bytes, dict, bytes]:
    """(magic, header, body) of a container file; the CRC is not checked."""
    (hlen,) = struct.unpack_from("<I", blob, 4)
    return blob[:4], json.loads(blob[8 : 8 + hlen]), blob[8 + hlen : -4]


def container_file(magic: bytes, header: dict, arrays: dict) -> bytes:
    """A whole file holding `arrays` as little-endian float64 with its layout."""
    layout, offset, body = [], 0, b""
    for name, arr in arrays.items():
        flat = np.asarray(arr, dtype="<f8").reshape(-1)
        layout.append([name, offset, flat.size])
        offset += flat.size
        body += flat.tobytes()
    return container_bytes(magic, {**header, "layout": layout}, body)


SPECIAL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300, 5e-324]


def assert_bits(got, want):
    """Equal values with NaNs at the same places, then the sign of every zero."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def assert_bits_but_nan_signs(got, want):
    """`assert_bits`, but a NaN's sign may differ: every finite and infinite
    value and the sign of every zero are still compared. numpy's SIMD lanes
    and scalar tails put the two operands of a binary op in different
    orders, so where two NaNs of opposite sign meet, the sign that survives
    depends on the element's offset in the array, and a slice or a member
    group sits at another offset in a stack or a member-sorted batch."""
    np.testing.assert_array_equal(got, want)
    signed = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


def alloc_activate(h, kind: str):
    """`nn._activate` as it was before it consumed its argument; its ELU is
    the four-pass expm1(min(h, 0)) + max(h, 0)."""
    if kind == "relu":
        return np.maximum(h, 0.0)
    if kind == "tanh":
        return np.tanh(h)
    return np.expm1(np.minimum(h, 0.0)) + np.maximum(h, 0.0)


def alloc_activate_grad(a, kind: str):
    """`nn._activate_grad` with every intermediate a fresh array."""
    if kind == "relu":
        return (a > 0.0).astype(np.float64)
    if kind == "tanh":
        return 1.0 - a * a
    return np.minimum(a, 0.0) + 1.0


def alloc_forward_cached(spec, params, x):
    """`nn.forward_cached` as it was before its in-place kernels."""
    x = np.asarray(x, dtype=np.float64)
    views = nn.param_views(spec, params)
    raw_in = x
    if spec.use_symlog_input:
        x = nn.symlog(x)
    layers = []
    a = x
    for i in range(len(spec.hidden_dims)):
        h = a @ views[f"w{i}"] + views[f"b{i}"]
        if spec.use_layernorm:
            mean = h.mean(axis=1, keepdims=True)
            centered = h - mean
            inv_std = 1.0 / np.sqrt(np.mean(centered * centered, axis=1, keepdims=True) + nn._LN_EPS)
            norm = centered * inv_std
            z = norm * views[f"ln_scale{i}"] + views[f"ln_shift{i}"]
        else:
            norm = inv_std = None
            z = h
        out = alloc_activate(z, spec.activation)
        layers.append((a, norm, inv_std, out))
        a = out
    y = a @ views["w_out"] + views["b_out"]
    return y, (raw_in, x, layers, a)


def alloc_backward_cached(spec, params, cache, output_cotangent):
    """`nn.backward_cached` as it was before its in-place kernels."""
    raw_in, x0, layers, last = cache
    gy = np.asarray(output_cotangent, dtype=np.float64)
    views = nn.param_views(spec, params)
    grad_flat = np.zeros_like(params)
    grads = nn.param_views(spec, grad_flat)

    grads["w_out"][...] = last.T @ gy
    grads["b_out"][...] = gy.sum(axis=0)
    ga = gy @ views["w_out"].T

    for i in reversed(range(len(spec.hidden_dims))):
        a_in, norm, inv_std, out = layers[i]
        gz = ga * alloc_activate_grad(out, spec.activation)
        if spec.use_layernorm:
            scale = views[f"ln_scale{i}"]
            grads[f"ln_scale{i}"][...] = (gz * norm).sum(axis=0)
            grads[f"ln_shift{i}"][...] = gz.sum(axis=0)
            gn = gz * scale
            gh = inv_std * (
                gn
                - gn.mean(axis=1, keepdims=True)
                - norm * (gn * norm).mean(axis=1, keepdims=True)
            )
        else:
            gh = gz
        grads[f"w{i}"][...] = a_in.T @ gh
        grads[f"b{i}"][...] = gh.sum(axis=0)
        ga = gh @ views[f"w{i}"].T

    if spec.use_symlog_input:
        ga = ga * nn.symlog_grad(raw_in)
    return grad_flat, ga


def member_groups(member: np.ndarray) -> list:
    """Rows grouped by member id, as (member id, row index array)."""
    order = np.argsort(member, kind="stable")
    ids = member[order]
    cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    return [(int(member[chunk[0]]), chunk) for chunk in np.split(order, cuts)]


def group_step_with_tape(ensemble, states, actions, member, eps):
    """`world_model.step_with_tape` one member group at a time, every layer of
    a group before the next group, with `post` kept in row order.

    Returns (next_states, rewards, tape), where tape holds what
    `group_step_backward` needs.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    member = np.asarray(member, dtype=np.intp).reshape(-1)
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    x = np.concatenate([states, actions], axis=1)
    spec = ensemble.spec
    groups = member_groups(member)
    B = x.shape[0]
    post = [np.empty((B, width)) for width in spec.hidden_dims]
    out = np.empty((B, spec.output_dim))
    for m, rows in groups:
        views = nn.param_views(spec, ensemble.member_params[m])
        a = x[rows]
        for i in range(len(spec.hidden_dims)):
            a = alloc_activate(a @ views[f"w{i}"] + views[f"b{i}"], spec.activation)
            post[i][rows] = a
        out[rows] = a @ views["w_out"] + views["b_out"]
    head_dim = ensemble.obs_dim + 1
    mu, log_std, interior = world_model._split_heads(out, head_dim)
    sigma = np.exp(log_std)
    sample = mu + sigma * eps
    next_states = states + sample[:, : ensemble.obs_dim]
    rewards = sample[:, ensemble.obs_dim]
    tape = {
        "x": x, "post": post, "groups": groups, "sigma": sigma, "eps": eps, "interior": interior
    }
    return next_states, rewards, tape


def group_step_backward(ensemble, tape, g_next, g_reward):
    """`world_model.step_backward` one member group at a time over a
    `group_step_with_tape` tape."""
    g_next = np.atleast_2d(np.asarray(g_next, dtype=np.float64))
    g_reward = np.asarray(g_reward, dtype=np.float64).reshape(-1)
    g_sample = np.concatenate([g_next, g_reward[:, None]], axis=1)
    g_log_std = g_sample * tape["eps"] * tape["sigma"] * tape["interior"]
    g_out = np.concatenate([g_sample, g_log_std], axis=1)
    spec = ensemble.spec
    g_in = np.empty_like(tape["x"])
    for m, rows in tape["groups"]:
        views = nn.param_views(spec, ensemble.member_params[m])
        g = g_out[rows] @ views["w_out"].T
        for layer in range(len(tape["post"]) - 1, -1, -1):
            act_grad = alloc_activate_grad(tape["post"][layer][rows], spec.activation)
            g = (g * act_grad) @ views[f"w{layer}"].T
        g_in[rows] = g
    g_state = g_in[:, : ensemble.obs_dim] + g_next
    g_action = g_in[:, ensemble.obs_dim :]
    return g_state, g_action


def scalar_move_axis(pos: np.ndarray, axis: int, delta: float, walls) -> float:
    """`envs._move_axis` for one (2,) position, wall by wall: the position
    stops at the nearest wall face its unclipped move reaches."""
    start = pos[axis]
    target = start + delta
    if delta == 0.0:
        return start
    other = 1 - axis
    margin = envs._WALL_MARGIN
    stops = []
    for (a, b) in walls:
        if a[axis] != b[axis]:
            continue
        w = a[axis]
        lo_o, hi_o = min(a[other], b[other]), max(a[other], b[other])
        if not (lo_o - margin <= pos[other] <= hi_o + margin):
            continue
        if delta > 0.0 and start <= w + margin <= target + margin:
            stops.append(w - margin)
        elif delta < 0.0 and target - margin <= w - margin <= start:
            stops.append(w + margin)
    if not stops:
        return target
    return min(target, *stops) if delta > 0.0 else max(target, *stops)


def scalar_maze_step(spec, state: np.ndarray, action: np.ndarray):
    pos = state.copy()
    delta = spec.step_size * action
    pos[0] = scalar_move_axis(pos, 0, float(delta[0]), spec.walls)
    pos[1] = scalar_move_axis(pos, 1, float(delta[1]), spec.walls)
    margin = envs._WALL_MARGIN
    (lo_x, lo_y), (hi_x, hi_y) = spec.bounds
    pos[0] = min(max(pos[0], lo_x + margin), hi_x - margin)
    pos[1] = min(max(pos[1], lo_y + margin), hi_y - margin)
    done = scalar_terminated(spec, pos)
    return pos, 0.0 if done else -1.0, done


def scalar_chain_step(spec, state: np.ndarray, action: np.ndarray):
    v = float(np.clip(state[1] + 0.1 * action[0], -1.0, 1.0))
    x = float(state[0] + 0.1 * v)
    nxt = np.array([x, v], dtype=np.float64)
    return nxt, v, scalar_terminated(spec, nxt)


def scalar_terminated(spec, state) -> bool:
    """The termination rule for one (S,) state, from the env definitions:
    inside the maze's goal disc, or past either of the chain's position bounds."""
    if spec.env_id == "point_maze":
        gx, gy = spec.goal
        return bool((state[0] - gx) ** 2 + (state[1] - gy) ** 2 <= spec.goal_radius**2)
    return bool(abs(state[0]) > spec.chain_length)


def scalar_success(spec, final_state, reached_terminal: bool) -> bool:
    """One episode's success: it reached a terminal state, which for a chain
    must lie past the forward bound."""
    if not reached_terminal:
        return False
    return spec.env_id == "point_maze" or bool(final_state[0] > spec.chain_length)


def scalar_env_step(spec, state, action):
    """One (S,) transition the way `envs.env_step` took it before it was batched."""
    state = np.asarray(state, dtype=np.float64)
    if not np.all(np.isfinite(state)):
        raise envs.EnvError(f"non-finite state {state!r}")
    action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    if state.shape != (spec.obs_dim,) or action.shape != (spec.act_dim,):
        raise envs.EnvError("state/action dimension mismatch")
    if spec.env_id == "point_maze":
        return scalar_maze_step(spec, state, action)
    return scalar_chain_step(spec, state, action)


def loop_evaluate_policy(policy, env_spec, n_episodes: int, seed: int) -> dict:
    """`agent.evaluate_policy` one episode at a time, a one-row batch per policy call."""
    total_return = 0.0
    successes = 0
    lengths = 0
    for ep in range(n_episodes):
        s = envs.reset_state(env_spec, stream(seed, "eval.episode", ep))
        ep_ret, done = 0.0, False
        for _ in range(env_spec.horizon):
            a = policy(s[None])[0]
            s, r, done = scalar_env_step(env_spec, s, a)
            ep_ret += r
            lengths += 1
            if done:
                break
        total_return += ep_ret
        successes += int(scalar_success(env_spec, s, done))
    return {
        "mean_return": total_return / n_episodes,
        "success_rate": successes / n_episodes,
        "mean_length": lengths / n_episodes,
    }


def scalar_expert_action(spec, state: np.ndarray, waypoint_idx: int):
    """`envs.expert_action` for one (S,) state, the way it went before it was batched."""
    if spec.env_id == "dense_chain":
        return np.array([1.0]), 0
    pos = np.asarray(state, dtype=np.float64)
    waypoints = spec.waypoints
    while waypoint_idx < len(waypoints) - 1:
        wp = np.asarray(waypoints[waypoint_idx])
        if float(np.hypot(*(wp - pos))) <= envs._WAYPOINT_RADIUS:
            waypoint_idx += 1
        else:
            break
    wp = np.asarray(waypoints[waypoint_idx])
    action = np.clip(envs._STEER_GAIN * (wp - pos), -1.0, 1.0)
    return action, waypoint_idx


def _collector_action(collector, spec, state, wp_idx, traj_rng, noisy):
    """One row's action: a fresh (A,) draw per step from the trajectory's stream."""
    if collector == "random":
        return traj_rng.uniform(-1.0, 1.0, size=spec.act_dim), wp_idx
    action, wp_idx = scalar_expert_action(spec, state, wp_idx)
    if noisy:
        action = np.clip(action + traj_rng.normal(0.0, datasets._MEDIUM_NOISE, spec.act_dim), -1.0, 1.0)
    return action, wp_idx


def loop_collect_dataset(spec, collector: str, n_trajectories: int, seed: int, horizon=None):
    """`datasets.collect_dataset` one trajectory and one row at a time."""
    horizon = spec.horizon if horizon is None else int(horizon)
    trajectories = []
    for i in range(n_trajectories):
        traj_rng = stream(seed, f"collect.{spec.name}.{collector}", i)
        mode = collector if collector != "mixed" else ("medium" if i % 2 == 0 else "random")
        state = envs.reset_state(spec, traj_rng)
        states, actions, rewards = [state], [], []
        wp_idx = 0
        ends_terminal = False
        for _ in range(horizon):
            action, wp_idx = _collector_action(
                mode, spec, state, wp_idx, traj_rng, noisy=(mode == "medium")
            )
            state, reward, done = scalar_env_step(spec, state, action)
            states.append(state)
            actions.append(np.asarray(action, dtype=np.float64))
            rewards.append(reward)
            if done:
                ends_terminal = True
                break
        trajectories.append(
            datasets.Trajectory(
                states=np.asarray(states, dtype=np.float64),
                actions=np.asarray(actions, dtype=np.float64),
                rewards=np.asarray(rewards, dtype=np.float64),
                ends_terminal=ends_terminal,
            )
        )
    n_success = sum(scalar_success(spec, t.states[-1], t.ends_terminal) for t in trajectories)
    return datasets.OfflineDataset(
        trajectories=tuple(trajectories),
        obs_dim=spec.obs_dim,
        act_dim=spec.act_dim,
        metadata={
            "env": spec.name,
            "collector": collector,
            "seed": int(seed),
            "n_trajectories": n_trajectories,
            "success_rate": n_success / n_trajectories,
        },
    )


# The run and matrix config schemas the config dataclasses replaced, as a
# reference verdict: JSON Schema first, then the dataclasses' own checks.
# The run config's `stages` and the agent's `pretrain` have since been
# removed on purpose, from both sides.

_SCALAR_SCHEMAS = {
    float: {"type": "number"},
    int: {"type": "integer"},
    str: {"type": "string"},
    bool: {"type": "boolean"},
}


def _fields_schema(cls) -> dict:
    """Property schema derived from a config dataclass's field defaults."""
    props = {}
    for f in dataclasses.fields(cls):
        default = getattr(cls, f.name)
        if isinstance(default, tuple):
            props[f.name] = {"type": "array", "items": {"type": "integer", "minimum": 1}}
        elif isinstance(default, bool):
            props[f.name] = _SCALAR_SCHEMAS[bool]
        else:
            props[f.name] = _SCALAR_SCHEMAS[type(default)]
    return props


RUN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "env", "dataset"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "env": {"type": "string"},
        "dataset": {"type": "string"},
        "out_dir": {"type": "string"},
        "desk_scale": {"type": "boolean"},
        "reward_normalization": {"enum": list(datasets.NORMALIZATION_MODES)},
        "agent": {
            "type": "object",
            "additionalProperties": False,
            "properties": _fields_schema(agent.AgentConfig),
        },
        "world_model": {
            "type": "object",
            "additionalProperties": False,
            "properties": _fields_schema(world_model.WorldModelConfig),
        },
        "eval_interval": {"type": "integer", "minimum": 1},
        "eval_episodes": {"type": "integer", "minimum": 1},
        "log_interval": {"type": "integer", "minimum": 1},
        "checkpoint_interval": {"type": "integer", "minimum": 1},
    },
}

MATRIX_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["base", "cells", "seeds"],
    "properties": {
        "base": RUN_SCHEMA,
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
        "cells": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["agent"],
                "properties": {"name": {"type": "string"}, "agent": RUN_SCHEMA["properties"]["agent"]},
            },
        },
    },
}


def _schema_accepts(schema: dict, raw) -> bool:
    import jsonschema

    # jsonschema counts 10.0 as an integer, but configs are decoded as
    # written, so an integer field must hold a JSON integer
    validator = jsonschema.validators.extend(
        jsonschema.Draft202012Validator,
        type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
            "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)
        ),
    )
    return validator(schema).is_valid(raw)


def frozen_ranges_accept(agent_values: dict, model_values: dict) -> bool:
    """The value ranges `AgentConfig` and `WorldModelConfig` checked in their
    `__post_init__` when the schemas were retired, plus `awr_alpha`, `lcb_c`
    and `activation`, written out so that a range the dataclasses later
    tighten by mistake shows as a disagreement. The comparisons and `min`
    orders are theirs, so a NaN passes or fails as it did there. The one
    deliberate tightening since: `conservatism` lost "none", which was
    `lower_expectile` at tau = 0.5."""
    a, w = agent_values, model_values
    tau = float(a["tau"])
    return not (
        not math.isfinite(tau)
        or not (0.0 < tau <= 1.0)
        or not 0.0 <= a["lam"] < 1.0
        or not 0.0 < a["gamma"] < 1.0
        or a["horizon"] < 1
        or a["rollout_r"] < 1
        or not 0.0 <= a["beta"] <= 1.0
        or a["omega_ema"] < 0.0
        or a["sigma_exp"] < 0.0
        or min(a["lr_actor"], a["lr_critic"], a["lr_pretrain"]) <= 0.0
        or min(a["batch_env"], a["batch_model"], a["t_expand"], a["n_expand"], a["n_iter"]) <= 0
        or min(a["bc_steps"], a["fqe_steps"]) < 0
        or not 0.0 < a["ema_decay"] < 1.0
        or a["conservatism"] not in ("lower_expectile", "mobile_lcb")
        or a["critic_target"] not in ("lambda", "one_step", "h_step")
        or a["policy_update"] not in ("lambda_expectile", "q_value", "awr")
        or a["awr_alpha"] <= 0.0
        or a["lcb_c"] < 0.0
        or not 0 < w["n_elites"] <= w["n_members"]
        or not 0.0 < w["val_fraction"] < 1.0
        or min(w["train_steps"], w["batch_size"], w["val_interval"], w["max_val_rows"]) <= 0
        or w["lr"] <= 0.0
        or w["activation"] not in ("relu", "tanh", "elu")
    )


def schema_accepts_run_config(raw) -> bool:
    """The schema-era verdict on a run config, with the frozen value ranges."""
    if not _schema_accepts(RUN_SCHEMA, raw):
        return False
    preset = agent.AgentConfig()
    if raw.get("desk_scale", False):
        preset = preset.desk_scale()
    return frozen_ranges_accept(
        {**dataclasses.asdict(preset), **raw.get("agent", {})},
        {**dataclasses.asdict(world_model.WorldModelConfig()), **raw.get("world_model", {})},
    )


def schema_accepts_matrix_config(raw) -> bool:
    """The schema-era verdict on a matrix config: its schema, then the base config's."""
    return _schema_accepts(MATRIX_SCHEMA, raw) and schema_accepts_run_config(raw["base"])
