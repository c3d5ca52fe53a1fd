"""Every metric the benchmark reports: name, unit and which direction is better.

End-to-end metrics come from untraced runs. Per-layer metrics come from the
traced run and are named `<stage>.<module>.<function>.<stat>`; `main.*`
values are per train step, every other stage's are per run. A layer a
workload never calls reads 0 there (see `NOT_APPLICABLE`).
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("gen_data_s", "s", "lower"),
    ("bc_s", "s", "lower"),
    ("fqe_s", "s", "lower"),
    ("train_steps_per_s", "1/s", "higher"),
    ("eval_us_per_step", "us", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# figures of the untraced desk run that vary with the seed's data or that
# only some workloads have, so they carry no bound; reported with the
# traced run
UNTRACED = (
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p95", "ms", "lower"),
    ("wm_train_s", "s", "lower"),
    ("expand_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("final_return", "return", "higher"),
)

_STAT_UNITS = {
    "calls": "count",
    "rows": "rows",
    "ms": "ms",
    "valid_frac": "ratio",
    "bytes": "bytes",
    "us": "us",
}

_NN = (
    ("nn.forward_cached", ("calls", "rows", "ms")),
    ("nn.backward_cached", ("calls", "rows", "ms")),
    ("nn.adam_step", ("ms",)),
)

_LAYER_TABLE = (
    (
        "main",
        (
            ("agent.train_step", ("ms",)),
            ("agent.critic_loss_total", ("ms",)),
            ("agent.critic_loss_env", ("ms",)),
            ("agent.critic_loss_ema", ("ms",)),
            ("agent.policy_loss_surrogate", ("ms",)),
            ("agent.awr_policy_loss", ("ms",)),
            ("world_model.imagine_rollout", ("ms", "valid_frac")),
            ("world_model.step_with_tape", ("calls", "rows", "ms")),
            ("world_model.step_backward", ("calls", "ms")),
            *_NN,
            ("returns.lambda_return_batch", ("calls", "ms")),
            ("returns.policy_grad_coefficients", ("ms",)),
        ),
    ),
    ("wm_train", (*_NN, ("world_model.train_ensemble", ("ms",)))),
    ("bc", (*_NN, ("agent.pretrain_bc", ("ms",)))),
    ("fqe", (*_NN, ("agent.pretrain_fqe", ("ms",)))),
    (
        "expand",
        (
            ("world_model.step_with_tape", ("calls", "rows", "ms")),
            ("nn.forward_cached", ("ms",)),
            ("agent.expand_dataset", ("ms",)),
        ),
    ),
    (
        "eval",
        (
            ("envs.env_step", ("calls", "ms")),
            ("nn.forward_cached", ("calls", "ms")),
            ("agent.evaluate_policy", ("ms",)),
        ),
    ),
    (
        "gen_data",
        (
            ("envs.env_step", ("calls", "ms")),
            ("datasets.collect_dataset", ("ms",)),
            ("datasets.save_dataset", ("ms",)),
        ),
    ),
    ("setup", (("datasets.load_dataset", ("ms",)),)),
    ("checkpoint", (("agent.save_agent", ("calls", "ms", "bytes")),)),
    ("driver", (("cli.run_training", ("ms",)),)),
)

KERNELS = (
    "nn.forward_cached.critic",
    "nn.forward_cached.policy",
    "nn.backward_cached.critic",
    "nn.backward_cached.policy",
    "world_model.step_with_tape",
    "world_model.step_backward",
    "returns.lambda_return_batch",
    "returns.policy_grad_coefficients",
    "envs.env_step",
    "nn.adam_step.critic",
)

LAYER_STATS = tuple(
    (f"{stage}.{fn}.{stat}", stage, fn, stat)
    for stage, fns in _LAYER_TABLE
    for fn, stats in fns
    for stat in stats
)

PER_LAYER = (
    *((name, _STAT_UNITS[stat], "higher" if stat == "valid_frac" else "lower")
      for name, _, _, stat in LAYER_STATS),
    *((f"kernel.{k}.us", "us", "lower") for k in KERNELS),
    *UNTRACED,
    ("trace.overhead_s", "s", "lower"),
)

# layers each workload never calls, so their per-layer metrics read 0;
# a prefix covers every metric that starts with it
NOT_APPLICABLE = {
    "leq_maze": (
        "main.agent.critic_loss_env.",
        "main.agent.critic_loss_ema.",
        "main.agent.awr_policy_loss.",
    ),
    "modelfree_chain": (
        "main.agent.critic_loss_total.",
        "main.agent.policy_loss_surrogate.",
        "main.agent.awr_policy_loss.",
        "main.world_model.",
        "main.returns.",
        "wm_train.",
        "expand.",
        "kernel.world_model.",
        "kernel.returns.",
        "wm_train_s",
        "expand_s",
    ),
    "lcb_spiral": (
        "main.agent.critic_loss_env.",
        "main.agent.critic_loss_ema.",
        "main.agent.policy_loss_surrogate.",
        "main.world_model.step_backward.",
        "main.returns.policy_grad_coefficients.",
        "kernel.world_model.step_backward.",
        "kernel.returns.policy_grad_coefficients.",
    ),
}


def applies(workload: str, name: str) -> bool:
    return not any(name.startswith(p) for p in NOT_APPLICABLE.get(workload, ()))


def layer_values(agg: dict, kernels_us: dict) -> dict:
    """Per-layer values from a traced run's span aggregate and kernel replay."""
    steps = agg.get(("main", "agent.train_step"), {}).get("calls", 0)
    out = {}
    for name, stage, fn, stat in LAYER_STATS:
        entry = agg.get((stage, fn), {})
        if stat == "valid_frac":
            attempted = entry.get("attempted", 0)
            out[name] = entry.get("valid", 0) / attempted if attempted else 0.0
            continue
        value = entry.get("self_ns", 0) / 1e6 if stat == "ms" else entry.get(stat, 0)
        if stage == "main" and steps:
            value = value / steps
        out[name] = value
    for key in KERNELS:
        out[f"kernel.{key}.us"] = kernels_us.get(key, 0.0)
    return out
