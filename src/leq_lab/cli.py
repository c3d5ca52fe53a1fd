"""Command-line pipeline: data generation, training, evaluation, ablations.

Every command is deterministic given its seed and inputs.  All randomness
flows through named streams keyed off the run seed (per step, per
expansion round, per eval episode), so an interrupted run resumed from its
checkpoint replays exactly the trace an uninterrupted run would have
produced.  Timestamps appear only in report metadata, never in CSVs.

Exit codes: 0 success; 1 a divergence (with divergence.json written), a
failed world-model training (too few members with a finite validation
NLL), a helper process whose call failed or that died, or a failed theory
check;
2 bad input: a usage or config error, or a missing, corrupt, truncated or
incompatible dataset, checkpoint or ensemble file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import agent as agent_mod
from . import container, datasets, envs, forked, heap, world_model
from .config import ConfigError, RunConfig, load_matrix_config, load_run_config
from .expectile import InputValidationError, ScalarDistribution
from .rng import stream

__all__ = ["main"]

_TRAIN_CSV = "metrics.csv"
_EVAL_CSV = "eval.csv"
_CHECKPOINT = "checkpoint.leqa"
_ENSEMBLE = "world_model.leqm"


def _build_id() -> str:
    """git-describe-style build id; package version when not in a checkout."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", here, "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "leq-lab-0.1.0"


def _fmt(value) -> str:
    """Full-precision decimal for CSV cells.

    NumPy float scalars are floats too, but their repr names the type
    (`np.float64(0.1)`), so every float is written as a Python float.
    """
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_csv(path) -> tuple[list[dict], list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader), list(reader.fieldnames or [])


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    spec = envs.make_env_spec(args.env)
    dataset = datasets.collect_dataset(spec, args.collector, args.n, args.seed)
    datasets.save_dataset(dataset, args.out)
    returns = dataset.returns()
    print(f"wrote {args.out}")
    print(f"  trajectories:      {dataset.lengths.size}")
    print(f"  transitions:       {dataset.n_transitions}")
    print(f"  mean return:       {float(returns.mean()):.4f}")
    print(f"  collector success: {dataset.metadata['success_rate']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# the training pipeline


def _load_inputs(cfg: RunConfig):
    """(env spec, normalized dataset) of a run, checked before any stage runs."""
    env_spec = envs.make_env_spec(cfg.env)
    dataset = datasets.load_dataset(cfg.dataset)
    recorded = dataset.metadata.get("env", env_spec.name)
    if recorded != env_spec.name:
        raise ConfigError(f"{cfg.dataset} was recorded in {recorded!r}, not in env {cfg.env!r}")
    if dataset.n_transitions == 0:
        raise ConfigError("dataset holds no transitions")
    if cfg.reward_normalization != "none":
        dataset = datasets.normalize_rewards(dataset, cfg.reward_normalization)
    return env_spec, dataset


def _sha256(path) -> str:
    """The file's sha256, read in 64 KB blocks: a whole-file buffer, once
    freed, stays resident under `heap.set_heap_policy` (+0.3 MB peak RSS)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _prepare_run(cfg: RunConfig, env_spec, dataset, out_dir: str, resume: bool, clock, helper_s=None) -> tuple:
    """(ensemble or None, agent state); the seconds of FQE's helper, if one
    forks, go into `helper_s`, if given.

    A resumed run loads the ensemble and the checkpoint it finds in
    `out_dir`. A checkpoint of another seed would continue on other RNG
    streams, one trained on a dataset file of another sha256 would go on
    learning from other data, and one past step 0 was written just after
    both CSVs, which the resumed trace continues. An ensemble trained by a
    run of another seed, or on a dataset file of another sha256, is not
    the model this run would train. Each refusal raises ConfigError before
    anything is written here. Only once the ensemble and the checkpoint
    pass their checks is `out_dir` made, if missing, and does
    `effective_config.json` record the run's config, so a refused run
    leaves the directory and its record as they were.
    Otherwise the ensemble trains (when the agent `agent.needs_model`) and
    the agent is built, pretrained and checkpointed, the ensemble saved
    first, so a checkpoint never lacks its ensemble. Pretraining writes
    into the state: BC's and FQE's params, and the summary scalar of each
    stage with steps into `state.extra["pretrain"]`, which the checkpoint
    and the report record. A divergence in either writes divergence.json
    (`_snapshot`). Each save writes what its object holds: the seed the
    state and the ensemble were built with, and the dataset's sha256.

    When a fresh run both trains the ensemble and runs BC, BC is
    `world_model.train_ensemble`'s `beside` call: it runs in this process
    while the members train in a helper, if one forks, and after they have
    trained here if not; any other run trains the members here. FQE always
    follows the join, so no helper is alive then, and `agent.pretrain_fqe`
    may fork its own. Pretraining never reads the model. The `world_model`
    phase leaves out BC, so it times the wait for the helper after BC and
    the save, or the training and the save.
    """
    ens_path = os.path.join(out_dir, _ENSEMBLE)
    ckpt_path = os.path.join(out_dir, _CHECKPOINT)
    ensemble = None
    with_model = agent_mod.needs_model(cfg.agent)
    data_sha256 = _sha256(cfg.dataset)
    if with_model and resume and os.path.exists(ens_path):
        with clock.phase("world_model"):
            ensemble = world_model.load_ensemble(ens_path)
        if ensemble.config != cfg.world_model:
            raise ConfigError(f"{ens_path} was trained with a different world-model config")
    fresh = not (resume and os.path.exists(ckpt_path))
    train = with_model and ensemble is None
    if fresh:
        state = agent_mod.build_agent(cfg.agent, env_spec, cfg.seed)
        state.dataset_sha256 = data_sha256
    else:
        state = agent_mod.load_agent(ckpt_path)
        # n_iter may grow between sessions; everything else must match or
        # the resumed trace would silently diverge from a fresh run
        if replace(state.config, n_iter=cfg.agent.n_iter) != cfg.agent:
            raise ConfigError("checkpoint was written by a different agent config")
        if state.seed != cfg.seed:
            raise ConfigError(f"checkpoint was written by a run with seed {state.seed}, not {cfg.seed}")
        if state.dataset_sha256 != data_sha256:
            raise ConfigError(
                f"checkpoint was trained on a dataset of sha256 {state.dataset_sha256},"
                f" not on {cfg.dataset} ({data_sha256})"
            )
        for path in (os.path.join(out_dir, _TRAIN_CSV), os.path.join(out_dir, _EVAL_CSV)):
            if state.step > 0 and not os.path.exists(path):
                raise ConfigError(f"cannot resume from step {state.step}: {path} is missing")
        state.config = cfg.agent
    # a checkpoint's own refusals come first; without one, only this stops
    # a fresh agent from training on another run's model
    if ensemble is not None and (ensemble.seed, ensemble.dataset_sha256) != (cfg.seed, data_sha256):
        raise ConfigError(
            f"{ens_path} was trained by a run of seed {ensemble.seed} on a dataset of sha256"
            f" {ensemble.dataset_sha256}, not of seed {cfg.seed} on {cfg.dataset} ({data_sha256})"
        )
    # every check has passed: the directory's record becomes this run's config
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "effective_config.json"), _effective(cfg))

    pretrain = state.extra.setdefault("pretrain", {})
    config = state.config
    bc = fresh and config.bc_steps > 0

    def run_bc():
        with _snapshot(out_dir, cfg, "bc"), clock.phase("bc"):
            state.policy_params, pretrain["bc_mse"] = agent_mod.pretrain_bc(
                dataset, state.policy_spec, state.policy_params, config.bc_steps, cfg.seed, config.lr_pretrain
            )

    if train:
        with clock.phase("world_model"):
            ensemble = world_model.train_ensemble(dataset, cfg.world_model, cfg.seed, run_bc if bc else None)
            ensemble = replace(ensemble, dataset_sha256=data_sha256)
            world_model.save_ensemble(ens_path, ensemble)
    elif bc:
        run_bc()
    if fresh:
        if config.fqe_steps > 0:
            with _snapshot(out_dir, cfg, "fqe"), clock.phase("fqe"):
                state.critic_params, pretrain["fqe_loss"] = agent_mod.pretrain_fqe(
                    dataset, state.policy, state.critic_spec, state.critic_params, config.fqe_steps,
                    config.gamma, cfg.seed, config.lr_pretrain, helper_s=helper_s,
                )
            state.critic_ema = state.critic_params.copy()
        state.buffer.insert(dataset.flat_arrays()[0])
        with clock.phase("checkpoint"):
            agent_mod.save_agent(ckpt_path, state)
    return ensemble, state


def _peak_rss_mb() -> dict:
    """Peak resident set of this process and of its largest child waited
    for so far, in MB, both over the life of the process. A helper counts
    the pages it still shares with this process. A vfork'd child that execs
    (`git describe`) takes over this process's peak as its own, so read
    this before `_build_id`."""
    import resource

    return {
        who: round(resource.getrusage(which).ru_maxrss / 1024.0, 1)
        for who, which in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))
    }


def _effective(cfg: RunConfig) -> dict:
    """The run config as effective_config.json and divergence.json record it."""
    return {k: v for k, v in asdict(cfg).items() if v is not None}


def _write_divergence(out_dir: str, cfg: RunConfig, err, stage: str, step) -> None:
    snapshot = {
        "error": str(err),
        "details": err.snapshot,
        "stage": stage,
        "step": step,
        "config": _effective(cfg),
    }
    with open(os.path.join(out_dir, "divergence.json"), "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, default=repr)


@contextlib.contextmanager
def _snapshot(out_dir: str, cfg: RunConfig, stage: str):
    """A DivergenceError raised inside writes divergence.json, naming
    `stage` and the step in the error's snapshot, before it goes on."""
    try:
        yield
    except agent_mod.DivergenceError as err:
        _write_divergence(out_dir, cfg, err, stage, err.snapshot.get("step"))
        raise


def _env_batch(arrays, idx) -> dict:
    states, actions, rewards, next_states, terminals = arrays
    return {
        "states": states[idx],
        "actions": actions[idx],
        "rewards": rewards[idx],
        "next_states": next_states[idx],
        "terminals": terminals[idx].astype(np.float64),
    }


def _truncate_rows(path, step: int, interval: int, n_iter: int) -> tuple[list[dict], list[str]]:
    """Drop CSV rows the resumed run will rewrite.

    Rows past the checkpoint go, and so does an off-cadence final row at
    the checkpoint itself (an older run's n_iter row), so the resumed trace
    is exactly what one uninterrupted run would have produced. A final row
    at this run's own n_iter stays: a run already there steps no more.
    """
    if not os.path.exists(path):
        return [], []
    rows, columns = _read_csv(path)
    kept = [
        r
        for r in rows
        if r.get("step")
        and int(r["step"]) <= step
        and (int(r["step"]) % interval == 0 or int(r["step"]) == n_iter)
    ]
    return kept, columns


class _PhaseClock:
    """Wall seconds this process spent in each pipeline phase.

    A phase leaves out the time of any phase opened inside it, so the
    phases never count a second twice. The clock reads the clock and
    nothing else, so a timed run draws from no RNG stream and writes the
    same numbers as an untimed one.
    """

    PHASES = ("world_model", "bc", "fqe", "expand", "train_step", "eval", "checkpoint")

    def __init__(self):
        self.seconds = dict.fromkeys(self.PHASES, 0.0)
        self._inner = []  # per open phase, the seconds of the phases inside it

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        self._inner.append(0.0)
        try:
            yield
        finally:
            spent = time.perf_counter() - t0
            self.seconds[name] += spent - self._inner.pop()
            if self._inner:
                self._inner[-1] += spent


def run_training(cfg: RunConfig, out_dir: str, resume: bool = False) -> dict:
    """Pretraining plus the main loop; returns the final report dict.

    A run forks at most three helpers, one at a time, each a daemonic
    child for one phase, where `forked.can_fork()` allows: the fork start
    method exists, the process runs on x86 and may run on at least 2 CPUs
    and is not a daemonic worker, no other helper is alive, and no `nn`
    function has been wrapped. Every helper is called alike: this process
    writes a call's inputs into a shared mapping, rings with a few
    integers and polls for the end, and reads the outputs from the
    mapping, so no argument or result is pickled; the helper polls for its
    next call and holds a CPU while its phase lasts. World-model training,
    BC and FQE run in `_prepare_run`:
    a fresh run trains every member in one lockstep group, in a helper
    while this process runs BC, or without one here, before BC. FQE runs
    once that helper has been joined, and forks its own, which computes
    half of each FQE step and table fill through the run's `agent._Fqe`
    (`agent.pretrain_fqe`). The main loop,
    expansion, evaluation and checkpoints run in this process; a
    mobile_lcb run with beta > 0 and a step left forks a helper for the
    loop, which computes part of each step's elites
    (`agent.elite_helper`). Each helper is killed when its phase ends, and
    none outlives this call; FQE's and the loop's die before a divergence
    snapshot is written, the world model's just after BC's.

    The report's `timing_s` holds the wall seconds of each phase in this
    process (a resumed run counts only its own); its `world_model` phase
    is the wait for the helper's ensemble after BC, or its training here,
    plus the save. `ensemble_train_s` is the ensemble's own training time
    wherever it ran (0 once loaded): beside `timing_s.world_model` it
    shows whether training overlapped BC. `helper_busy_s` is the main
    loop's helper's own seconds in its calls and `helper_wait_s` the
    loop's wait for their results, both 0 without that helper, and
    `pretrain_helper_busy_s` and `pretrain_helper_wait_s` are the same for
    the FQE helper; all four are rounded to 1 us. `eval_env_steps` counts
    the true-environment steps the evaluations took. `blas_threads` is the
    OPENBLAS_NUM_THREADS this process saw, or "unset": a fixed-seed run's
    bits can depend on the BLAS thread count, so only files of a run that
    saw "1" can match the one-thread digests of the benchmark.
    `helpers_forked` names the helpers the run forked, in order, among
    "world_model", "fqe" and "main_loop": none unless OpenBLAS runs one
    thread (`forked.can_fork`).

    Raises DivergenceError when a BC, FQE or main-loop step's loss goes
    non-finite, once divergence.json names the stage ("bc", "fqe" or
    "train") and the step; the caller maps that to exit code 1.
    """
    heap.set_heap_policy()
    clock = _PhaseClock()
    t_start = time.monotonic()
    n_started = len(forked.started)
    env_spec, dataset = _load_inputs(cfg)
    arrays = dataset.flat_arrays()
    pretrain_helper = {"busy_s": 0.0, "wait_s": 0.0}
    ensemble, state = _prepare_run(cfg, env_spec, dataset, out_dir, resume, clock, pretrain_helper)
    ckpt_path = os.path.join(out_dir, _CHECKPOINT)

    term_fn = functools.partial(envs.terminated_batch, env_spec)
    config = state.config
    n_rows = arrays[0].shape[0]

    # resume replays the tail exactly, so rows past the checkpoint are
    # dropped; a fresh run ignores whatever an older run left behind
    if resume:
        metrics_rows, metrics_cols = _truncate_rows(
            os.path.join(out_dir, _TRAIN_CSV), state.step, cfg.log_interval, config.n_iter
        )
        eval_rows, eval_cols = _truncate_rows(
            os.path.join(out_dir, _EVAL_CSV), state.step, cfg.eval_interval, config.n_iter
        )
    else:
        metrics_rows, metrics_cols = [], []
        eval_rows, eval_cols = [], []

    eval_env_steps = 0

    def run_eval(step: int) -> dict:
        nonlocal eval_env_steps
        with clock.phase("eval"):
            scores = agent_mod.evaluate_policy(
                state.policy, env_spec, cfg.eval_episodes, cfg.seed
            )
        eval_env_steps += round(scores["mean_length"] * cfg.eval_episodes)
        return {"step": step, **scores}

    if not eval_rows:
        eval_rows = [run_eval(state.step)]
        eval_cols = list(eval_rows[0].keys())

    try:
        with _snapshot(out_dir, cfg, "train"), agent_mod.elite_helper(state, ensemble) as helper:
            while state.step < config.n_iter:
                i = state.step
                if (
                    config.use_expansion
                    and ensemble is not None
                    and i % config.t_expand == 0
                ):
                    with clock.phase("expand"):
                        agent_mod.expand_dataset(
                            state.buffer,
                            ensemble,
                            state.policy,
                            config,
                            arrays[0],
                            term_fn,
                            stream(cfg.seed, "train.expand", i // config.t_expand),
                        )
                rng = stream(cfg.seed, "train.step", i)
                idx = rng.integers(0, n_rows, size=min(config.batch_env, n_rows))
                batch = _env_batch(arrays, idx)
                starts = state.buffer.sample(config.batch_model, rng)
                logged = (i + 1) % cfg.log_interval == 0 or i + 1 == config.n_iter
                with clock.phase("train_step"):
                    metrics = agent_mod.train_step(state, ensemble, batch, starts, rng, logged, helper)
                if logged:
                    if not metrics_cols:
                        metrics_cols = list(metrics.keys())
                    metrics_rows.append(metrics)
                if state.step % cfg.eval_interval == 0 or state.step == config.n_iter:
                    eval_rows.append(run_eval(state.step))
                if state.step % cfg.checkpoint_interval == 0 or state.step == config.n_iter:
                    # CSVs go first: after a hard kill the checkpoint must never
                    # be ahead of the logs, or resume would leave a gap
                    with clock.phase("checkpoint"):
                        _write_csv(os.path.join(out_dir, _TRAIN_CSV), metrics_rows, metrics_cols)
                        _write_csv(os.path.join(out_dir, _EVAL_CSV), eval_rows, eval_cols)
                        agent_mod.save_agent(ckpt_path, state)
    except agent_mod.DivergenceError:
        _write_csv(os.path.join(out_dir, _TRAIN_CSV), metrics_rows, metrics_cols)
        _write_csv(os.path.join(out_dir, _EVAL_CSV), eval_rows, eval_cols)
        raise

    # the loop's last step wrote the CSVs and the checkpoint; the helper was
    # joined as its block ended, so its own peak counts below
    best = max(eval_rows, key=lambda r: (float(r["success_rate"]), float(r["mean_return"])))
    final = eval_rows[-1]
    peak_rss_mb = _peak_rss_mb()
    report = {
        "build_id": _build_id(),
        "env": cfg.env,
        "seed": cfg.seed,
        "steps": state.step,
        "pretrain": state.extra["pretrain"],
        "final_eval": {k: float(v) if k != "step" else int(v) for k, v in final.items()},
        "best_eval": {k: float(v) if k != "step" else int(v) for k, v in best.items()},
        "elapsed_s": round(time.monotonic() - t_start, 3),
        "timing_s": {phase: round(sec, 3) for phase, sec in clock.seconds.items()},
        "eval_env_steps": eval_env_steps,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "helpers_forked": forked.started[n_started:],
        "helper_busy_s": round(helper.busy_s, 6) if helper else 0.0,
        "helper_wait_s": round(helper.wait_s, 6) if helper else 0.0,
        "pretrain_helper_busy_s": round(pretrain_helper["busy_s"], 6),
        "pretrain_helper_wait_s": round(pretrain_helper["wait_s"], 6),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if ensemble is not None:
        report["ensemble_val_nll"] = [float(v) for v in ensemble.val_nll]
        report["elites"] = [int(v) for v in ensemble.elite_idx]
        report["ensemble_train_s"] = round(ensemble.train_s, 3)
    report["peak_rss_mb"] = peak_rss_mb
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report


def _resolve_out_dir(cfg: RunConfig, args) -> str:
    out_dir = args.out_dir or cfg.out_dir
    if not out_dir:
        raise ConfigError("no output directory: set out_dir in the config or pass --out-dir")
    return out_dir


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = _resolve_out_dir(cfg, args)
    report = run_training(cfg, out_dir, resume=args.resume)
    final = report["final_eval"]
    print(
        f"finished {report['steps']} steps: "
        f"success {final['success_rate']:.3f}, return {final['mean_return']:.4f}"
    )
    print(f"report: {os.path.join(out_dir, 'report.json')}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = _resolve_out_dir(cfg, args)
    env_spec, dataset = _load_inputs(cfg)
    ensemble, state = _prepare_run(cfg, env_spec, dataset, out_dir, False, _PhaseClock())
    if ensemble is not None:
        print(f"world model: val nll {[round(float(v), 4) for v in ensemble.val_nll]}")
    for key, value in state.extra["pretrain"].items():
        print(f"{key}: {value:.6f}")
    print(f"checkpoint: {os.path.join(out_dir, _CHECKPOINT)}")
    return 0


def cmd_eval(args) -> int:
    state = agent_mod.load_agent(args.checkpoint)
    scores = agent_mod.evaluate_policy(
        state.policy, state.env_spec, args.episodes, args.seed
    )
    payload = {"checkpoint": args.checkpoint, "step": state.step, **scores}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# ablation matrices


def cmd_ablate(args) -> int:
    matrix = load_matrix_config(args.config)
    out_dir = args.out_dir or matrix.out_dir
    if not out_dir:
        raise ConfigError("no output directory: set base.out_dir or pass --out-dir")
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for name, runs in matrix.cells.items():
        successes, returns, failures = [], [], []
        for cell_cfg in runs:
            seed = cell_cfg.seed
            cell_dir = os.path.join(out_dir, name, f"seed{seed}")
            try:
                report = run_training(cell_cfg, cell_dir)
            except (agent_mod.AgentError, world_model.WorldModelError, forked.HelperError) as err:
                failures.append(f"seed{seed}: {err}")
                continue
            successes.append(report["final_eval"]["success_rate"])
            returns.append(report["final_eval"]["mean_return"])
        agent_cfg = runs[0].agent
        row = {
            "cell": name,
            "conservatism": agent_cfg.conservatism,
            "critic_target": agent_cfg.critic_target,
            "policy_update": agent_cfg.policy_update,
            "tau": agent_cfg.tau,
            "n_seeds": len(runs),
            "n_completed": len(successes),
            "status": "failed" if failures else "ok",
            "mean_success": float(np.mean(successes)) if successes else "",
            "std_success": float(np.std(successes)) if successes else "",
            "mean_return": float(np.mean(returns)) if returns else "",
            "std_return": float(np.std(returns)) if returns else "",
            "notes": "; ".join(failures),
        }
        rows.append(row)
        shown = (
            f"success {row['mean_success']:.3f}+-{row['std_success']:.3f}"
            if successes
            else "no seed completed"
        )
        print(f"[{name}] {row['status']}: {shown}")

    columns = list(rows[0].keys())
    _write_csv(os.path.join(out_dir, "ablation.csv"), rows, columns)
    print(f"table: {os.path.join(out_dir, 'ablation.csv')}")
    return 0


# ---------------------------------------------------------------------------
# verify-theory


def _lemma_sweep(theory) -> dict:
    """Spot-check both contraction lemmas on analytic distributions."""
    dists = [
        ScalarDistribution.normal(0.0, 1.0),
        ScalarDistribution.normal(-3.0, 2.5),
        ScalarDistribution.uniform(0.0, 1.0),
        ScalarDistribution.uniform(-2.0, 7.0),
    ]
    taus = [0.01, 0.05, 0.1, 0.25, 0.5]
    checked = failed = 0
    for dist in dists:
        lo, hi = dist.bracket()
        for tau in taus:
            target = theory._target(dist, tau)
            for offset in (0.0, 0.1 * (hi - lo), hi - lo):
                checked += 1
                failed += not theory.lemma1_check(dist, tau, target + offset)
            for frac in (0.0, 0.5, 1.0):
                y_hat = target - frac * (target - lo)
                if theory.theorem1_condition(dist, tau, y_hat):
                    checked += 1
                    failed += not theory.lemma2_check(dist, tau, y_hat)
    return {"checked": checked, "failed": failed}


def cmd_verify_theory(args) -> int:
    from . import theory  # loaded here only: no other command needs it

    try:
        return _verify_theory(theory, args)
    except theory.TheoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _verify_theory(theory, args) -> int:
    t0 = time.monotonic()
    status = 0
    report: dict = {"build_id": _build_id(), "trials": args.trials, "seed": args.seed}

    try:
        report["monte_carlo"] = theory.monte_carlo_theorem_suite(args.trials, args.seed)
        print(
            f"monte carlo: {args.trials} trials, 0 violations "
            f"(max error increase {report['monte_carlo']['max_error_increase']:.3e})"
        )
    except theory.TheoryError as err:
        status = 1
        report["monte_carlo"] = {"error": str(err), "counterexamples": err.counterexamples}
        print(f"monte carlo FAILED: {err}", file=sys.stderr)
        for ex in err.counterexamples:
            print(json.dumps(ex), file=sys.stderr)

    lemmas = _lemma_sweep(theory)
    report["lemma_sweep"] = lemmas
    print(f"lemma sweep: {lemmas['checked']} checks, {lemmas['failed']} failures")
    if lemmas["failed"]:
        status = 1

    scans = {}
    for label, dist in (
        ("normal", ScalarDistribution.normal(0.0, 1.0)),
        ("uniform", ScalarDistribution.uniform(0.0, 1.0)),
    ):
        result = theory.exception_region_scan(theory.ScanConfig(distribution=dist))
        scans[label] = result
        report[f"scan_{label}"] = result.summary()
    n_norm = scans["normal"].exception_count
    n_unif = scans["uniform"].exception_count
    print(f"normal scan: {n_norm} exceptions over {scans['normal'].error_diff.size} cells")
    in_band = 30 <= n_unif <= 50
    print(
        f"uniform scan: {n_unif} exceptions over {scans['uniform'].error_diff.size} "
        f"cells ({'inside' if in_band else 'OUTSIDE'} the expected band [30, 50])"
    )
    if n_norm > 0:
        status = 1

    report["elapsed_s"] = round(time.monotonic() - t0, 3)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for label, result in scans.items():
            rows = list(result.rows())
            _write_csv(
                os.path.join(args.out_dir, f"scan_{label}.csv"),
                rows,
                list(rows[0].keys()),
            )
        _write_json(os.path.join(args.out_dir, "theory_report.json"), report)
        print(f"report: {os.path.join(args.out_dir, 'theory_report.json')}")
    return status


# ---------------------------------------------------------------------------
# parser and dispatch


def _int_at_least(low: int):
    """An argparse type: an integer of at least `low`, so that a value out
    of range is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leq-lab",
        description="Conservative model-based offline RL at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="roll scripted collectors into a dataset file")
    p.add_argument("--env", required=True)
    p.add_argument("--collector", required=True, choices=datasets.COLLECTORS)
    p.add_argument("--n", type=int, required=True, help="number of trajectories")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="world model (when the agent imagines) + BC + FQE only")
    p.add_argument("config")
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="full pipeline from a run config")
    p.add_argument("config")
    p.add_argument("--out-dir")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint in the true environment")
    p.add_argument("checkpoint")
    p.add_argument("--episodes", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run a {conservatism x target x update} matrix")
    p.add_argument("config")
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("verify-theory", help="surrogate-loss contraction checks")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_verify_theory)

    return parser


_USAGE_ERRORS = (
    ConfigError,
    datasets.DatasetError,
    envs.EnvError,
    InputValidationError,
    FileNotFoundError,
    container.ContainerError,
)


def main(argv=None) -> int:
    """Run one command and map its errors to exit codes.

    The command runs without NumPy's overflow and invalid-value warnings,
    and so does every helper it forks: a diverging run reports itself
    through its loss checks, its `error:` line and divergence.json.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (agent_mod.DivergenceError, world_model.WorldModelError, forked.HelperError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
