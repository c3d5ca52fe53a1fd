#!/usr/bin/env python3
"""Desk-run benchmark for leq_lab: full `cli.run_training` runs, timed per stage.

One invocation generates the workload's dataset from the seed, then runs
cycles of (set up and regenerate the dataset, one desk run, set up and
regenerate again) in fresh processes until `--seconds` have passed, with
at least three desk runs. Each figure is the median of its samples, each
divided by the host slowdown that `probe` saw next to it. It checks every
desk run's outputs and prints one JSON line last. With `--trace 1` it instead makes
enough untraced desk runs for a step-time p95 and one traced desk run, and
reports per-layer metrics.

  python3 perfbench/run.py --workload leq_maze --seed 0 --seconds 40 --trace 0
  python3 perfbench/run.py --all --seed 0              # every workload, both modes
  python3 perfbench/run.py --workload lcb_spiral --repeat 10 --seed 0

See perfbench/README.md for the workloads, metrics and what each one predicts.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

RUN_BUDGET_S = 170.0  # one invocation must end within 180 s
MIN_REPS = 3
MAX_REPS = 12


class BenchError(RuntimeError):
    pass


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def _tiny(workload: dict) -> dict:
    """A seconds-long version of a workload, for the benchmark's own tests."""
    wl = copy.deepcopy(workload)
    wl["trajectories"] = 3
    run = wl["run"]
    run["agent"].update(n_iter=4, bc_steps=3, fqe_steps=3)
    if "t_expand" in run["agent"]:
        run["agent"].update(t_expand=2, n_expand=50)
    if "world_model" in run:
        run["world_model"]["train_steps"] = 3
    run.update(eval_interval=2, eval_episodes=1, log_interval=2, checkpoint_interval=2)
    return wl


class Runner:
    """Starts worker processes for one workload and stops them by a deadline."""

    def __init__(self, budget_s: float = RUN_BUDGET_S):
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ)
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def spawn(self, mode: str, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget spent before the {mode} worker")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--t0", repr(t0), *args]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} worker ran past the time budget") from err
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = "\n".join(proc.stderr.strip().splitlines()[-6:])
            raise BenchError(f"{mode} worker exited {proc.returncode}: {tail}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.monotonic() - t0
        return result


def _git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rep_failures(rep: dict) -> list[str]:
    if "error" not in rep:
        return [rep["spawn_error"]]
    if rep["error"]:
        return [rep["error"].strip().splitlines()[-1]]
    failures = list(rep["failures"])
    if not rep["restored"]:
        failures.append("a wrapped module attribute was not restored")
    return failures


def run_workload(
    name: str, seed: int, seconds: float, trace: int, tiny: bool = False, work_root: Path = WORK
) -> dict:
    workloads = load_workloads()
    if name not in workloads:
        raise BenchError(f"unknown workload {name!r}; expected one of {sorted(workloads)}")
    wl = _tiny(workloads[name]) if tiny else workloads[name]
    work = Path(work_root) / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner()

    dataset = work / "dataset.leqd"
    raw = {**copy.deepcopy(wl["run"]), "seed": seed, "env": wl["env"], "dataset": str(dataset)}
    config = work / "config.json"
    config.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    gen_args = ["--env", wl["env"], "--collector", wl["collector"], "--n", str(wl["trajectories"])]

    def generate(mode: str, path: Path, *extra: str) -> dict:
        return runner.spawn(mode, *extra, *gen_args, "--seed", str(seed), "--out", str(path))

    gen = [generate("gen", dataset)]
    reps: list[dict] = []

    def desk_run(label: str, *extra: str) -> dict:
        try:
            rep = runner.spawn("train", "--config", str(config), "--out", str(work / label), *extra)
        except BenchError as err:
            rep = {"spawn_error": str(err)}
        rep["label"] = label
        reps.append(rep)
        return rep

    checks = {}
    setup: list[dict] = []
    if trace:
        # enough untraced desk runs to leave at least ten steps beyond p95
        n_plain = 2 if tiny else -(-200 // wl["run"]["agent"]["n_iter"])
        plain = [desk_run(f"untraced{i}") for i in range(n_plain)]
        traced = desk_run("traced", "--trace", str(work / "spans.csv"), *gen_args)
        checks["regenerated_dataset_matches"] = traced.get("regen_matches", False)
        values = dict(traced.get("layers", {}))
        if not any(_rep_failures(r) for r in plain):
            # the traced run has no probe points, so it compares raw times
            run_s = min(r["run_s_raw"] for r in plain)
            steps_ms = [ms for r in plain for ms in r["step_ms"]]
            values.update(
                step_ms_p50=_percentile(steps_ms, 50),
                step_ms_p95=_percentile(steps_ms, 95),
                wm_train_s=min(r["stage_s"]["wm_train"] for r in plain),
                expand_s=min(r["stage_s"]["expand"] for r in plain),
                eval_s=min(r["stage_s"]["eval"] for r in plain),
                final_return=plain[0]["final_return"],
                **{"trace.overhead_s": traced.get("run_s", 0.0) - run_s},
            )
        wanted = metrics.PER_LAYER
    else:
        def set_up() -> None:
            sample = generate("setup", work / "dataset.again.leqd", "--config", str(config))
            setup.append(sample)
            gen.append(sample)

        # each cycle samples every figure once more, so the samples spread
        # over the whole invocation instead of one stretch of it
        start = time.monotonic()
        min_reps = 2 if tiny else MIN_REPS
        while len(reps) < min_reps or (
            not tiny
            and len(reps) < MAX_REPS
            and (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= seconds
        ):
            set_up()
            desk_run(f"rep{len(reps)}")
            set_up()
        checks["dataset_deterministic"] = len({g["sha256"] for g in gen}) == 1
        ok = [r for r in reps if not _rep_failures(r)]
        # every sample is already divided by the slowdown its probe points
        # saw; a median over the samples of the whole invocation keeps the
        # figure where most of them lie
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "gen_data_s": statistics.median(g["gen_data_s"] for g in gen),
        }
        if ok:
            values.update(
                bc_s=statistics.median(r["stage_s"]["bc"] for r in ok),
                fqe_s=statistics.median(r["stage_s"]["fqe"] for r in ok),
                train_steps_per_s=len(ok[0]["step_ms"])
                / statistics.median(r["stage_s"]["main"] for r in ok),
                eval_us_per_step=1e6
                * statistics.median(s / n for r in ok for s, n in r["eval_calls"]),
                run_s=statistics.median(r["run_s"] for r in ok),
                peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in ok),
            )
            checks["final_return_repeats"] = len({r["final_return"] for r in ok}) == 1
        wanted = metrics.END_TO_END

    digests = {r["label"]: r.get("digest") for r in reps}
    failed = 0
    for rep in reps:
        rep_failures = _rep_failures(rep)
        if rep.get("digest") != reps[0].get("digest"):
            rep_failures.append("digest differs from the first desk run at this seed")
        checks[f"{rep['label']}_failures"] = rep_failures
        failed += bool(rep_failures)
    correct = failed == 0 and all(v for k, v in checks.items() if not k.endswith("_failures"))

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "provenance": {
            "git": _git_describe(),
            "python": platform.python_version(),
            "numpy": gen[0]["numpy"],
            "blas": f"{gen[0]['blas']} {gen[0]['blas_version']}",
            "blas_threads": gen[0]["blas_threads"],
            "nproc": os.cpu_count(),
            "seed": seed,
            "overrides": wl["run"],
            "dataset": {k: wl[k] for k in ("env", "collector", "trajectories")},
        },
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "checks": checks,
        "digests": digests,
        "dataset_sha256": gen[0]["sha256"],
        "samples": {
            "setup_s": [s["setup_s"] for s in setup],
            "setup_s_raw": [s["setup_s_raw"] for s in setup],
            "gen_data_s": [g["gen_data_s"] for g in gen],
            "gen_data_s_raw": [g["gen_data_s_raw"] for g in gen],
            "desk_runs": [
                {
                    k: r[k]
                    for k in (
                        "label", "run_s", "run_s_raw", "stage_s", "eval_calls", "peak_rss_mb", "step_ms"
                    )
                    if k in r
                }
                for r in reps
            ],
        },
        "metrics": {
            key: {"value": values[key], "unit": unit, "better": better}
            for key, unit, better in wanted
            if key in values
        },
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def _report(result: dict) -> None:
    p = result["provenance"]
    print(
        f"== {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} desk runs, {result['failed']} failed, "
        f"correct={str(result['correct']).lower()}"
    )
    print(
        f"   git {p['git']} | python {p['python']} | numpy {p['numpy']} | {p['blas']} "
        f"OPENBLAS_NUM_THREADS={p['blas_threads']} | nproc {p['nproc']}"
    )
    print(f"   overrides {json.dumps(p['overrides'], sort_keys=True)}")
    for key, m in result["metrics"].items():
        na = "" if metrics.applies(result["workload"], key) else "  (not applicable: 0)"
        print(f"   {key:48s} {m['value']:>14.6g} {m['unit']}{na}")
    for key, value in result["checks"].items():
        if key.endswith("_failures"):
            state = "FAIL: " + "; ".join(value) if value else "ok"
        else:
            state = "ok" if value else "FAIL"
        print(f"   check {key}: {state}")
    for label, digest in result["digests"].items():
        print(f"   digest {label}: {digest}")


def _result_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()
            },
        }
    )


def _bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def repeat(name: str, first_seed: int, n: int, seconds: float, trace: int) -> int:
    """Runs n seeds and prints each metric's median and quartiles."""
    runs = []
    for seed in range(first_seed, first_seed + n):
        result = run_workload(name, seed, seconds, trace)
        print(f"seed {seed}: correct={result['correct']} " + _result_line(result), flush=True)
        runs.append(result)
    bounds = _bounds()
    summary = {}
    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for key in runs[0]["metrics"]:
        vals = [r["metrics"][key]["value"] for r in runs if key in r["metrics"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(key)
        summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
        bound_s = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{key:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound_s}{flag}")
    out = WORK / f"repeat-{name}-trace{trace}.json"
    out.write_text(json.dumps({"seeds": [first_seed, first_seed + n - 1], "metrics": summary}, indent=2) + "\n")
    print(f"summary: {out}")
    return 0 if all(r["correct"] for r in runs) else 1


def run_all(seed: int, seconds: float) -> int:
    ok = True
    for name in load_workloads():
        plain = run_workload(name, seed, seconds, trace=0)
        _report(plain)
        traced = run_workload(name, seed, seconds, trace=1)
        _report(traced)
        digests = {*plain["digests"].values(), *traced["digests"].values()}
        same = len(digests) == 1 and None not in digests
        print(f"   digests at seed {seed}, untraced and traced: {'identical' if same else 'DIFFER'}")
        ok &= plain["correct"] and traced["correct"] and same
    print(f"all workloads: {'every check passed' if ok else 'SOME CHECK FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Desk-run benchmark for leq_lab.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--repeat", type=int, help="run this many seeds and print quartiles")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leq_lab" / "__init__.py").is_file():
        print(f"error: no leq_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            parser.error("--workload or --all is required")
        if args.repeat:
            return repeat(args.workload, args.seed, args.repeat, args.seconds, args.trace)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _report(result)
    print(_result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
