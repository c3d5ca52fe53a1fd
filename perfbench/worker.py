"""One benchmark process: generate the dataset, time set-up, or do one desk run.

run.py starts every mode as a fresh interpreter with BLAS pinned to one
thread and `src/` on the path, and reads the JSON object printed on the
last line of standard output:

  worker.py gen   --t0 T --env E --collector C --n N --seed S --out PATH
  worker.py setup --t0 T --config CFG --env E --collector C --n N --seed S --out PATH
  worker.py train --t0 T --config CFG --out DIR [--trace SPANS.csv --collector C --n N]

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time includes interpreter start and imports. A setup
process then also does what gen does, so that one process start gives a
sample of each. Every time a worker reports is divided by the host
slowdown that `probe` saw next to it, except in a traced desk run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import time
import traceback


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _generate(env: str, collector: str, n: int, seed: int, path: str) -> None:
    """What `leq-lab gen-data` does: collect, then save."""
    from leq_lab import datasets, envs

    dataset = datasets.collect_dataset(envs.make_env_spec(env), collector, n, seed)
    datasets.save_dataset(dataset, path)


def cmd_gen(args, timeline=None) -> dict:
    # import first, so that the time is collect + save only; set-up times imports
    from leq_lab import datasets  # noqa: F401

    import probe

    timeline = timeline or probe.Timeline()
    timeline.probe()
    t0 = time.perf_counter()
    _generate(args.env, args.collector, args.n, args.seed, args.out)
    t1 = time.perf_counter()
    timeline.probe(force=True)
    return {
        "gen_data_s": timeline.normalized(t0, t1),
        "gen_data_s_raw": t1 - t0,
        "sha256": _sha256(args.out),
        **_provenance(),
    }


def _setup(config_path: str):
    """Imports, run-config parse and dataset load: what a run waits for."""
    from leq_lab import cli, datasets  # noqa: F401  (cli holds run_training)
    from leq_lab.config import load_run_config

    cfg = load_run_config(config_path)
    datasets.load_dataset(cfg.dataset)
    return cfg


def cmd_setup(args) -> dict:
    _setup(args.config)
    setup_s = time.monotonic() - args.t0
    import probe

    # the process did not exist before set-up, so only a point after it
    timeline = probe.Timeline()
    timeline.probe()
    return {
        "setup_s": setup_s / timeline.points[0][2],
        "setup_s_raw": setup_s,
        **cmd_gen(args, timeline),
    }


def _nets(cfg) -> dict:
    """Label -> (spec, parameter count) of the agent's two networks."""
    from leq_lab import agent, envs, nn

    env = envs.make_env_spec(cfg.env)
    critic = agent.critic_spec_for(env.obs_dim, env.act_dim, cfg.agent.hidden_critic)
    policy = agent.policy_spec_for(env.obs_dim, env.act_dim, cfg.agent.hidden_actor)
    return {"critic": (critic, nn.n_params(critic)), "policy": (policy, nn.n_params(policy))}


def _eval_steps(run_dir: str, episodes: int) -> list[int]:
    """Environment steps of each evaluation, in call order, from eval.csv."""
    with open(os.path.join(run_dir, "eval.csv"), encoding="utf-8", newline="") as fh:
        return [round(float(row["mean_length"]) * episodes) for row in csv.DictReader(fh)]


def cmd_train(args) -> dict:
    cfg = _setup(args.config)
    from leq_lab import agent as agent_mod
    from leq_lab import cli

    import checks
    import metrics
    import probe
    from tracer import STAGES, Tracer, replay_kernels

    traced = args.trace is not None
    timeline = None if traced else probe.Timeline()
    tracer = Tracer(layers=traced, nets=_nets(cfg) if traced else None, timeline=timeline)
    built = []
    build_agent = agent_mod.build_agent

    def keep_state(*a, **kw):
        state = build_agent(*a, **kw)
        built.append(state)
        return state

    error = report = None
    regen = os.path.join(args.out, "dataset.again")
    agent_mod.build_agent = keep_state
    try:
        with tracer:
            report = cli.run_training(cfg, args.out)
            if traced:
                _generate(cfg.env, args.collector, args.n, cfg.seed, regen)
    except Exception:  # a failed run is counted, not fatal
        error = traceback.format_exc(limit=4)
    finally:
        agent_mod.build_agent = build_agent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stage_s = {stage: 0.0 for stage in STAGES.values()}
    for name, stage in STAGES.items():
        stage_s[stage] += sum(tracer.durations(name))
    result = {
        "error": error,
        "restored": tracer.restored() and agent_mod.build_agent is build_agent,
        "run_s": stage_s.pop("driver"),
        "run_s_raw": sum(
            t1 - t0 - (timeline.probed_s(t0, t1) if timeline else 0.0)
            for t0, t1 in tracer.spans_of("cli.run_training")
        ),
        "stage_s": stage_s,
        "step_ms": [d * 1e3 for d in tracer.durations("agent.train_step")],
        "peak_rss_mb": peak_rss_mb,
    }
    if error is None:
        result.update(
            failures=checks.check_outputs(args.out, cfg, built[-1]),
            digest=checks.digest(args.out),
            final_return=report["final_eval"]["mean_return"],
            eval_calls=list(
                zip(tracer.durations("agent.evaluate_policy"), _eval_steps(args.out, cfg.eval_episodes))
            ),
        )
    if traced:
        if error is None:
            result["regen_matches"] = _sha256(regen) == _sha256(cfg.dataset)
            os.remove(regen)
        tracer.write(args.trace)
        result["layers"] = metrics.layer_values(tracer.aggregate(), replay_kernels(tracer.captured))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("gen", "setup", "train"):
        p = sub.add_parser(mode)
        p.add_argument("--t0", type=float, required=True)
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--env")
        p.add_argument("--collector")
        p.add_argument("--n", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--trace")
    args = parser.parse_args()
    handler = {"gen": cmd_gen, "setup": cmd_setup, "train": cmd_train}[args.mode]
    print(json.dumps(handler(args)))


if __name__ == "__main__":
    main()
