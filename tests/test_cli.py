"""The training pipeline's promises: exact resume, config checks, divergence snapshots,
the same files with or without glibc's mallopt or the phase timers, and ablation tables."""

import contextlib
import csv
import ctypes
import json
import math
import multiprocessing
import os
import re
import signal
import time

import numpy as np
import pytest

from leq_lab import agent, cli, datasets, envs, forked, heap, returns, world_model
from leq_lab.config import ConfigError, load_run_config, parse_run_config

from . import _oracles


def _run_config(tmp_path, env="point_maze_u", agent_overrides=None, **overrides) -> dict:
    dataset = tmp_path / f"{env}.leqd"
    if not dataset.exists():
        spec = envs.make_env_spec(env)
        datasets.save_dataset(datasets.collect_dataset(spec, "mixed", 4, seed=0), dataset)
    return {
        "seed": 0,
        "env": env,
        "dataset": str(dataset),
        "desk_scale": True,
        "agent": {
            "n_iter": 20,
            "bc_steps": 3,
            "fqe_steps": 3,
            "t_expand": 5,
            "n_expand": 50,
            "hidden_actor": [8, 8],
            "hidden_critic": [8, 8],
            "batch_env": 16,
            "batch_model": 8,
            "horizon": 3,
            **(agent_overrides or {}),
        },
        "world_model": {"train_steps": 3, "n_members": 3, "n_elites": 2, "hidden_dims": [8]},
        "eval_interval": 5,
        "eval_episodes": 1,
        "log_interval": 5,
        "checkpoint_interval": 5,
        **overrides,
    }


def _two_cpus(monkeypatch):
    """A run may start a helper here; a daemonic child still may not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _one_cpu(monkeypatch):
    """A run starts no helper: everything runs in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _forbidden(*args):
    raise AssertionError("trained or forked")


def _unpicklable(*args):
    raise AssertionError("pickled")


# the agent whose main-loop steps the run's helper shares
_LCB = {"conservatism": "mobile_lcb", "policy_update": "awr"}


@pytest.mark.parametrize("overrides", [{}, _LCB], ids=["lower_expectile", "mobile_lcb"])
def test_resumed_run_matches_an_uninterrupted_one(overrides, tmp_path, monkeypatch, forks):
    _two_cpus(monkeypatch)
    raw = _run_config(tmp_path, agent_overrides=overrides)
    whole = cli.run_training(parse_run_config(raw), str(tmp_path / "whole"))
    halves = tmp_path / "halves"
    short = {**raw, "agent": {**raw["agent"], "n_iter": 10}}
    cli.run_training(parse_run_config(short), str(halves))
    # each fresh run forks to train its ensemble, again for FQE, and a
    # mobile_lcb run a third time for its main loop; a resume loads the
    # saved ensemble and trains nothing
    monkeypatch.setattr(world_model, "train_ensemble", _forbidden)
    resumed = cli.run_training(parse_run_config(raw), str(halves), resume=True)
    assert forks == ([1] * 7 if overrides else [1] * 4)
    assert (resumed["helper_busy_s"] > 0.0) == bool(overrides)
    for name in ("metrics.csv", "eval.csv", "checkpoint.leqa"):
        assert (halves / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name
    assert resumed["pretrain"] == whole["pretrain"] and set(whole["pretrain"]) == {
        "bc_mse",
        "fqe_loss",
    }
    # an ensemble saved without its checkpoint is loaded too, and BC and FQE run here
    (tmp_path / "whole" / "checkpoint.leqa").unlink()
    again = cli.run_training(parse_run_config(raw), str(tmp_path / "whole"), resume=True)
    assert again["ensemble_train_s"] == 0.0 and again["pretrain"] == whole["pretrain"]


def test_resuming_a_finished_run_rewrites_nothing(tmp_path):
    # n_iter off the intervals' cadence: the last rows are at step 12
    cfg = parse_run_config(_run_config(tmp_path, agent_overrides={"n_iter": 12}))
    run = tmp_path / "run"
    whole = cli.run_training(cfg, str(run))
    names = ("metrics.csv", "eval.csv", "checkpoint.leqa")
    before = {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in names}
    resumed = cli.run_training(cfg, str(run), resume=True)
    assert {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in names} == before
    assert whole["final_eval"]["step"] == 12 and resumed["steps"] == 12
    assert resumed["final_eval"] == whole["final_eval"] and resumed["best_eval"] == whole["best_eval"]


@pytest.mark.parametrize(
    "first, then, lost",
    [
        (12, 12, ("metrics.csv", "eval.csv")),
        (10, 20, ("eval.csv",)),
        (10, 20, ("metrics.csv",)),
    ],
    ids=["finished-both", "mid-run-eval", "mid-run-metrics"],
)
def test_a_resume_past_step_0_without_its_csvs_exits_2_and_writes_nothing(
    first, then, lost, tmp_path, capsys
):
    raw = _run_config(tmp_path)
    config = tmp_path / "run.json"
    run = tmp_path / "run"
    config.write_text(json.dumps({**raw, "agent": {**raw["agent"], "n_iter": first}}))
    assert cli.main(["train", str(config), "--out-dir", str(run)]) == 0
    for name in lost:
        (run / name).unlink()
    kept = sorted(p.name for p in run.iterdir())
    assert "effective_config.json" in kept
    before = {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in kept}
    config.write_text(json.dumps({**raw, "agent": {**raw["agent"], "n_iter": then}}))
    assert cli.main(["train", str(config), "--out-dir", str(run), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot resume from step {first}: ") and lost[0] in err
    assert sorted(p.name for p in run.iterdir()) == kept
    assert {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in kept} == before


def test_a_pretrained_step_0_checkpoint_resumes_into_the_files_of_a_fresh_run(tmp_path):
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 10})
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    pre = tmp_path / "pre"
    assert cli.main(["pretrain", str(config), "--out-dir", str(pre)]) == 0
    assert not (pre / "eval.csv").exists() and not (pre / "metrics.csv").exists()
    cli.run_training(parse_run_config(raw), str(pre), resume=True)
    cli.run_training(parse_run_config(raw), str(tmp_path / "fresh"))
    for name in ("metrics.csv", "eval.csv", "checkpoint.leqa"):
        assert (pre / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_a_resume_with_another_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    raw = _run_config(tmp_path, env="dense_chain", agent_overrides={"n_iter": 5})
    config = tmp_path / "run.json"
    run = tmp_path / "run"
    config.write_text(json.dumps(raw))
    assert cli.main(["train", str(config), "--out-dir", str(run)]) == 0
    kept = sorted(p.name for p in run.iterdir())
    before = {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in kept}
    config.write_text(json.dumps({**raw, "seed": 7, "agent": {**raw["agent"], "n_iter": 10}}))
    assert cli.main(["train", str(config), "--out-dir", str(run), "--resume"]) == 2
    assert capsys.readouterr().err == "error: checkpoint was written by a run with seed 0, not 7\n"
    assert sorted(p.name for p in run.iterdir()) == kept
    assert {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in kept} == before


@pytest.mark.parametrize(
    "overrides", [{"beta": 0.0, "policy_update": "q_value"}, {}], ids=["model-free", "model"]
)
def test_a_resume_on_another_dataset_file_exits_2_and_writes_nothing(overrides, tmp_path, capsys):
    raw = _run_config(tmp_path, env="dense_chain", agent_overrides={"n_iter": 5, **overrides})
    config = tmp_path / "run.json"
    run = tmp_path / "run"
    config.write_text(json.dumps(raw))
    assert cli.main(["train", str(config), "--out-dir", str(run)]) == 0
    recorded = cli._sha256(raw["dataset"])
    assert agent.load_agent(run / "checkpoint.leqa").dataset_sha256 == recorded
    kept = sorted(p.name for p in run.iterdir())
    before = {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in kept}
    # the same path with other contents
    spec = envs.make_env_spec(raw["env"])
    datasets.save_dataset(datasets.collect_dataset(spec, "mixed", 4, seed=1), raw["dataset"])
    config.write_text(json.dumps({**raw, "agent": {**raw["agent"], "n_iter": 10}}))
    capsys.readouterr()
    assert cli.main(["train", str(config), "--out-dir", str(run), "--resume"]) == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint was trained on a dataset of sha256 {recorded},"
        f" not on {raw['dataset']} ({cli._sha256(raw['dataset'])})\n"
    )
    assert sorted(p.name for p in run.iterdir()) == kept
    assert {name: ((run / name).read_bytes(), (run / name).stat().st_mtime_ns) for name in kept} == before


def test_effective_config_reparses_to_the_run_config(tmp_path):
    raw = _run_config(tmp_path, out_dir=str(tmp_path / "out"))
    cfg = parse_run_config(raw)
    cli.run_training(cfg, cfg.out_dir)
    assert load_run_config(tmp_path / "out" / "effective_config.json") == cfg


def test_resume_rejects_an_ensemble_of_another_world_model_config(tmp_path):
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 5})
    cli.run_training(parse_run_config(raw), str(tmp_path / "run"))
    changed = {**raw, "world_model": {**raw["world_model"], "lr": 5e-4}}
    with pytest.raises(ConfigError, match="world-model config"):
        cli.run_training(parse_run_config(changed), str(tmp_path / "run"), resume=True)


def test_divergence_exits_1_and_snapshots_the_critic_loss(tmp_path, monkeypatch):
    def nan_fqe(dataset, policy, spec, params, *args, **kwargs):
        return np.full_like(params, np.nan), 0.0

    monkeypatch.setattr(agent, "pretrain_fqe", nan_fqe)
    raw = _run_config(
        tmp_path, env="dense_chain", agent_overrides={"beta": 0.0, "policy_update": "q_value"}
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    snapshot = json.loads((tmp_path / "run" / "divergence.json").read_text())
    assert snapshot["error"] == "critic loss diverged"
    assert {"loss_env", "loss_ema", "loss_critic"} <= set(snapshot["details"])
    assert np.isnan(snapshot["details"]["loss_critic"])


def test_actor_divergence_snapshot_carries_the_step(tmp_path, monkeypatch):
    coefficients = returns.policy_grad_coefficients

    def nan_rewards(*args, **kwargs):
        c_r, c_q = coefficients(*args, **kwargs)
        return np.full_like(c_r, np.nan), c_q

    monkeypatch.setattr(returns, "policy_grad_coefficients", nan_rewards)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(tmp_path)))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    snapshot = json.loads((tmp_path / "run" / "divergence.json").read_text())
    assert snapshot["error"] == "policy loss diverged"
    assert snapshot["details"]["step"] == snapshot["step"] == 0


class _RecordingMallopt:
    """A foreign mallopt that records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_heap_policy_sets_the_glibc_thresholds(monkeypatch):
    libc = type("Libc", (), {"mallopt": _RecordingMallopt()})()
    monkeypatch.setattr(ctypes, "CDLL", lambda name, *args, **kwargs: libc)
    heap.set_heap_policy()
    # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD -3 in glibc's malloc.h
    assert libc.mallopt.calls == [(-1, 64 << 20), (-3, 32 << 20)]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    # a direct caller of train_ensemble trains under the same thresholds
    libc.mallopt.calls.clear()
    dataset = datasets.collect_dataset(envs.make_env_spec("point_maze_u"), "mixed", 4, seed=0)
    config = world_model.WorldModelConfig(
        train_steps=2, n_members=2, n_elites=1, hidden_dims=(8,), batch_size=8
    )
    world_model.train_ensemble(dataset, config, seed=0)
    assert libc.mallopt.calls == [(-1, 64 << 20), (-3, 32 << 20)]


def _no_c_library(name, *args, **kwargs):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize(
    "cdll", [_no_c_library, lambda name, *args, **kwargs: object()], ids=["fails", "lacks-mallopt"]
)
def test_training_without_mallopt_writes_the_same_files(cdll, tmp_path, monkeypatch):
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 10})
    cli.run_training(parse_run_config(raw), str(tmp_path / "with"))
    loads = []

    def recording(name, *args, **kwargs):
        loads.append(name)
        return cdll(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", recording)
    cli.run_training(parse_run_config(raw), str(tmp_path / "without"))
    assert loads
    for name in ("metrics.csv", "eval.csv", "checkpoint.leqa", "world_model.leqm"):
        assert (tmp_path / "without" / name).read_bytes() == (tmp_path / "with" / name).read_bytes()


@pytest.mark.parametrize(
    "change",
    [
        {"eval_episodes": 10.0},
        {"agent": {"n_iter": 20.0}},
        {"agent": {"tau": 1.5}},
        {"agent": {"hiden_actor": [8]}},
        {"world_model": {"n_elites": 9}},
        {"agent": {"bc_steps": -2}},
        {"agent": {"fqe_steps": -1}},
        {"world_model": {"val_interval": 0}},
        {"world_model": {"train_steps": -1}},
        {"world_model": {"batch_size": 0}},
        {"world_model": {"max_val_rows": 0}},
        {"world_model": {"lr": 0.0}},
        {"world_model": {"activation": "nope"}},
        {"agent": {"awr_alpha": 0.0}},
        {"agent": {"awr_alpha": -1.0}},
        {"agent": {"lcb_c": -2.0}},
        {"agent": {"lcb_c": -1e-300}},
    ],
)
def test_bad_run_config_is_rejected(change, tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config({"seed": 0, "env": "dense_chain", "dataset": "d.leqd", **change})


def test_an_unknown_world_model_activation_exits_2_before_any_file(tmp_path, capsys):
    raw = _run_config(tmp_path, env="dense_chain")
    raw["world_model"]["activation"] = "nope"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli.main(["train", str(config), "--out-dir", str(out)]) == 2
    assert "world_model: activation must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_zero_lcb_c_and_a_tiny_awr_alpha_stay_valid():
    cfg = parse_run_config(
        {"seed": 0, "env": "dense_chain", "dataset": "d.leqd", "agent": {"lcb_c": 0.0, "awr_alpha": 1e-300}}
    )
    assert (cfg.agent.lcb_c, cfg.agent.awr_alpha) == (0.0, 1e-300)


def test_zero_pretraining_steps_stay_valid():
    cfg = parse_run_config(
        {"seed": 0, "env": "dense_chain", "dataset": "d.leqd", "agent": {"bc_steps": 0, "fqe_steps": 0}}
    )
    assert (cfg.agent.bc_steps, cfg.agent.fqe_steps) == (0, 0)


def test_fmt_writes_numpy_floats_as_plain_decimals():
    assert cli._fmt(np.float64(0.1)) == "0.1"
    assert cli._fmt(np.float64(-104.8)) == "-104.8"
    assert cli._fmt(0.1) == "0.1" and cli._fmt(7) == "7" and cli._fmt("ok") == "ok"


def test_phase_timers_change_no_output_byte(tmp_path, monkeypatch):
    # enough pretraining steps that each stage reads above the report's 1 ms rounding
    overrides = {"n_iter": 10, "bc_steps": 50, "fqe_steps": 50}
    raw = _run_config(tmp_path, agent_overrides=overrides, eval_episodes=3)
    report = cli.run_training(parse_run_config(raw), str(tmp_path / "timed"))
    monkeypatch.setattr(cli._PhaseClock, "phase", lambda self, name: contextlib.nullcontext())
    untimed = cli.run_training(parse_run_config(raw), str(tmp_path / "untimed"))
    for name in ("metrics.csv", "eval.csv", "checkpoint.leqa"):
        assert (tmp_path / "timed" / name).read_bytes() == (tmp_path / "untimed" / name).read_bytes()
    timing = report["timing_s"]
    assert set(timing) == set(cli._PhaseClock.PHASES)
    assert all(seconds >= 0.0 for seconds in timing.values())
    assert timing["train_step"] > 0.0 and timing["bc"] > 0.0 and timing["fqe"] > 0.0
    assert sum(timing.values()) <= report["elapsed_s"] + 0.01
    assert set(untimed["timing_s"].values()) == {0.0}
    with open(tmp_path / "timed" / "eval.csv", encoding="utf-8", newline="") as fh:
        lengths = [float(row["mean_length"]) for row in csv.DictReader(fh)]
    assert len(lengths) == 3
    assert report["eval_env_steps"] == untimed["eval_env_steps"] == round(sum(lengths) * 3)


@pytest.mark.parametrize("threads", ["3", None], ids=["set", "unset"])
def test_report_records_the_blas_thread_count_the_run_saw(threads, tmp_path, monkeypatch):
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    raw = _run_config(
        tmp_path, env="dense_chain", agent_overrides={"beta": 0.0, "policy_update": "q_value"}
    )
    report = cli.run_training(parse_run_config(raw), str(tmp_path / "run"))
    assert report["blas_threads"] == (threads or "unset")


def test_report_records_peak_rss_and_the_ensemble_training_time(tmp_path, monkeypatch, forks):
    _two_cpus(monkeypatch)
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 5, **_LCB})
    raw["world_model"]["train_steps"] = 30
    report = cli.run_training(parse_run_config(raw), str(tmp_path / "run"))
    assert report == json.loads((tmp_path / "run" / "report.json").read_text())
    # trained in one helper while BC ran here; FQE forked a second once it
    # had been joined, and a third served the main loop
    assert forks == [1] * 3 and report["ensemble_train_s"] > 0.0
    assert report["pretrain_helper_busy_s"] > 0.0
    assert report["helper_busy_s"] > 0.0 and report["helper_wait_s"] >= 0.0
    assert "ensemble_groups" not in report and "ensemble_beside_pretraining" not in report
    # the helpers are among the finished children
    assert set(report["peak_rss_mb"]) == {"self", "children"}
    assert report["peak_rss_mb"]["self"] > 0.0 and report["peak_rss_mb"]["children"] > 0.0
    resumed = cli.run_training(parse_run_config(raw), str(tmp_path / "run"), resume=True)
    # loaded, not trained, and no step left to run: no helper
    assert resumed["ensemble_train_s"] == 0.0 and forks == [1] * 3
    assert resumed["helper_busy_s"] == resumed["helper_wait_s"] == 0.0
    # without pretraining to overlap, the members train here, and only the
    # main loop forks
    unpretrained = {**raw, "agent": {**raw["agent"], "bc_steps": 0, "fqe_steps": 0}}
    report = cli.run_training(parse_run_config(unpretrained), str(tmp_path / "bare"))
    assert report["ensemble_train_s"] > 0.0 and report["helper_busy_s"] > 0.0 and forks == [1] * 4
    # one CPU: no helper
    with monkeypatch.context() as patch:
        _one_cpu(patch)
        report = cli.run_training(parse_run_config(raw), str(tmp_path / "alone"))
    assert report["helper_busy_s"] == report["helper_wait_s"] == 0.0 and forks == [1] * 4
    # a lower-expectile run's helpers train the ensemble and split FQE, and
    # each ends with its phase; no helper serves its main loop
    plain = {**raw, "agent": {**raw["agent"], "conservatism": "lower_expectile"}}
    step, children = agent.train_step, []

    def counting_children(*args):
        children.append(len(multiprocessing.active_children()))
        return step(*args)

    monkeypatch.setattr(agent, "train_step", counting_children)
    report = cli.run_training(parse_run_config(plain), str(tmp_path / "plain"))
    assert report["helper_busy_s"] == report["helper_wait_s"] == 0.0 and forks == [1] * 6
    assert children == [0] * 5


def test_the_main_loop_forks_its_own_helper_once_the_training_one_has_ended(tmp_path, monkeypatch):
    _two_cpus(monkeypatch)
    fork, forked_for = forked.Helper._fork, []

    def recording(self, fn):
        alive = multiprocessing.active_children()
        fork(self, fn)
        forked_for.append((fn, self._child.pid, alive))

    monkeypatch.setattr(forked.Helper, "_fork", recording)
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 5, **_LCB})
    cli.run_training(parse_run_config(raw), str(tmp_path / "run"))
    # the ensemble's helper, then FQE's once it has been joined, then the
    # loop's, each forked with no other child alive
    (train, train_pid, train_alive), (fqe, fqe_pid, fqe_alive), (loop, loop_pid, loop_alive) = forked_for
    assert train.func.__name__ == "_train_members" and isinstance(fqe, agent._RowSplit)
    assert isinstance(loop, agent._MappedElites)
    assert len({train_pid, fqe_pid, loop_pid}) == 3
    assert train_alive == fqe_alive == loop_alive == []


@pytest.mark.parametrize("overrides", [{}, _LCB], ids=["lower_expectile", "mobile_lcb"])
def test_a_run_with_a_helper_writes_the_files_of_one_without(
    overrides, tmp_path, monkeypatch, forks
):
    # the helpers find the ensemble and the data in their copy of this
    # process's memory: nothing pickles the ensemble
    monkeypatch.setattr(world_model.EnsembleWorldModel, "__reduce_ex__", _unpicklable)
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 10, **overrides})
    # 3 FQE steps build the tables from 2 blocks of 256 rows, so FQE
    # splits its steps once the ensemble's helper has been joined
    n_rows = datasets.load_dataset(raw["dataset"]).n_transitions
    assert agent._SPLIT_ROWS <= n_rows <= 2 * agent._SPLIT_ROWS
    with monkeypatch.context() as patch:
        _two_cpus(patch)
        helped = cli.run_training(parse_run_config(raw), str(tmp_path / "helped"))
    n_forks = 3 if overrides else 2
    assert forks == [1] * n_forks and (helped["helper_busy_s"] > 0.0) == bool(overrides)
    assert helped["pretrain_helper_busy_s"] > 0.0
    _one_cpu(monkeypatch)
    alone = cli.run_training(parse_run_config(raw), str(tmp_path / "alone"))
    assert forks == [1] * n_forks and alone["pretrain_helper_busy_s"] == 0.0
    for name in ("metrics.csv", "eval.csv", "checkpoint.leqa", "world_model.leqm"):
        assert (tmp_path / "helped" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    assert helped["pretrain"] == alone["pretrain"]
    for report in (helped, alone):
        assert sum(report["timing_s"].values()) <= report["elapsed_s"] + 0.01


def test_phase_clock_leaves_an_inner_phase_out_of_the_outer_one(monkeypatch):
    clock = cli._PhaseClock()
    with monkeypatch.context() as patch:
        patch.setattr(time, "perf_counter", iter([0.0, 2.0, 5.0, 10.0]).__next__)
        with clock.phase("world_model"):
            with clock.phase("bc"):
                pass
    assert clock.seconds["world_model"] == 7.0 and clock.seconds["bc"] == 3.0


def _exit_3(*args):
    os._exit(3)


def _raise(*args):
    raise FloatingPointError("planted")


_ELITE_PREDS = agent._elite_preds


def _elite_preds_exiting_there(*args):
    """`agent._elite_preds` here; in the helper, `_exit_3`."""
    return _ELITE_PREDS(*args) if multiprocessing.parent_process() is None else _exit_3()


def _elite_preds_raising_there(*args):
    """`agent._elite_preds` here; in the helper, `_raise`."""
    return _ELITE_PREDS(*args) if multiprocessing.parent_process() is None else _raise()


def _too_few_members(*args):
    raise world_model.WorldModelError("only 1 members trained to a finite validation NLL; need 2")


@pytest.mark.parametrize(
    "cpus, train, message",
    [
        (_two_cpus, _exit_3, "exited with code 3"),
        (_two_cpus, _raise, "FloatingPointError: planted"),
        (_one_cpu, _too_few_members, "only 1 members trained"),
    ],
    ids=["forked-exits", "forked-raises", "in-process"],
)
def test_a_failing_world_model_exits_1_and_leaves_nothing_running(
    cpus, train, message, tmp_path, monkeypatch, capsys
):
    cpus(monkeypatch)
    monkeypatch.setattr(world_model, "_train_members", train)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(tmp_path)))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "run" / "world_model.leqm").exists()
    assert not (tmp_path / "run" / "checkpoint.leqa").exists()


@pytest.mark.parametrize(
    "job, message",
    [
        (_elite_preds_exiting_there, "helper process exited with code 3"),
        (_elite_preds_raising_there, "FloatingPointError: planted"),
    ],
    ids=["exits", "raises"],
)
def test_a_failing_helper_in_the_main_loop_exits_1_and_leaves_nothing_running(
    job, message, tmp_path, monkeypatch, capsys, forks
):
    _two_cpus(monkeypatch)
    # the step's elites in the helper fail there
    monkeypatch.setattr(agent, "_elite_preds", job)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(tmp_path, agent_overrides=_LCB)))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    # the ensemble's helper, FQE's, then the loop's
    assert forks == [1] * 3 and multiprocessing.active_children() == []
    assert not (tmp_path / "run" / "metrics.csv").exists()
    assert not (tmp_path / "run" / "divergence.json").exists()


def test_a_main_loop_divergence_stops_the_helper_before_its_snapshot(
    tmp_path, monkeypatch, capsys, forks
):
    _two_cpus(monkeypatch)

    def nan_policy_loss(plan, *args):
        return float("nan"), np.zeros_like(plan.policy_params), {}

    monkeypatch.setattr(agent, "awr_policy_loss", nan_policy_loss)
    write, running = cli._write_divergence, []

    def spy(*args):
        running.append(multiprocessing.active_children())
        write(*args)

    monkeypatch.setattr(cli, "_write_divergence", spy)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(tmp_path, agent_overrides=_LCB)))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: policy loss diverged\n"
    assert forks == [1] * 3 and running == [[]]
    snapshot = json.loads((tmp_path / "run" / "divergence.json").read_text())
    assert (snapshot["error"], snapshot["stage"], snapshot["step"]) == ("policy loss diverged", "train", 0)


def test_a_run_that_imagines_nothing_forks_a_helper_for_fqe_only(tmp_path, monkeypatch, forks):
    _two_cpus(monkeypatch)
    raw = _run_config(
        tmp_path, env="dense_chain", agent_overrides={"beta": 0.0, "policy_update": "q_value"}
    )
    report = cli.run_training(parse_run_config(raw), str(tmp_path / "run"))
    assert forks == [1] and report["helper_busy_s"] == report["helper_wait_s"] == 0.0
    assert report["pretrain_helper_busy_s"] > 0.0 and report["pretrain_helper_wait_s"] > 0.0


def test_a_pretraining_helper_killed_mid_fqe_exits_1_and_leaves_no_child(
    tmp_path, monkeypatch, capsys, deadline, forks
):
    _two_cpus(monkeypatch)
    here, fqe_rows = os.getpid(), agent._fqe_rows

    def dying(*args):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return fqe_rows(*args)

    monkeypatch.setattr(agent, "_fqe_rows", dying)
    raw = _run_config(
        tmp_path, env="dense_chain", agent_overrides={"beta": 0.0, "policy_update": "q_value"}
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    deadline(30.0)
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: helper process exited with code -9\n"
    assert forks == [1] and multiprocessing.active_children() == []
    assert not (tmp_path / "run" / "checkpoint.leqa").exists()


def test_the_report_records_helper_seconds_to_the_microsecond(tmp_path, monkeypatch):
    _two_cpus(monkeypatch)
    elite_helper = agent.elite_helper

    @contextlib.contextmanager
    def brief(state, ensemble):
        with elite_helper(state, ensemble) as helper:
            yield helper
        helper.busy_s, helper.wait_s = 4.12e-4, 1.23e-4

    monkeypatch.setattr(agent, "elite_helper", brief)
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 2, **_LCB})
    report = cli.run_training(parse_run_config(raw), str(tmp_path / "run"))
    assert (report["helper_busy_s"], report["helper_wait_s"]) == (0.000412, 0.000123)


def test_a_corrupt_ensemble_file_still_exits_2(tmp_path, capsys):
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 5})
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli.main(["train", str(config), "--out-dir", str(out)]) == 0
    (out / "world_model.leqm").write_bytes(b"LEQE garbage")
    assert cli.main(["train", str(config), "--out-dir", str(out), "--resume"]) == 2
    assert capsys.readouterr().err.startswith("error: ensemble checkpoint")


def _older_ensemble(path):
    """Rewrite a .leqm as its version-2 form, without the seed and dataset keys."""
    magic, header, body = _oracles.container_parts(path.read_bytes())
    del header["seed"], header["dataset_sha256"]
    path.write_bytes(_oracles.container_bytes(magic, {**header, "version": 2}, body))


@pytest.mark.parametrize(
    "change, error",
    [
        ("seed", "world_model.leqm was trained by a run of seed 0 on .*, not of seed 1 on"),
        ("dataset", "world_model.leqm was trained by a run of seed 0 on .*, not of seed 0 on"),
        ("older file", "error: ensemble checkpoint .*unsupported version 2"),
    ],
)
def test_a_resume_refuses_an_ensemble_of_another_run_and_writes_nothing(
    change, error, tmp_path, capsys
):
    raw = _run_config(tmp_path, agent_overrides={"n_iter": 5})
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli.main(["train", str(config), "--out-dir", str(out)]) == 0
    # only the ensemble is left, so a resume would build a fresh agent on it
    (out / "checkpoint.leqa").unlink()
    if change == "seed":
        config.write_text(json.dumps({**raw, "seed": 1}))
    elif change == "dataset":
        # the same path with other contents
        spec = envs.make_env_spec(raw["env"])
        datasets.save_dataset(datasets.collect_dataset(spec, "mixed", 4, seed=1), raw["dataset"])
    else:
        _older_ensemble(out / "world_model.leqm")
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    capsys.readouterr()
    assert cli.main(["train", str(config), "--out-dir", str(out), "--resume"]) == 2
    assert re.search(error, capsys.readouterr().err)
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


@pytest.mark.parametrize("forked", [True, False], ids=["beside-pretraining", "sequential"])
def test_an_fqe_divergence_snapshots_its_stage_and_stops_the_world_model(
    forked, tmp_path, monkeypatch
):
    # beside the world model's helper, which sleeps, runs BC; FQE follows
    # the join, so a divergence there finds the helper gone already
    stage, error = ("bc", "BC loss diverged") if forked else ("fqe", "FQE loss diverged")

    def diverging(*args, **kwargs):
        raise agent.DivergenceError(error, {"step": 2})

    monkeypatch.setattr(agent, f"pretrain_{stage}", diverging)
    if forked:
        _two_cpus(monkeypatch)
        monkeypatch.setattr(world_model, "_train_members", lambda *args: time.sleep(60.0))
    else:
        _one_cpu(monkeypatch)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(tmp_path)))
    t0 = time.monotonic()
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    assert time.monotonic() - t0 < 10.0
    assert multiprocessing.active_children() == []
    snapshot = json.loads((tmp_path / "run" / "divergence.json").read_text())
    assert (snapshot["error"], snapshot["stage"], snapshot["step"]) == (error, stage, 2)
    assert snapshot["details"] == {"step": 2}
    assert not (tmp_path / "run" / "checkpoint.leqa").exists()


def test_an_fqe_divergence_after_the_join_stops_fqes_helper_before_its_snapshot(
    tmp_path, monkeypatch, capsys, forks
):
    _two_cpus(monkeypatch)
    split_rows, alive = agent._split_rows, []

    def diverging(helper, idx):
        alive.append(len(multiprocessing.active_children()))
        loss = split_rows(helper, idx)
        return loss * np.nan if len(alive) == 2 else loss

    monkeypatch.setattr(agent, "_split_rows", diverging)
    write, running = cli._write_divergence, []

    def spy(*args):
        running.append(multiprocessing.active_children())
        write(*args)

    monkeypatch.setattr(cli, "_write_divergence", spy)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(tmp_path)))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: FQE loss diverged\n"
    # the ensemble's helper, then FQE's, the only child while its steps ran
    assert forks == [1, 1] and alive == [1, 1] and running == [[]]
    snapshot = json.loads((tmp_path / "run" / "divergence.json").read_text())
    assert (snapshot["error"], snapshot["stage"], snapshot["step"]) == ("FQE loss diverged", "fqe", 1)
    assert (tmp_path / "run" / "world_model.leqm").exists()
    assert not (tmp_path / "run" / "checkpoint.leqa").exists()


def test_pretrain_writes_the_ensemble_and_a_pretrained_checkpoint(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_run_config(tmp_path)))
    out = tmp_path / "pre"
    assert cli.main(["pretrain", str(config), "--out-dir", str(out)]) == 0
    assert "world model: val nll" in capsys.readouterr().out
    world_model.load_ensemble(out / "world_model.leqm")
    state = agent.load_agent(out / "checkpoint.leqa")
    assert state.step == 0 and set(state.extra["pretrain"]) == {"bc_mse", "fqe_loss"}


def test_pretrain_of_a_model_free_agent_trains_no_world_model(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(world_model, "train_ensemble", _forbidden)
    raw = _run_config(
        tmp_path, env="dense_chain",
        agent_overrides={"beta": 0.0, "policy_update": "q_value", "bc_steps": 0},
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "pre"
    assert cli.main(["pretrain", str(config), "--out-dir", str(out)]) == 0
    assert "world model" not in capsys.readouterr().out
    assert not (out / "world_model.leqm").exists()
    # a stage with no steps does not run
    assert set(agent.load_agent(out / "checkpoint.leqa").extra["pretrain"]) == {"fqe_loss"}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "{out}/run/checkpoint.leqa", "--episodes", "0", "--out", "{out}/eval.json"],
        ["eval", "{out}/run/checkpoint.leqa", "--seed", "-1", "--out", "{out}/eval.json"],
        ["gen-data", "--env", "dense_chain", "--collector", "random", "--n", "2",
         "--seed", "-1", "--out", "{out}/d.leqd"],
        ["verify-theory", "--trials", "10", "--seed", "-1", "--out-dir", "{out}/theory"],
    ],
    ids=["eval-episodes-0", "eval-seed-negative", "gen-data-seed-negative", "verify-theory-seed-negative"],
)
def test_an_integer_flag_out_of_range_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(SystemExit) as caught:
        cli.main([arg.format(out=out) for arg in argv])
    captured = capsys.readouterr()
    assert caught.value.code == 2 and captured.out == ""
    assert "error: argument --" in captured.err and "must be at least" in captured.err
    assert list(out.iterdir()) == []


def test_gen_data_has_no_normalize_flag(tmp_path, capsys):
    # a run config's reward_normalization normalizes the rewards it reads
    argv = ["gen-data", "--env", "dense_chain", "--collector", "random", "--n", "2",
            "--seed", "0", "--out", str(tmp_path / "d.leqd"), "--normalize", "minmax_return"]
    with pytest.raises(SystemExit) as caught:
        cli.main(argv)
    assert caught.value.code == 2 and "--normalize" in capsys.readouterr().err
    assert not (tmp_path / "d.leqd").exists()


def test_ablate_summarizes_each_cell_over_its_seeds(tmp_path):
    base = _run_config(
        tmp_path, agent_overrides={"n_iter": 4}, eval_interval=4, log_interval=2,
        checkpoint_interval=4,
    )
    matrix = {"base": base, "cells": [{"name": "tau_low", "agent": {"tau": 0.1}}], "seeds": [0, 1]}
    config = tmp_path / "matrix.json"
    config.write_text(json.dumps(matrix))
    out = tmp_path / "ablate"
    assert cli.main(["ablate", str(config), "--out-dir", str(out)]) == 0
    with open(out / "ablation.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert (row["cell"], row["status"], row["tau"]) == ("tau_low", "ok", "0.1")
    assert row["n_seeds"] == row["n_completed"] == "2"
    for key in ("mean_success", "std_success", "mean_return", "std_return"):
        assert math.isfinite(float(row[key])), key
    for seed in (0, 1):
        report = json.loads((out / "tau_low" / f"seed{seed}" / "report.json").read_text())
        assert report["seed"] == seed and report["steps"] == 4


def test_ablate_records_a_failed_ensemble_and_runs_on(tmp_path, monkeypatch):
    base = _run_config(
        tmp_path, agent_overrides={"n_iter": 4}, eval_interval=4, log_interval=2,
        checkpoint_interval=4,
    )
    train_members = world_model._train_members

    def fails_for_seed_0(spec, data, config, seed):
        if seed == 0:
            raise world_model.WorldModelError("planted for seed 0")
        return train_members(spec, data, config, seed)

    monkeypatch.setattr(world_model, "_train_members", fails_for_seed_0)
    matrix = {"base": base, "cells": [{"name": "tau_low", "agent": {"tau": 0.1}}], "seeds": [0, 1]}
    config = tmp_path / "matrix.json"
    config.write_text(json.dumps(matrix))
    out = tmp_path / "ablate"
    assert cli.main(["ablate", str(config), "--out-dir", str(out)]) == 0
    with open(out / "ablation.csv", encoding="utf-8", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["status"], row["n_seeds"], row["n_completed"]) == ("diverged", "2", "1")
    assert "seed0:" in row["notes"] and "planted for seed 0" in row["notes"]
    assert math.isfinite(float(row["mean_return"]))
    assert not (out / "tau_low" / "seed0" / "report.json").exists()
    assert json.loads((out / "tau_low" / "seed1" / "report.json").read_text())["steps"] == 4


def test_the_lemma_sweep_solves_each_of_its_20_targets_once(monkeypatch):
    from leq_lab import expectile, theory

    solver, solves = expectile._expectiles, []

    def counting(*args):
        solves.append(1)
        return solver(*args)

    monkeypatch.setattr(expectile, "_expectiles", counting)
    theory._kept_target.cache_clear()
    swept = cli._lemma_sweep(theory)
    assert len(solves) == 20 and swept["failed"] == 0
    # with nothing kept, every check solves its target again, to the same counts
    monkeypatch.setattr(theory, "_kept_target", theory.expectile_of)
    solves.clear()
    assert cli._lemma_sweep(theory) == swept and len(solves) == 200


def test_verify_theory_maps_a_theory_error_to_exit_1(monkeypatch, capsys):
    from leq_lab import theory

    def broken(*args, **kwargs):
        raise theory.TheoryError("planted")

    monkeypatch.setattr(theory, "monte_carlo_theorem_suite", lambda *a: {"max_error_increase": 0.0})
    monkeypatch.setattr(theory, "lemma1_check", broken)
    assert cli.main(["verify-theory", "--trials", "1"]) == 1
    assert "error: planted" in capsys.readouterr().err
