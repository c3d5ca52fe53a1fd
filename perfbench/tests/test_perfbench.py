"""The benchmark's own tests, on seconds-long (`tiny`) versions of its workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

WORKLOADS = list(run.load_workloads())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Lazily made tiny results, keyed by (workload, seed, trace)."""
    root = tmp_path_factory.mktemp("perfbench")
    cache = {}

    def get(workload: str, seed: int = 0, trace: int = 0) -> dict:
        key = (workload, seed, trace)
        if key not in cache:
            work = root / f"seed{seed}-trace{trace}"
            cache[key] = run.run_workload(workload, seed, 1.0, trace, tiny=True, work_root=work)
            cache[key]["work"] = work / workload
        return cache[key]

    return get


def test_benchmark_json_matches_catalog():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_with_its_unit(tiny_runs, workload, trace):
    result = tiny_runs(workload, trace=trace)
    assert result["correct"], result["checks"]
    assert result["attempted"] == 2 + trace and result["failed"] == 0
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in wanted]
    for name, unit, _ in wanted:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        if not metrics.applies(workload, name):
            assert value == 0, name  # declared absent: the layer never runs here
        elif name not in ("trace.overhead_s", "final_return"):
            assert value > 0, name


def test_result_line_has_exactly_four_keys(tiny_runs):
    line = json.loads(run._result_line(tiny_runs("modelfree_chain")))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_timeline_divides_each_stretch_by_the_points_around_it():
    timeline = probe.Timeline()
    timeline.points = [(0.0, 1.0, 1.0), (3.0, 4.0, 2.0), (6.0, 7.0, 4.0)]
    assert timeline.normalized(1.0, 3.0) == pytest.approx(2.0 / 2**0.5)
    # the probe point inside is left out, and each side has its own points
    assert timeline.normalized(1.0, 6.0) == pytest.approx(2.0 / 2**0.5 + 2.0 / 8**0.5)
    assert timeline.normalized(7.0, 8.0) == pytest.approx(1.0 / 4.0)


def test_digest_repeats_within_a_seed_and_changes_with_it(tiny_runs):
    plain = tiny_runs("leq_maze", seed=0, trace=0)
    traced = tiny_runs("leq_maze", seed=0, trace=1)
    other = tiny_runs("leq_maze", seed=1, trace=0)
    same_seed = {*plain["digests"].values(), *traced["digests"].values()}
    assert len(same_seed) == 1 and None not in same_seed
    assert set(other["digests"].values()).isdisjoint(same_seed)


def test_output_check_rejects_a_flipped_checkpoint_byte(tiny_runs, tmp_path):
    from leq_lab import agent
    from leq_lab.config import load_run_config

    work = tiny_runs("leq_maze")["work"]
    cfg = load_run_config(work / "config.json")
    final_state = agent.load_agent(work / "rep0" / "checkpoint.leqa")
    copy = tmp_path / "run"
    shutil.copytree(work / "rep0", copy)
    assert checks.check_outputs(str(copy), cfg, final_state) == []

    path = copy / "checkpoint.leqa"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    failures = checks.check_outputs(str(copy), cfg, final_state)
    assert any("checkpoint.leqa does not load" in f for f in failures)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leq_maze", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
