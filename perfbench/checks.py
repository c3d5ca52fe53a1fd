"""Output checks for one desk run, and the digest that pins what it learned.

A run passes when its CSVs are finite and hold exactly the step rows the
run config implies, and its checkpoint reloads through `agent.load_agent`
(which verifies the CRC) with policy and critic parameters equal to the
final in-memory state. The digest is a sha256 over metrics.csv, eval.csv
and checkpoint.leqa; a fixed seed must reproduce it byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import struct

OUTPUTS = ("metrics.csv", "eval.csv", "checkpoint.leqa")


def expected_steps(n_iter: int, interval: int, with_start: bool) -> list[int]:
    steps = set(range(interval, n_iter + 1, interval)) | {n_iter}
    if with_start:
        steps.add(0)
    return sorted(steps)


def _csv_failures(path: str, want_steps: list[int]) -> list[str]:
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        return [f"{name}: {err}"]
    failures = []
    try:
        steps = [int(row["step"]) for row in rows]
    except (KeyError, ValueError):
        return [f"{name}: a row has no integer step"]
    if steps != want_steps:
        failures.append(f"{name}: steps {steps} differ from the expected {want_steps}")
    for row in rows:
        for column, cell in row.items():
            try:
                finite = math.isfinite(float(cell))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                failures.append(f"{name}: step {row['step']} {column}={cell!r} is not finite")
    return failures


def check_outputs(run_dir: str, cfg, final_state) -> list[str]:
    """Failures of one finished run; empty when every check passes."""
    from leq_lab import agent as agent_mod

    n_iter = cfg.agent.n_iter
    failures = _csv_failures(
        os.path.join(run_dir, "metrics.csv"), expected_steps(n_iter, cfg.log_interval, False)
    )
    failures += _csv_failures(
        os.path.join(run_dir, "eval.csv"), expected_steps(n_iter, cfg.eval_interval, True)
    )
    try:
        loaded = agent_mod.load_agent(os.path.join(run_dir, "checkpoint.leqa"))
    except (agent_mod.AgentError, OSError, ValueError, KeyError, struct.error) as err:
        return failures + [f"checkpoint.leqa does not load: {err}"]
    if loaded.step != n_iter:
        failures.append(f"checkpoint.leqa is at step {loaded.step}, not {n_iter}")
    for field in ("policy_params", "critic_params"):
        saved, live = getattr(loaded, field), getattr(final_state, field)
        if saved.shape != live.shape or not (saved == live).all():
            failures.append(f"checkpoint.leqa {field} differ from the final in-memory state")
    return failures


def digest(run_dir: str) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update(name.encode("utf-8"))
        with open(os.path.join(run_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
