"""Spans around leq_lab's layer functions, recorded from outside the package.

The benchmark never edits `src/`. In its own process it swaps module
attributes for thin wrappers that record a span (name, stage, parent,
start, end, rows) and puts every original object back afterwards. The
wrapper goes on the name the caller looks up at call time: `cli` reaches
`world_model.train_ensemble` and `agent_mod.*` through module attributes,
`agent` reaches `nn.*`, `world_model.*` and `returns.*` the same way, and
`datasets` binds `env_step` by `from .envs import env_step`, so
`datasets.env_step` is wrapped beside `envs.env_step`.

A span's stage is the innermost stage function around it (`train_step` ->
"main", `evaluate_policy` -> "eval", ...), and its self time is its
duration minus the durations of its direct children. Spans stay in memory
and are written out once, at the end.

With `layers=False` only the stage functions are wrapped: that is the
untraced run, whose stage wall times are the end-to-end metrics. Given a
`probe.Timeline`, that run also adds probe points around the stage calls
(at most one per 0.3 s), and `durations` are then normalized by them.
"""

from __future__ import annotations

import copy
import importlib
import os
import time
from collections import defaultdict

# span name -> stage it opens
STAGES = {
    "cli.run_training": "driver",
    "datasets.load_dataset": "setup",
    "datasets.collect_dataset": "gen_data",
    "datasets.save_dataset": "gen_data",
    "world_model.train_ensemble": "wm_train",
    "agent.pretrain_bc": "bc",
    "agent.pretrain_fqe": "fqe",
    "agent.expand_dataset": "expand",
    "agent.train_step": "main",
    "agent.evaluate_policy": "eval",
    "agent.save_agent": "checkpoint",
}

# (module, attribute, span name, positional index of the array whose
# leading dimension counts as the call's rows, or None)
_LAYERS = (
    ("agent", "critic_loss_total", "agent.critic_loss_total", None),
    ("agent", "critic_loss_env", "agent.critic_loss_env", None),
    ("agent", "critic_loss_ema", "agent.critic_loss_ema", None),
    ("agent", "policy_loss_surrogate", "agent.policy_loss_surrogate", None),
    ("agent", "awr_policy_loss", "agent.awr_policy_loss", None),
    ("world_model", "imagine_rollout", "world_model.imagine_rollout", 2),
    ("world_model", "step_with_tape", "world_model.step_with_tape", 1),
    ("world_model", "step_backward", "world_model.step_backward", 2),
    ("nn", "forward_cached", "nn.forward_cached", 2),
    ("nn", "backward_cached", "nn.backward_cached", 3),
    ("nn", "adam_step", "nn.adam_step", None),
    ("returns", "lambda_return_batch", "returns.lambda_return_batch", 0),
    ("returns", "policy_grad_coefficients", "returns.policy_grad_coefficients", 0),
    ("envs", "env_step", "envs.env_step", None),
    ("datasets", "env_step", "envs.env_step", None),
)

# span name -> stage whose calls are captured for kernel replay
_KERNEL_STAGE = {
    "nn.forward_cached": "main",
    "nn.backward_cached": "main",
    "nn.adam_step": "main",
    "world_model.step_with_tape": "main",
    "world_model.step_backward": "main",
    "returns.lambda_return_batch": "main",
    "returns.policy_grad_coefficients": "main",
    "envs.env_step": "eval",
}


def _targets(layers: bool):
    stage_funcs = [(*name.split("."), name, None) for name in STAGES]
    return stage_funcs + list(_LAYERS if layers else ())


def _rows(args, index) -> int:
    if index is None or len(args) <= index:
        return 0
    shape = getattr(args[index], "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def _snapshot(args):
    """Deep copy of call arguments; specs and the frozen ensemble are shared."""
    shared = {}
    for arg in args:
        if type(arg).__name__ in ("MlpSpec", "EnsembleWorldModel", "EnvSpec"):
            shared[id(arg)] = arg
    return copy.deepcopy(args, shared)


class Tracer:
    """Wraps leq_lab functions while installed; spans accumulate in memory.

    nets maps a label ("critic", "policy") to (spec, parameter count); when
    given, the largest main-stage call of each replayable kernel is copied
    for `replay_kernels`.
    """

    def __init__(self, layers: bool, nets: dict | None = None, timeline=None):
        self.layers = layers
        self.nets = nets or {}
        self.timeline = timeline
        self.spans: list[tuple] = []  # (name, stage, parent, t0_ns, t1_ns, rows, extra)
        self.captured: dict[str, tuple] = {}  # kernel key -> (rows, fn, args)
        self._originals: list[tuple] = []  # (module, attribute, original object)
        self._stack: list[int] = []
        self._stages: list[str] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, name, rows_at in _targets(self.layers):
            module = importlib.import_module(f"leq_lab.{mod_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, rows_at))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(getattr(m, a) is orig for m, a, orig in self._originals)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name, rows_at):
        spans, stack, stages = self.spans, self._stack, self._stages
        opens = STAGES.get(name)
        capture = bool(self.nets) and name in _KERNEL_STAGE
        timeline = self.timeline if opens else None
        force = name == "cli.run_training"

        def wrapper(*args, **kwargs):
            if timeline:
                timeline.probe(force)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if opens:
                stages.append(opens)
            stage = stages[-1] if stages else "none"
            rows = _rows(args, rows_at)
            if capture and stage == _KERNEL_STAGE[name]:
                self._capture(fn, name, args, rows)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if opens:
                    stages.pop()
                spans[idx] = (name, stage, parent, t0, t1, rows, None)
                if timeline:
                    timeline.probe(force)
            extra = _extra(name, args, result)
            if extra:
                spans[idx] = spans[idx][:-1] + (extra,)
            return result

        return wrapper

    def _capture(self, fn, name, args, rows) -> None:
        # networks are told apart by spec, or by parameter count for Adam
        key = name
        if name in ("nn.forward_cached", "nn.backward_cached"):
            label = next((k for k, (spec, _) in self.nets.items() if spec == args[0]), None)
            if label is None:
                return
            key = f"{name}.{label}"
        elif name == "nn.adam_step":
            label = next((k for k, (_, size) in self.nets.items() if size == args[1].size), None)
            if label != "critic":
                return
            key = f"{name}.{label}"
        if key in self.captured and self.captured[key][0] >= rows:
            return
        self.captured[key] = (rows, fn, _snapshot(args))

    # -- results -------------------------------------------------------

    def aggregate(self) -> dict:
        """(stage, name) -> {calls, rows, self_ns, ...extra counters}."""
        child_ns = [0] * len(self.spans)
        for name, stage, parent, t0, t1, rows, extra in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        agg: dict = defaultdict(lambda: defaultdict(int))
        for i, (name, stage, parent, t0, t1, rows, extra) in enumerate(self.spans):
            entry = agg[(stage, name)]
            entry["calls"] += 1
            entry["rows"] += rows
            entry["self_ns"] += (t1 - t0) - child_ns[i]
            for key, value in (extra or {}).items():
                entry[key] += value
        return agg

    def spans_of(self, name: str) -> list[tuple[float, float]]:
        """(start, end) in perf_counter seconds of every span with this name."""
        return [(s[3] / 1e9, s[4] / 1e9) for s in self.spans if s[0] == name]

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span with this name, in call order;
        normalized by the probe points when there is a timeline."""
        spans = self.spans_of(name)
        if self.timeline:
            return [self.timeline.normalized(t0, t1) for t0, t1 in spans]
        return [t1 - t0 for t0, t1 in spans]

    def write(self, path) -> None:
        base = min((s[3] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,stage,name,start_ns,end_ns,rows\n")
            for i, (name, stage, parent, t0, t1, rows, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{stage},{name},{t0 - base},{t1 - base},{rows}\n")


def _extra(name, args, result) -> dict | None:
    """Counters recorded at the boundary where the work happens."""
    if name == "world_model.imagine_rollout":
        return {
            "valid": int(result.t_eff.sum()),
            "attempted": int(result.rewards.size),
        }
    if name == "agent.save_agent":
        return {"bytes": os.path.getsize(args[0])}
    return None


def replay_kernels(captured: dict, min_batch_s: float = 0.02, batches: int = 7) -> dict:
    """Median microseconds per call of each captured kernel.

    Each kernel runs on its own copy of the captured arguments, so a kernel
    that mutates its inputs (Adam) touches nothing of the run.
    """
    out = {}
    for key, (_, fn, args) in sorted(captured.items()):
        args = _snapshot(args)
        fn(*args)
        n = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(n):
                fn(*args)
            if time.perf_counter() - t0 >= min_batch_s:
                break
            n *= 2
        per_call = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(*args)
            per_call.append((time.perf_counter() - t0) / n)
        per_call.sort()
        out[key] = per_call[len(per_call) // 2] * 1e6
    return out
