"""Run configuration: a JSON document resolved into frozen dataclasses.

A run config names the environment, dataset, seed and output directory and
carries partial overrides for the agent and world-model settings.  The
parser checks key names and JSON types against the fields of `RunConfig`,
`AgentConfig` and `WorldModelConfig`: unknown keys are rejected everywhere
so a typo cannot silently fall back to a default, and an integer field
takes only a JSON integer.  Each dataclass's ``__post_init__`` then checks
its own value ranges.  A rejection is a `ConfigError` naming the key path
(``agent.n_iter``).  ``desk_scale: true`` applies the laptop preset first;
explicit ``agent`` overrides then win, which makes the emitted effective
config (every field resolved) re-parse to an equivalent run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass

from .agent import AgentConfig
from .container import from_dict
from .datasets import NORMALIZATION_MODES
from .world_model import WorldModelConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "AblationMatrix",
    "parse_run_config",
    "load_run_config",
    "parse_matrix_config",
    "load_matrix_config",
]

class ConfigError(ValueError):
    """A run or matrix config has a wrong key, type or value."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings; build with `parse_run_config`."""

    seed: int
    env: str
    dataset: str
    agent: AgentConfig
    world_model: WorldModelConfig
    out_dir: str | None = None
    desk_scale: bool = False
    reward_normalization: str = "none"
    eval_interval: int = 5000
    eval_episodes: int = 50
    log_interval: int = 100
    checkpoint_interval: int = 5000

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if min(self.eval_interval, self.eval_episodes, self.log_interval, self.checkpoint_interval) < 1:
            raise ValueError("eval, log and checkpoint intervals and eval_episodes must be positive")
        if self.reward_normalization not in NORMALIZATION_MODES:
            raise ValueError(f"reward_normalization must be one of {NORMALIZATION_MODES}")


@dataclass(frozen=True)
class AblationMatrix:
    """Each named cell's run configs, one per seed, in matrix order."""

    cells: dict[str, tuple[RunConfig, ...]]
    out_dir: str | None = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# field annotation (a string: this module and the config dataclasses' modules
# postpone annotations) -> (what a JSON value must be, test)
_JSON_TYPES = {
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "float": ("a finite number", lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, ...]": (
        "a list of integers >= 1",
        lambda v: isinstance(v, list) and all(_is_int(x) and x >= 1 for x in v),
    ),
}
_SECTIONS = {"AgentConfig": AgentConfig, "WorldModelConfig": WorldModelConfig}
_REQUIRED = ("seed", "env", "dataset")
_MATRIX_KEYS = ("base", "cells", "seeds")


def _check_keys(raw, allowed, required, prefix: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'}: expected an object, got {raw!r}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{prefix}{key}: required key is missing")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}: unknown key")


def _check_fields(raw, cls, prefix: str, required=()) -> None:
    """Key names and JSON types of `raw` against the fields of dataclass `cls`."""
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    _check_keys(raw, annotations, required, prefix)
    for key, value in raw.items():
        if annotations[key] in _SECTIONS:
            _check_fields(value, _SECTIONS[annotations[key]], f"{prefix}{key}.")
            continue
        expected, ok = _JSON_TYPES[annotations[key]]
        if not ok(value):
            raise ConfigError(f"{prefix}{key}: expected {expected}, got {value!r}")


def _build(cls, values: dict, where: str):
    try:
        return from_dict(cls, values)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _parse(raw, prefix: str = "") -> RunConfig:
    _check_fields(raw, RunConfig, prefix, _REQUIRED)
    preset = AgentConfig().desk_scale() if raw.get("desk_scale", False) else AgentConfig()
    agent = _build(AgentConfig, {**asdict(preset), **raw.get("agent", {})}, f"{prefix}agent")
    world = _build(WorldModelConfig, raw.get("world_model", {}), f"{prefix}world_model")
    return _build(RunConfig, {**raw, "agent": agent, "world_model": world}, prefix[:-1] or "run config")


def parse_run_config(raw: dict) -> RunConfig:
    """Check a raw run config and resolve every field.

    ``dataclasses.asdict`` of the result, with a ``None`` out_dir dropped,
    is the effective config: it re-parses to an equal RunConfig.
    """
    return _parse(raw)


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err


def load_run_config(path) -> RunConfig:
    return parse_run_config(_read_json(path, "config"))


def parse_matrix_config(raw) -> AblationMatrix:
    """Check an ablation matrix and resolve the run config of every (cell, seed).

    Each cell's ``agent`` overrides go over the base config's; the base
    ``out_dir`` becomes the matrix's and no run's.  Seeds and cell names
    (``cell<i>`` when unnamed) must not repeat, since each run writes to
    ``<out_dir>/<name>/seed<seed>``.
    """
    _check_keys(raw, _MATRIX_KEYS, _MATRIX_KEYS, "")
    base, cells, seeds = raw["base"], raw["cells"], raw["seeds"]
    _parse(base, "base.")
    if not (isinstance(seeds, list) and seeds and all(_is_int(s) and s >= 0 for s in seeds)):
        raise ConfigError(f"seeds: expected a non-empty list of integers >= 0, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds: a seed repeats in {seeds}")
    if not (isinstance(cells, list) and cells):
        raise ConfigError(f"cells: expected a non-empty list, got {cells!r}")
    shared = {k: v for k, v in base.items() if k != "out_dir"}
    runs = {}
    for i, cell in enumerate(cells):
        prefix = f"cells[{i}]."
        _check_keys(cell, ("name", "agent"), ("agent",), prefix)
        name = cell.get("name", f"cell{i}")
        if not isinstance(name, str):
            raise ConfigError(f"{prefix}name: expected a string, got {name!r}")
        if name in runs:
            raise ConfigError(f"{prefix}name: cell name {name!r} repeats")
        _check_fields(cell["agent"], AgentConfig, f"{prefix}agent.")
        merged = {**shared, "agent": {**shared.get("agent", {}), **cell["agent"]}}
        runs[name] = tuple(_parse({**merged, "seed": seed}, prefix) for seed in seeds)
    return AblationMatrix(cells=runs, out_dir=base.get("out_dir"))


def load_matrix_config(path) -> AblationMatrix:
    return parse_matrix_config(_read_json(path, "matrix config"))
