"""Run configuration: a schema-validated JSON document for the pipeline.

A run config names the environment, dataset, seed and output directory and
carries partial overrides for the agent and world-model settings.  Unknown
keys are rejected everywhere so a typo cannot silently fall back to a
default.  ``desk_scale: true`` applies the laptop preset first; explicit
``agent`` overrides then win, which makes the emitted effective config
(every field resolved) re-parse to an equivalent run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass

import jsonschema

from .agent import AgentConfig
from .container import from_dict
from .datasets import NORMALIZATION_MODES
from .world_model import WorldModelConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "RUN_SCHEMA",
    "MATRIX_SCHEMA",
    "parse_run_config",
    "load_run_config",
    "load_matrix_config",
]

PRETRAIN_STAGES = ("world_model", "bc", "fqe")

_SCALAR_SCHEMAS = {
    float: {"type": "number"},
    int: {"type": "integer"},
    str: {"type": "string"},
    bool: {"type": "boolean"},
}


class ConfigError(ValueError):
    """A run or matrix config violates the schema or its invariants."""


# jsonschema counts 10.0 as an integer, but configs are decoded as written,
# so an integer field must hold a JSON integer
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


def _fields_schema(cls) -> dict:
    """Property schema derived from a config dataclass's field defaults."""
    props = {}
    for f in dataclasses.fields(cls):
        default = getattr(cls, f.name)
        if isinstance(default, tuple):
            props[f.name] = {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
            }
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
        "reward_normalization": {"enum": list(NORMALIZATION_MODES)},
        "agent": {
            "type": "object",
            "additionalProperties": False,
            "properties": _fields_schema(AgentConfig),
        },
        "world_model": {
            "type": "object",
            "additionalProperties": False,
            "properties": _fields_schema(WorldModelConfig),
        },
        "stages": {
            "type": "array",
            "items": {"enum": list(PRETRAIN_STAGES)},
            "uniqueItems": True,
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
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "cells": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["agent"],
                "properties": {
                    "name": {"type": "string"},
                    "agent": RUN_SCHEMA["properties"]["agent"],
                },
            },
        },
    },
}


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
    stages: tuple[str, ...] = PRETRAIN_STAGES
    eval_interval: int = 5000
    eval_episodes: int = 50
    log_interval: int = 100
    checkpoint_interval: int = 5000


def parse_run_config(raw: dict) -> RunConfig:
    """Validate a raw run config and resolve every field.

    ``dataclasses.asdict`` of the result, with a ``None`` out_dir dropped,
    is the effective config: it re-parses to an equal RunConfig.
    """
    try:
        _Validator(RUN_SCHEMA).validate(raw)
    except jsonschema.ValidationError as err:
        raise ConfigError(f"run config: {err.message}") from err
    agent = AgentConfig().desk_scale() if raw.get("desk_scale", False) else AgentConfig()
    try:
        return from_dict(
            RunConfig,
            {
                **raw,
                "agent": from_dict(AgentConfig, {**asdict(agent), **raw.get("agent", {})}),
                "world_model": from_dict(WorldModelConfig, raw.get("world_model", {})),
            },
        )
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: run config must be a JSON object")
    return parse_run_config(raw)


def load_matrix_config(path) -> dict:
    """Ablation matrix: validated raw dict (cells stay as override dicts)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read matrix config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    try:
        _Validator(MATRIX_SCHEMA).validate(raw)
    except jsonschema.ValidationError as err:
        raise ConfigError(f"matrix config: {err.message}") from err
    parse_run_config(raw["base"])  # surface base-config value errors early
    return raw
