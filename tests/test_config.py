"""Run and matrix configs: key names and JSON types from the config dataclasses,
value ranges from their `__post_init__`, and every ablation cell checked up front."""

import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import leq_lab
from leq_lab import cli, datasets, envs
from leq_lab.agent import CONSERVATISM_MODES, CRITIC_TARGET_MODES, POLICY_UPDATE_MODES, AgentConfig
from leq_lab.config import ConfigError, parse_matrix_config, parse_run_config
from leq_lab.world_model import WorldModelConfig

from . import _oracles

_BASE = {"seed": 0, "env": "dense_chain", "dataset": "d.leqd"}
_NONFINITE = (math.nan, math.inf, -math.inf)
_NONFINITE_LET_THROUGH = (
    ("agent", "lr_actor"),
    ("agent", "omega_ema"),
    ("agent", "lcb_c"),
    ("agent", "awr_alpha"),
    ("world_model", "lr"),
)

# values on both sides of the ranges the config dataclasses check since the
# schema era, by (section, key)
_RANGE_PROBES = {
    ("agent", "awr_alpha"): (0, -1e-300, -0.5, 1e-300),
    ("agent", "lcb_c"): (0, -0.0, -1e-300, -2.0),
    ("world_model", "activation"): ("tanh", "nope", "ELU"),
}


def _matrix(*cells, seeds=(0, 1)) -> dict:
    return {"base": dict(_BASE), "cells": list(cells), "seeds": list(seeds)}


# ---------------------------------------------------------------------------
# parity with the schema-era verdict


def _has_nonfinite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_has_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_nonfinite(v) for v in value)
    return False


def _mostly(valid, *misses):
    """`valid` about three draws in four, else one of `misses`."""
    return st.integers(0, 3).flatmap(lambda i: st.one_of(*misses) if i == 3 else valid)


_ints = _mostly(st.integers(1, 300), st.integers(-2, 0), st.just(10.0), st.booleans())
_floats = _mostly(
    st.floats(0.01, 0.99),
    st.sampled_from(_NONFINITE),
    st.one_of(st.floats(-0.5, 1.5), st.integers(-1, 2), st.booleans()),
)
_dims = _mostly(
    st.lists(st.integers(1, 16), max_size=3),
    st.lists(st.one_of(st.integers(-1, 0), st.just(8.0), st.booleans()), min_size=1, max_size=2),
    st.just("64"),
)
_ENUMS = {
    "conservatism": CONSERVATISM_MODES,
    "critic_target": CRITIC_TARGET_MODES,
    "policy_update": POLICY_UPDATE_MODES,
    "activation": ("elu", "relu"),
    "reward_normalization": datasets.NORMALIZATION_MODES,
}


def _value(name: str, default):
    """Mostly valid values for field `name`, with the misses the checker must catch."""
    if isinstance(default, bool):
        return _mostly(st.booleans(), st.integers(0, 1))
    if isinstance(default, int):
        return _ints
    if isinstance(default, float):
        return _floats
    if isinstance(default, tuple):
        return _dims
    return _mostly(st.sampled_from(_ENUMS.get(name, ("x",))), st.just("nope"), st.just(1), st.none())


def _section(cls):
    fields = {name: _value(name, default) for name, default in vars(cls()).items()}
    keys = st.lists(st.sampled_from(sorted(fields)), max_size=4, unique=True)
    sections = keys.flatmap(lambda ks: st.fixed_dictionaries({k: fields[k] for k in ks}))
    return _mostly(sections, sections.map(lambda d: {**d, "bogus": 1}), st.just([]))


_RUN_FIELDS = {
    "seed": _mostly(st.integers(0, 5), st.just(-1), st.just(1.0), st.booleans()),
    "env": _mostly(st.just("dense_chain"), st.just(3)),
    "dataset": _mostly(st.just("d.leqd"), st.none()),
    "out_dir": _mostly(st.just("out"), st.none()),
    "desk_scale": _mostly(st.booleans(), st.just(1)),
    "reward_normalization": _value("reward_normalization", ""),
    "agent": _section(AgentConfig),
    "world_model": _section(WorldModelConfig),
    "eval_interval": _ints,
    "eval_episodes": _ints,
    "log_interval": _ints,
    "checkpoint_interval": _ints,
}
_OPTIONAL = sorted(set(_RUN_FIELDS) - {"seed", "env", "dataset"})


@st.composite
def _run_configs(draw):
    required = [k for k in ("seed", "env", "dataset") if draw(st.integers(0, 19)) < 19]
    optional = draw(st.lists(st.sampled_from(_OPTIONAL), max_size=4, unique=True))
    raw = {k: draw(_RUN_FIELDS[k]) for k in required + optional}
    if draw(st.integers(0, 19)) == 19:
        raw["hiden_actor"] = [8]
    # a non-finite number where the schema era let one through
    section, key = draw(st.sampled_from(_NONFINITE_LET_THROUGH))
    if draw(st.integers(0, 3)) == 3 and isinstance(raw.get(section, {}), dict):
        raw[section] = {**raw.get(section, {}), key: draw(st.sampled_from(_NONFINITE))}
    # values on either side of the ranges the schema era did not check
    for (section, key), probes in _RANGE_PROBES.items():
        if draw(st.booleans()) and isinstance(raw.get(section, {}), dict):
            raw[section] = {**raw.get(section, {}), key: draw(st.sampled_from(probes))}
    return raw


@st.composite
def _matrix_configs(draw):
    cell = st.fixed_dictionaries(
        {"agent": _section(AgentConfig)},
        optional={"name": _mostly(st.sampled_from(["a", "cell1"]), st.just(7))},
    )
    base = draw(_run_configs())
    if draw(st.integers(0, 3)) == 3:
        # every run overrides the base seed, but the base must be valid as it stands
        base["seed"] = -1
    raw = {
        "base": base,
        "cells": draw(
            _mostly(
                st.lists(cell, min_size=1, max_size=3),
                st.just([]),
                st.just({}),
                st.lists(cell.map(lambda c: {**c, "extra": 1}), min_size=1, max_size=1),
            )
        ),
        "seeds": draw(
            _mostly(
                st.lists(st.integers(0, 5), min_size=1, max_size=3),
                st.just([]),
                st.just([-1]),
                st.just([1.0]),
                st.just(0),
            )
        ),
    }
    cells = raw["cells"]
    if isinstance(cells, list) and len(cells) > 1 and draw(st.integers(0, 3)) == 3:
        cells[-1] = {**cells[-1], "name": cells[0].get("name", "cell0")}
    for key in ("base", "cells", "seeds"):
        if draw(st.integers(0, 19)) == 19:
            del raw[key]
    return raw


def _expected_run_verdict(raw) -> bool:
    """The schema-era verdict with the frozen ranges, less the non-finite numbers it let through."""
    return _oracles.schema_accepts_run_config(raw) and not _has_nonfinite(raw)


def _new_verdict(parse, raw) -> bool:
    try:
        parse(raw)
    except ConfigError:
        return False
    return True


def _expected_matrix_verdict(raw) -> bool:
    """The schema-era verdict with the frozen ranges, less the cells, seeds and names it let through."""
    if not _oracles.schema_accepts_matrix_config(raw) or _has_nonfinite(raw):
        return False
    seeds = raw["seeds"]
    names = [cell.get("name", f"cell{i}") for i, cell in enumerate(raw["cells"])]
    if len(set(seeds)) != len(seeds) or len(set(names)) != len(names):
        return False
    base = {k: v for k, v in raw["base"].items() if k != "out_dir"}
    return all(
        _oracles.schema_accepts_run_config(
            {**base, "seed": seed, "agent": {**base.get("agent", {}), **cell["agent"]}}
        )
        for cell in raw["cells"]
        for seed in seeds
    )


_PARITY = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_PARITY
@given(_run_configs())
def test_run_config_verdict_matches_the_schema_era(raw):
    pytest.importorskip("jsonschema")
    assert _new_verdict(parse_run_config, raw) == _expected_run_verdict(raw)


@_PARITY
@given(_matrix_configs())
def test_matrix_config_verdict_matches_the_schema_era(raw):
    pytest.importorskip("jsonschema")
    assert _new_verdict(parse_matrix_config, raw) == _expected_matrix_verdict(raw)


# ---------------------------------------------------------------------------
# the fixes and their messages


@pytest.mark.parametrize("value", _NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", _NONFINITE_LET_THROUGH)
def test_non_finite_numbers_are_rejected(section, key, value):
    with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected a finite number"):
        parse_run_config({**_BASE, section: {key: value}})


@pytest.mark.parametrize(
    "raw, path",
    [
        ({**_BASE, "agent": {"n_iter": 10.0}}, "agent.n_iter"),
        ({**_BASE, "agent": {"use_expansion": 1}}, "agent.use_expansion"),
        ({**_BASE, "world_model": {"hidden_dims": [8, 0]}}, "world_model.hidden_dims"),
        ({**_BASE, "agent": {"hiden_actor": [8]}}, "agent.hiden_actor"),
        ({"seed": 0, "env": "dense_chain"}, "dataset"),
        ({**_BASE, "eval_episodes": True}, "eval_episodes"),
        # settings that repeated a choice other values make, since removed
        ({**_BASE, "stages": ["bc", "fqe"]}, "stages"),
        ({**_BASE, "agent": {"pretrain": False}}, "agent.pretrain"),
    ],
)
def test_a_rejection_names_its_key_path(raw, path):
    with pytest.raises(ConfigError, match=rf"^{path}: "):
        parse_run_config(raw)


def test_the_cli_prints_the_key_path_and_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**_BASE, "agent": {"n_iter": 10.0}}))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 2
    assert "agent.n_iter" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "change, path",
    [
        ({"stages": ["world_model"]}, "stages"),
        ({"agent": {"pretrain": True}}, "agent.pretrain"),
        ({"agent": {"conservatism": "none"}}, "agent: conservatism"),
    ],
)
def test_a_removed_setting_exits_2_naming_its_key_path(change, path, tmp_path, capsys):
    # each repeated a choice other values make: bc_steps/fqe_steps and
    # agent.needs_model, bc_steps = fqe_steps = 0, lower_expectile at tau 0.5
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**_BASE, **change}))
    assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "change, path",
    [
        ({"seed": -1}, "run config: seed"),
        ({"agent": {"conservatism": "none"}}, "agent: conservatism"),
        ({"reward_normalization": "zscore"}, "run config: reward_normalization"),
        ({"log_interval": 0}, "run config: eval, log and checkpoint intervals"),
        ({"agent": {"tau": 1.5}}, "agent: tau"),
    ],
)
def test_each_dataclass_checks_its_own_ranges(change, path):
    with pytest.raises(ConfigError, match=f"^{path}"):
        parse_run_config({**_BASE, **change})


@pytest.mark.parametrize(
    "matrix, path",
    [
        (_matrix({"agent": {}}, {"agent": {"tau": 1.5}}), "cells[1].agent: tau"),
        (_matrix({"agent": {}}, {"agent": {"beta": 2.0}}), "cells[1].agent: beta"),
        (_matrix({"agent": {}}, {"agent": {"policy_update": "nope"}}), "cells[1].agent: policy_update"),
        (_matrix({"agent": {"lcb_c": math.nan}}), "cells[0].agent.lcb_c"),
        (_matrix({"agent": {}}, seeds=(0, 0)), "seeds"),
        (_matrix({"name": "a", "agent": {}}, {"name": "a", "agent": {}}), "cells[1].name"),
        (_matrix({"agent": {}}, {"name": "cell0", "agent": {}}), "cells[1].name"),
    ],
)
def test_every_matrix_cell_is_checked_up_front(matrix, path, tmp_path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}"):
        parse_matrix_config(matrix)
    config = tmp_path / "matrix.json"
    config.write_text(json.dumps(matrix))
    out = tmp_path / "ablate"
    assert cli.main(["ablate", str(config), "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_matrix_cells_merge_agent_overrides_over_the_base():
    base = {**_BASE, "out_dir": "runs", "agent": {"tau": 0.2, "n_iter": 7}}
    matrix = parse_matrix_config(
        {"base": base, "cells": [{"name": "half", "agent": {"tau": 0.5}}, {"agent": {}}], "seeds": [3, 1]}
    )
    assert matrix.out_dir == "runs"
    assert list(matrix.cells) == ["half", "cell1"]
    half, plain = matrix.cells["half"], matrix.cells["cell1"]
    assert [c.seed for c in half] == [3, 1]
    assert [c.agent.tau for c in half + plain] == [0.5, 0.5, 0.2, 0.2]
    assert {c.agent.n_iter for c in half + plain} == {7}
    assert all(c.out_dir is None for c in half + plain)


# ---------------------------------------------------------------------------
# the dataset must come from the configured env


def _write_dataset(path, env: str) -> None:
    datasets.save_dataset(datasets.collect_dataset(envs.make_env_spec(env), "mixed", 2, seed=0), path)


@pytest.mark.parametrize("command", ["train", "pretrain"])
@pytest.mark.parametrize("recorded", ["dense_chain", "point_maze_large_spiral"])
def test_a_dataset_of_another_env_is_rejected_before_any_stage(command, recorded, tmp_path, capsys):
    dataset = tmp_path / "other.leqd"
    _write_dataset(dataset, recorded)
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "seed": 0,
                "env": "point_maze_u",
                "dataset": str(dataset),
                "agent": {"n_iter": 1, "bc_steps": 1, "fqe_steps": 1, "hidden_actor": [8], "hidden_critic": [8]},
                "world_model": {"train_steps": 1, "hidden_dims": [8]},
            }
        )
    )
    out = tmp_path / "run"
    assert cli.main([command, str(config), "--out-dir", str(out)]) == 2
    assert f"recorded in '{recorded}'" in capsys.readouterr().err
    assert not (out / "world_model.leqm").exists() and not (out / "checkpoint.leqa").exists()


# ---------------------------------------------------------------------------
# the import cost this design removes


def test_loading_a_run_config_imports_no_json_schema_library(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_BASE))
    script = (
        "import sys\n"
        "import leq_lab.cli\n"
        "from leq_lab.config import load_run_config\n"
        f"load_run_config({str(config)!r})\n"
        "roots = {name.split('.')[0] for name in sys.modules}\n"
        "print(sorted(roots & {'jsonschema', 'referencing', 'rpds', 'attrs', 'attr'}))\n"
    )
    src = os.path.dirname(os.path.dirname(leq_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60, env=env
    )
    assert out.stdout.strip() == "[]"
