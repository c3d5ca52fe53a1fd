"""Every file leq_lab writes: round trips, damage detection and atomic writes."""

import os

import numpy as np
import pytest

from leq_lab import agent, cli, container, datasets, envs
from leq_lab import world_model as wm

from . import _oracles
from .test_world_model import tiny_ensemble


def _dataset():
    return datasets.collect_dataset(envs.make_env_spec("dense_chain"), "random", 3, seed=0)


def _agent():
    config = agent.AgentConfig(hidden_actor=(4,), hidden_critic=(4,), n_expand=5)
    state = agent.build_agent(config, envs.make_env_spec("point_maze_u"), seed=0)
    state.buffer.insert(np.ones((7, state.env_spec.obs_dim)))
    state.step = 7
    state.extra = {"pretrain": {"bc_mse": 0.5}}
    state.dataset_sha256 = "cd" * 32
    return state


# kind -> (object factory, save(path, obj), load(path), the loader's error class)
KINDS = {
    "dataset": (
        _dataset,
        lambda path, ds: datasets.save_dataset(ds, path),
        datasets.load_dataset,
        datasets.DatasetFormatError,
    ),
    "agent": (
        _agent,
        lambda path, state: agent.save_agent(path, state, seed=3, extra=state.extra),
        agent.load_agent,
        agent.AgentFormatError,
    ),
    "ensemble": (tiny_ensemble, wm.save_ensemble, wm.load_ensemble, wm.WorldModelFormatError),
}


def _saved(kind, tmp_path):
    make, save, _, _ = KINDS[kind]
    path = tmp_path / f"file.{kind}"
    save(path, make())
    return path


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_rewrites_the_same_bytes(kind, tmp_path):
    _, save, load, _ = KINDS[kind]
    path = _saved(kind, tmp_path)
    again = tmp_path / "again"
    save(str(again), load(str(path)))
    blob = path.read_bytes()
    assert again.read_bytes() == blob
    # and the bytes are the documented layout
    assert _oracles.container_bytes(*_oracles.container_parts(blob)) == blob


def _reseal(blob: bytes, header_change=None, body_change=None) -> bytes:
    magic, header, body = _oracles.container_parts(blob)
    header = {**header, **(header_change or {})}
    return _oracles.container_bytes(magic, header, body_change(body) if body_change else body)


def _flip_middle_byte(blob: bytes) -> bytes:
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    return bytes(flipped)


DAMAGE = {
    "bad magic": lambda blob: b"NOPE" + blob[4:],
    "checksum": _flip_middle_byte,
    "truncated": lambda blob: _reseal(blob, body_change=lambda body: body[:-8]),
    "trailing bytes": lambda blob: _reseal(blob, body_change=lambda body: body + bytes(8)),
    "unsupported version": lambda blob: _reseal(blob, {"version": 99}),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("kind", KINDS)
def test_damaged_file_is_rejected(kind, damage, tmp_path):
    _, _, load, error = KINDS[kind]
    path = _saved(kind, tmp_path)
    path.write_bytes(DAMAGE[damage](path.read_bytes()))
    with pytest.raises(error, match=damage) as caught:
        load(path)
    assert isinstance(caught.value, container.ContainerError)


def test_an_ensemble_file_records_the_run_seed_and_the_dataset_sha256(tmp_path):
    path = tmp_path / "file.leqm"
    wm.save_ensemble(path, tiny_ensemble(), seed=3, dataset_sha256="ab" * 32)
    header = _oracles.container_parts(path.read_bytes())[1]
    assert (header["version"], header["seed"], header["dataset_sha256"]) == (3, 3, "ab" * 32)
    loaded = wm.load_ensemble(path)
    assert (loaded.seed, loaded.dataset_sha256) == (3, "ab" * 32)


def _fail_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(container.os, "replace", refuse)


def _fail_mid_write(monkeypatch):
    real_open = open

    class DiskFills:
        def __init__(self, fh):
            self.fh, self.parts = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, part):
            self.parts += 1
            if self.parts > 1:  # the header lands; the body does not
                raise OSError(28, "No space left on device")
            return self.fh.write(part)

    monkeypatch.setattr(container, "open", lambda p, m: DiskFills(real_open(p, m)), raising=False)


@pytest.mark.parametrize("failure", [_fail_replace, _fail_mid_write])
@pytest.mark.parametrize("kind", KINDS)
def test_failed_write_keeps_the_old_file(kind, failure, tmp_path, monkeypatch):
    make, save, _, _ = KINDS[kind]
    path = _saved(kind, tmp_path)
    old = path.read_bytes()
    failure(monkeypatch)
    with pytest.raises(OSError):
        save(path, make())
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == [path.name]


def test_eval_of_a_corrupt_checkpoint_exits_2(tmp_path, capsys):
    path = _saved("agent", tmp_path)
    path.write_bytes(DAMAGE["checksum"](path.read_bytes()))
    assert cli.main(["eval", str(path), "--episodes", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "checksum" in err[0]


def test_eval_of_a_checkpoint_from_before_version_2_exits_2(tmp_path, capsys):
    # version 1 headers carried the agent config's since-removed `pretrain`
    path = _saved("agent", tmp_path)
    blob = path.read_bytes()
    config = _oracles.container_parts(blob)[1]["config"]
    path.write_bytes(_reseal(blob, {"version": 1, "config": {**config, "pretrain": True}}))
    assert cli.main(["eval", str(path), "--episodes", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "unsupported version 1" in err[0]
