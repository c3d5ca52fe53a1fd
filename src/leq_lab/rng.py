"""Deterministic named random streams.

Every stochastic component draws from its own generator, keyed by a root
seed plus a human-readable stream name (optionally an integer substream
index). Streams are independent PCG64 generators, stable across runs and
platforms, so reordering or parallelizing components never perturbs the
draws of another component.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def _name_key(name: str) -> int:
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, name: str, index: int | None = None) -> np.random.Generator:
    """Generator for the (seed, name[, index]) stream."""
    entropy = [int(seed), _name_key(name)]
    if index is not None:
        entropy.append(int(index))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

