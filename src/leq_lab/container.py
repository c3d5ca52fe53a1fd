"""The one on-disk layout of every file leq_lab writes, and the config decoder.

A file is, in order:

    magic        4 bytes naming the kind of file (LEQD, LEQA, LEQE)
    u32          little-endian length of the header
    header       UTF-8 JSON, ``json.dumps(header, sort_keys=True)``; it holds
                 "format" and "version" and a "layout" of [name, offset,
                 size] entries, in float64 elements, covering the body
    body         the named arrays as little-endian float64, back to back
    u32          little-endian CRC32 of everything before it

Writes go to ``<path>.tmp`` and are renamed over ``path``, so a reader never
sees a half-written file and a failed write leaves the old file intact.
Configs and specs travel in headers as ``dataclasses.asdict``; `from_dict`
is the one decoder back.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

__all__ = ["ContainerError", "write", "read", "from_dict"]


class ContainerError(ValueError):
    """Corrupt, truncated or incompatible file."""


def write(path, magic: bytes, header: dict, arrays: dict) -> None:
    """Write `header` plus the named arrays (flattened) atomically to `path`."""
    flat = [np.ravel(np.asarray(a, dtype="<f8")) for a in arrays.values()]
    layout, offset = [], 0
    for name, arr in zip(arrays, flat):
        layout.append([name, offset, arr.size])
        offset += arr.size
    blob = json.dumps({**header, "layout": layout}, sort_keys=True).encode("utf-8")
    head = magic + struct.pack("<I", len(blob)) + blob
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            crc = zlib.crc32(head)
            for arr in flat:
                fh.write(arr)
                crc = zlib.crc32(arr, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read(path, magic: bytes, fmt: str, version: int) -> tuple[dict, dict]:
    """(header, {name: writable float64 array}) of a file `write` made."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != magic:
        raise ContainerError(f"{path}: not a {fmt} file (bad magic)")
    if zlib.crc32(memoryview(blob)[:-4]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
        raise ContainerError(f"{path}: checksum failure")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    try:
        header = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
        layout = [(str(name), int(off), int(size)) for name, off, size in header["layout"]]
    except (ValueError, TypeError, KeyError) as err:
        raise ContainerError(f"{path}: unreadable header") from err
    if header.get("format") != fmt:
        raise ContainerError(f"{path}: format {header.get('format')!r}, expected {fmt!r}")
    if header.get("version") != version:
        raise ContainerError(f"{path}: unsupported version {header.get('version')}")
    end = 0
    for _, off, size in layout:
        if off != end or size < 0:
            raise ContainerError(f"{path}: layout is not contiguous")
        end += size
    body = len(blob) - 12 - hlen
    if 8 * end != body:
        raise ContainerError(f"{path}: {'truncated' if 8 * end > body else 'trailing bytes in'} body")
    flat = np.frombuffer(blob, dtype="<f8", count=end, offset=8 + hlen).astype(np.float64)
    return header, {name: flat[off : off + size] for name, off, size in layout}


def from_dict(cls, d: dict):
    """`cls` rebuilt from its ``dataclasses.asdict`` form; lists become tuples."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
