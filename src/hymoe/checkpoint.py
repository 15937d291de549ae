"""Checkpoint container: JSON header + manifest + raw little-endian f64 payload.

Layout on disk::

    bytes 0..7    magic b"HYMOECK1"
    bytes 8..15   header length (uint64, little-endian)
    header        UTF-8 JSON: kind, config blocks, meta, manifest
    payload       concatenated tensor data, float64 little-endian

Manifest entries carry {name, shape, offset, trainable}; offsets are relative
to the start of the payload. Dense and hybrid checkpoints share the format,
hybrid ones simply carry the extra parameter names and config blocks.
``load`` refuses, naming the file, a header length field that is cut short
or points past the end of the file, a header that is not UTF-8 JSON, and a
payload whose length is not where the manifest ends. ``save`` renames a
temporary file over the target, so a failed write never leaves a torn file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np

from .dense import DenseCheckpoint, DenseConfig
from .hybrid import HybridCheckpoint
from .segment_moe import SegmentMoEConfig
from .tensor import Parameter
from .token_moe import TokenMoEConfig

MAGIC = b"HYMOECK1"


def _manifest(params: dict[str, Parameter]) -> tuple[list[dict], bytes]:
    entries = []
    chunks = []
    offset = 0
    for name in sorted(params):
        p = params[name]
        raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(p.data.shape),
                "offset": offset,
                "trainable": p.trainable,
            }
        )
        chunks.append(raw)
        offset += len(raw)
    return entries, b"".join(chunks)


def _write(path: str | Path, header: dict, payload: bytes) -> None:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(path: str | Path) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        size_field = fh.read(8)
        if len(size_field) != 8:
            raise ValueError(f"{path}: file ends inside the 8-byte header length field")
        (header_len,) = struct.unpack("<Q", size_field)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if header_len > left:
            raise ValueError(f"{path}: header length {header_len} exceeds the {left} bytes left")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise ValueError(f"{path}: header is not UTF-8 JSON: {exc}") from None
        payload = fh.read()
    return header, payload


def _count(entry: dict) -> int:
    return int(np.prod(entry["shape"])) if entry["shape"] else 1


def _load_params(path: str | Path, header: dict, payload: bytes) -> dict[str, Parameter]:
    manifest = header["manifest"]
    end = manifest[-1]["offset"] + 8 * _count(manifest[-1]) if manifest else 0
    if len(payload) != end:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes but the manifest ends at byte {end}"
        )
    params: dict[str, Parameter] = {}
    for entry in manifest:
        shape = tuple(entry["shape"])
        count = _count(entry)
        start = entry["offset"]
        data = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        params[entry["name"]] = Parameter(
            entry["name"], data.reshape(shape).astype(np.float64), trainable=entry["trainable"]
        )
    return params


def load(path: str | Path):
    """Load either checkpoint kind; returns DenseCheckpoint or HybridCheckpoint."""
    header, payload = _read(path)
    params = _load_params(path, header, payload)
    config = DenseConfig(**header["config"])
    if header["kind"] == "dense":
        return DenseCheckpoint(config=config, params=params, meta=header.get("meta", {}))
    if header["kind"] == "hybrid":
        return HybridCheckpoint(
            config=config,
            token_moe=TokenMoEConfig(**header["token_moe"]),
            segment_moe=SegmentMoEConfig(**header["segment_moe"]),
            params=params,
            meta=header.get("meta", {}),
        )
    raise ValueError(f"{path}: unknown checkpoint kind {header['kind']!r}")


def save(ckpt, path: str | Path) -> None:
    """Write a dense or hybrid checkpoint; each config block is its dataclass's fields."""
    if isinstance(ckpt, HybridCheckpoint):
        kind, blocks = "hybrid", ("config", "token_moe", "segment_moe")
    elif isinstance(ckpt, DenseCheckpoint):
        kind, blocks = "dense", ("config",)
    else:
        raise TypeError(f"cannot save object of type {type(ckpt).__name__}")
    manifest, payload = _manifest(ckpt.params)
    header = {"kind": kind, "meta": ckpt.meta, "manifest": manifest}
    header.update((block, dataclasses.asdict(getattr(ckpt, block))) for block in blocks)
    _write(path, header, payload)
