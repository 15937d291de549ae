"""Checkpoint container: JSON header + manifest + raw little-endian f64 payload.

Layout on disk::

    bytes 0..7    magic b"HYMOECK1"
    bytes 8..15   header length (uint64, little-endian)
    header        UTF-8 JSON: kind, config blocks, meta, manifest
    payload       concatenated tensor data, float64 little-endian

Manifest entries carry {name, shape, offset, trainable}; offsets are relative
to the start of the payload. Dense and hybrid checkpoints share the format.
``load`` refuses, naming the file, a header length field that is cut short
or points past the end of the file, a header that is not UTF-8 JSON or lacks
a key, a config block that does not hold exactly its dataclass's fields, a
manifest whose entries do not follow one another from byte 0 or name a
parameter twice, a payload that does not end where the manifest ends, and
parameters that are not exactly the names, shapes and trainable flags of the
layout its config blocks give (``dense_shapes`` or ``hybrid_layout``), the one
``init_dense`` and ``upcycle`` build. Each loaded
parameter owns a writable copy of its bytes. ``save`` renames a temporary file
over the target, so a failed write never leaves a torn file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np

from .dense import DenseCheckpoint, DenseConfig, dense_shapes
from .hybrid import HybridCheckpoint, hybrid_layout
from .segment_moe import SegmentMoEConfig
from .tensor import Parameter
from .token_moe import TokenMoEConfig

MAGIC = b"HYMOECK1"
# Each kind's checkpoint class, its header's config blocks (one dataclass each)
# and its layout: each parameter's (name, shape, trainable, ...) from the configs.
_KINDS = {
    "dense": (DenseCheckpoint, {"config": DenseConfig},
              lambda config: ((name, shape, True) for name, shape in dense_shapes(config).items())),
    "hybrid": (HybridCheckpoint, {"config": DenseConfig, "token_moe": TokenMoEConfig,
                                  "segment_moe": SegmentMoEConfig}, hybrid_layout),
}


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


def _field(path: str | Path, block, key: str, where: str = "header"):
    if not isinstance(block, dict) or key not in block:
        raise ValueError(f"{path}: {where} has no {key!r}")
    return block[key]


def _load_params(path: str | Path, header: dict, payload: bytes) -> dict[str, Parameter]:
    """One Parameter per manifest entry; the entries must tile the payload in order."""
    entries, end = [], 0
    for i, entry in enumerate(_field(path, header, "manifest")):
        name, shape, offset, trainable = (
            _field(path, entry, key, f"manifest entry {i}")
            for key in ("name", "shape", "offset", "trainable")
        )
        if offset != end:
            raise ValueError(
                f"{path}: manifest entry {name!r} starts at byte {offset}, "
                f"not at byte {end} where the entry before it ends"
            )
        count = int(np.prod(shape))
        entries.append((name, tuple(shape), offset, count, trainable))
        end = offset + 8 * count
    if len(payload) != end:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes but the manifest ends at byte {end}"
        )
    params: dict[str, Parameter] = {}
    for name, shape, offset, count, trainable in entries:
        if name in params:
            raise ValueError(f"{path}: manifest names {name!r} twice")
        data = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        params[name] = Parameter(name, data.reshape(shape), trainable=trainable)
    return params


def _config(path: str | Path, header: dict, block: str, cls):
    """``cls`` from a header block that must hold exactly its fields."""
    values, fields = _field(path, header, block), {f.name for f in dataclasses.fields(cls)}
    if values.keys() != fields:
        raise ValueError(
            f"{path}: config block {block!r} must hold the fields of {cls.__name__}: "
            f"missing {sorted(fields - values.keys())}, unknown {sorted(values.keys() - fields)}"
        )
    return cls(**values)


def _check_layout(path: str | Path, params: dict[str, Parameter], layout) -> None:
    """The parameters must be exactly the layout's names, shapes and trainable flags."""
    got = {name: (p.data.shape, p.trainable) for name, p in params.items()}
    want = {name: (shape, trainable) for name, shape, trainable, *_ in layout}

    def show(entry):
        return "absent" if entry is None else f"{entry[0]} {'trainable' if entry[1] else 'frozen'}"

    differ = [
        f"{name}: file {show(got.get(name))}, layout {show(want.get(name))}"
        for name in want | got if got.get(name) != want.get(name)
    ]
    if differ:
        raise ValueError(f"{path}: {len(differ)} parameter(s) disagree with the layout of "
                         f"the header's configs: {'; '.join(differ[:3])}")


def load(path: str | Path):
    """Load either checkpoint kind; returns DenseCheckpoint or HybridCheckpoint."""
    header, payload = _read(path)
    params = _load_params(path, header, payload)
    kind = _field(path, header, "kind")
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown checkpoint kind {kind!r}")
    cls, blocks, layout = _KINDS[kind]
    configs = {block: _config(path, header, block, config) for block, config in blocks.items()}
    _check_layout(path, params, layout(*configs.values()))
    return cls(params=params, meta=header.get("meta", {}), **configs)


def save(ckpt, path: str | Path) -> None:
    """Write a dense or hybrid checkpoint; each config block is its dataclass's fields."""
    kind = next((k for k, (cls, *_) in _KINDS.items() if isinstance(ckpt, cls)), None)
    if kind is None:
        raise TypeError(f"cannot save object of type {type(ckpt).__name__}")
    manifest, payload = _manifest(ckpt.params)
    header = {"kind": kind, "meta": ckpt.meta, "manifest": manifest}
    header.update((block, dataclasses.asdict(getattr(ckpt, block))) for block in _KINDS[kind][1])
    _write(path, header, payload)
