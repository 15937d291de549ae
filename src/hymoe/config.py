"""Flat key-value run configuration: ``key = value`` lines, ``#`` comments.

Every key is validated against the schema up front so config mistakes
surface before any compute starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class RunSettings:
    """Everything one training run needs, parsed from a flat config file."""

    model: str = "dense"
    corpus_dir: str = "corpus"
    out_dir: str = "run"
    init_checkpoint: str = ""
    train_languages: str = ""  # comma-separated; empty = all corpus languages
    seed: int = 0
    steps: int = 200
    batch_size: int = 8
    seq_len: int = 128
    learning_rate: float = 0.05
    alpha: float = 0.01
    warmup_steps: int = 0
    checkpoint_every: int = 100
    eval_blocks: int = 8
    # dense init fields, used when model=dense and no init_checkpoint is given
    vocab_size: int = 512
    hidden_size: int = 64
    num_layers: int = 4
    ffn_hidden: int = 256
    num_heads: int = 2
    max_seq_len: int = 128
    init_seed: int = 0

    def __post_init__(self):
        if self.model not in ("dense", "hybrid"):
            raise ValueError(f"model must be 'dense' or 'hybrid', got {self.model!r}")
        if self.model == "hybrid" and not self.init_checkpoint:
            raise ValueError("hybrid training requires init_checkpoint (run `upcycle` first)")
        if self.seq_len > self.max_seq_len and not self.init_checkpoint:
            raise ValueError(f"seq_len {self.seq_len} exceeds max_seq_len {self.max_seq_len}")
        for name in ("steps", "batch_size", "seq_len", "checkpoint_every", "eval_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def build(self, cls):
        """An instance of the dataclass ``cls`` from the settings named like its fields."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def languages(self) -> list[str] | None:
        names = [n.strip() for n in self.train_languages.split(",") if n.strip()]
        return names or None


_FIELD_TYPES = {name: f.type for name, f in RunSettings.__dataclass_fields__.items()}
_CONVERTERS = {"str": str, "int": int, "float": float}


def parse_kv_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines into typed values per the RunSettings schema."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _CONVERTERS[_FIELD_TYPES[key]](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def load_settings(path: str | Path, **overrides) -> RunSettings:
    values = parse_kv_file(path)
    values.update(overrides)
    return RunSettings(**values)
