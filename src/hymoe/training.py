"""Training loop: combined objective, freeze-respecting SGD, cosine schedule.

``training_step`` is one path for both model kinds: the loss is the NTP loss
plus the balance term over every layer's token gates. A hybrid checkpoint
trains only its routers/experts/fusion matrices; a dense one has no gates, so
its balance term is an exact 0.0 and it trains every parameter on the NTP loss
alone. Batches are derived statelessly from (seed, step), so resuming from a
checkpoint replays the exact remaining batch sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dense import dense_forward_batch
from .hybrid import HybridCheckpoint, hybrid_forward_batch
from .losses import LossReport, load_balance_loss, ntp_loss
from .tensor import Tensor, backward
from .token_moe import GateAssignment


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    seq_len: int = 256
    learning_rate: float = 0.05
    alpha: float = 0.01
    steps: int = 200
    seed: int = 0
    warmup_steps: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        for name in ("batch_size", "seq_len", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"TrainConfig.{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= self.warmup_steps < self.steps:
            raise ValueError("warmup_steps must satisfy 0 <= warmup < steps")


def cosine_lr(base: float, step: int, total_steps: int, warmup_steps: int = 0) -> float:
    """Linear warmup to ``base``, then half-cosine decay to 0."""
    if warmup_steps > 0 and step < warmup_steps:
        return base * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    frac = min(max(step - warmup_steps, 0), span) / span
    return base * 0.5 * (1.0 + math.cos(math.pi * frac))


def _forward(ckpt, samples) -> tuple[list[Tensor], list[GateAssignment], np.ndarray | None]:
    """Logits, each layer's token gates and the real rows (dense: no gates, every row)."""
    if isinstance(ckpt, HybridCheckpoint):
        logits, trace = hybrid_forward_batch(ckpt, samples)
        return logits, [layer.gates for layer in trace.layers], trace.real_rows
    return dense_forward_batch(ckpt, samples), [], None


def _mean_ntp(logits: list[Tensor], targets) -> Tensor:
    """Batch mean of the per-sample NTP losses."""
    total = Tensor(0.0)
    for lg, tg in zip(logits, targets):
        total = total + ntp_loss(lg, tg)
    return total * (1.0 / len(logits))


def training_step(
    ckpt,
    samples: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
    cfg: TrainConfig,
    step: int,
) -> LossReport:
    """One SGD step on the batch; updates trainable parameters only, and none
    if the loss or a trainable gradient is not finite."""
    logits, gate_history, real_rows = _forward(ckpt, samples)
    l_ntp = _mean_ntp(logits, targets)
    balance = load_balance_loss(gate_history, cfg.alpha, real_rows)
    total = l_ntp + balance.loss
    total_val = total.item()
    l_balance = balance.loss.item()
    if not math.isfinite(total_val):
        raise RuntimeError(
            f"non-finite loss at step {step}: ntp={l_ntp.item()!r}, balance={l_balance!r}"
        )
    backward(total)
    for name, p in ckpt.params.items():
        if p.trainable and p.grad is not None and not np.isfinite(p.grad).all():
            raise RuntimeError(f"non-finite gradient of {name} at step {step}")
    lr = cosine_lr(cfg.learning_rate, step, cfg.steps, cfg.warmup_steps)
    for p in ckpt.params.values():
        if p.trainable and p.grad is not None:
            p.data -= lr * p.grad
        p.grad = None
    return LossReport(
        l_ntp=l_ntp.item(),
        l_balance=l_balance,
        total=total_val,
        per_layer_f=[f.tolist() for f in balance.per_layer_f],
        per_layer_p=[p.tolist() for p in balance.per_layer_p],
        lr=lr,
    )


def evaluate_loss(ckpt, samples, targets) -> float:
    """Mean NTP loss over the given samples, no parameter updates."""
    logits, _, _ = _forward(ckpt, samples)
    return _mean_ntp(logits, targets).item()


def write_metrics_line(path: Path, report: LossReport, step: int) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps({"step": step, **asdict(report)}) + "\n")
