"""Training loop: combined objective, freeze-respecting SGD, cosine schedule.

``training_step`` works for both model kinds: hybrid checkpoints add the
balance term and only their routers/experts/fusion matrices are trainable;
dense checkpoints train everything with the NTP loss alone. Batches are
derived statelessly from (seed, step), so resuming from a checkpoint replays
the exact remaining batch sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dense import dense_forward_batch
from .hybrid import HybridCheckpoint, HybridTrace, hybrid_forward_batch
from .losses import LossReport, load_balance_loss, ntp_loss
from .tensor import Tensor, backward


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


def _forward(ckpt, samples) -> tuple[list[Tensor], HybridTrace | None]:
    """Per-sample logits, plus the routing trace for a hybrid checkpoint."""
    if isinstance(ckpt, HybridCheckpoint):
        return hybrid_forward_batch(ckpt, samples)
    return dense_forward_batch(ckpt, samples), None


def _mean_ntp(logits: list[Tensor], targets) -> Tensor:
    """Batch mean of the per-sample NTP losses."""
    pieces = [ntp_loss(lg, tg) for lg, tg in zip(logits, targets)]
    total = pieces[0]
    for piece in pieces[1:]:
        total = total + piece
    return total * (1.0 / len(pieces))


def training_step(
    ckpt,
    samples: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
    cfg: TrainConfig,
    step: int,
) -> LossReport:
    """One SGD step on the batch; updates trainable parameters only, and none
    if the loss or a trainable gradient is not finite."""
    logits, trace = _forward(ckpt, samples)
    l_ntp = _mean_ntp(logits, targets)
    total, balance = l_ntp, None
    if trace is not None:
        balance = load_balance_loss(
            [layer.gates for layer in trace.layers], cfg.alpha, trace.real_rows
        )
        total = l_ntp + balance.loss
    total_val = total.item()
    l_balance = balance.loss.item() if balance else 0.0
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
        per_layer_f=[f.tolist() for f in balance.per_layer_f] if balance else [],
        per_layer_p=[p.tolist() for p in balance.per_layer_p] if balance else [],
        lr=lr,
    )


def evaluate_loss(ckpt, samples, targets) -> float:
    """Mean NTP loss over the given samples, no parameter updates."""
    logits, _ = _forward(ckpt, samples)
    return _mean_ntp(logits, targets).item()


def write_metrics_line(path: Path, report: LossReport, step: int) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(report.to_json_dict(step)) + "\n")
