"""Next-token-prediction loss, load-balance loss, and the combined report.

The balance term is computed per layer from the token-level gate history and
summed: alpha * N * sum_i f_i * p_i over all N experts, the shared expert
included (Switch Transformer, Fedus et al. 2021). f_i is the fraction of
selections that went to expert i (each token contributes K selections,
normalized by K*T) and p_i is the mean gate value of expert i over all T
tokens. f is a piecewise-constant selection statistic and carries no gradient;
p rides the tape, so the router is steered away from collapse through the gate
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import ShapeError, Tensor, gather, log_softmax_axis, scatter, tmean, tsum
from .token_moe import GateAssignment


def ntp_loss(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of the target ids: -(1/T) sum log p(x_t)."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got {logits.shape}")
    if targets.ndim != 1 or targets.size != logits.shape[0]:
        raise ShapeError(
            f"targets length {targets.shape} does not match logits rows {logits.shape}"
        )
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ValueError(f"target id outside vocabulary of size {logits.shape[1]}")
    logp = log_softmax_axis(logits, axis=1)
    picked = gather(logp, (np.arange(targets.size), targets))
    return -tmean(picked)


@dataclass
class BalanceResult:
    loss: Tensor
    per_layer_f: list[np.ndarray]
    per_layer_p: list[np.ndarray]


def load_balance_loss(
    gate_history: Sequence[GateAssignment],
    alpha: float,
    token_rows: np.ndarray | None = None,
) -> BalanceResult:
    """Per-layer alpha * N * sum_i f_i * p_i, summed over layers.

    ``gate_history`` holds one GateAssignment per layer for the batch.
    ``token_rows`` restricts the statistics to those rows (used to drop
    padding positions); by default every row counts. p comes from the
    [T x N] gate matrix of those rows, 0 where a token did not pick an expert.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    total = Tensor(0.0)
    per_layer_f: list[np.ndarray] = []
    per_layer_p: list[np.ndarray] = []
    for assign in gate_history:
        n = assign.num_experts
        gates, indices = assign.gates, assign.indices
        if token_rows is not None:
            gates = gather(gates, token_rows)
            indices = indices[token_rows]
        t_count = indices.shape[0]
        dense = scatter(gates, (np.arange(t_count)[:, None], indices), (t_count, n))
        counts = np.bincount(indices.reshape(-1), minlength=n)
        f = counts / (assign.top_k * t_count)
        p = tmean(dense, axis=0)
        layer_loss = tsum(p * Tensor(f)) * (alpha * n)
        per_layer_f.append(f)
        per_layer_p.append(p.data.copy())
        total = total + layer_loss
    return BalanceResult(loss=total, per_layer_f=per_layer_f, per_layer_p=per_layer_p)


@dataclass
class LossReport:
    """Scalars and routing statistics of one step; total = l_ntp + l_balance,
    and ``lr`` is the learning rate the step applied."""

    l_ntp: float
    l_balance: float
    total: float
    per_layer_f: list[list[float]]
    per_layer_p: list[list[float]]
    lr: float
