"""Token-level MoE: a shared expert plus routed experts with normalized gating.

The router scores all experts with one softmax; expert slot 0 is the shared
expert. Every token selects the shared expert in gate slot 0, the best K-1
routed experts join it, and the K selected scores are divided by their sum, so
each token's gates add up to exactly 1.

Selections are discrete and fixed during backprop; gradients flow only
through the selected scores' values. The shared expert runs on every token,
scaled by gate slot 0; routed experts are dispatched by
:func:`hymoe.dense.mix_experts`, as the segment MoE's experts are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import ffn_forward, mix_experts
from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    gather,
    matmul,
    narrow,
    softmax_axis,
    top_k_rows,
    tsum,
)


@dataclass(frozen=True)
class TokenMoEConfig:
    """Expert count includes the shared expert at slot 0."""

    num_experts: int = 6
    top_k: int = 2
    hidden_size: int = 64

    def __post_init__(self):
        if self.num_experts < 2:
            raise ValueError(f"num_experts must be >= 2, got {self.num_experts}")
        if not 2 <= self.top_k <= self.num_experts:
            raise ValueError(
                f"top_k must satisfy 2 <= K <= num_experts, got K={self.top_k}, N={self.num_experts}"
            )
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")


@dataclass
class GateAssignment:
    """Per-token expert selection and differentiable gate values.

    ``indices`` is [T x K] with the shared expert 0 in slot 0, ``gates`` the
    matching gate values, and ``scores`` the full [T x N] affinity matrix.
    """

    num_experts: int
    top_k: int
    indices: np.ndarray
    gates: Tensor
    scores: Tensor


def token_affinity_scores(router: Parameter, x: Tensor) -> Tensor:
    """Affinity rows: softmax over experts of x @ W, one row per token."""
    return softmax_axis(matmul(x, router), axis=1)


def compute_token_gates(scores: Tensor, cfg: TokenMoEConfig) -> GateAssignment:
    """Shared expert in slot 0, then the best K-1 routed experts; gates sum to 1."""
    if scores.ndim != 2 or scores.shape[1] != cfg.num_experts:
        raise ShapeError(
            f"scores shape {scores.shape} inconsistent with num_experts {cfg.num_experts}"
        )
    T = scores.shape[0]
    routed_order = top_k_rows(scores.data[:, 1:], cfg.top_k - 1) + 1
    indices = np.concatenate([np.zeros((T, 1), dtype=np.int64), routed_order], axis=1)
    selected = gather(scores, (np.arange(T)[:, None], indices))  # one per (token, slot)
    gates = selected / tsum(selected, axis=1, keepdims=True)
    return GateAssignment(cfg.num_experts, cfg.top_k, indices, gates, scores)


def token_moe_forward(
    routed_experts: list[tuple[Parameter, Parameter]],
    shared_expert: tuple[Parameter, Parameter],
    assign: GateAssignment,
    x: Tensor,
) -> Tensor:
    """Combine expert outputs: sum over selected experts of gate * FFN_i(x_t).

    ``routed_experts`` hold slots 1..N-1; ``shared_expert`` is slot 0 (its
    parameters are expected to be frozen — the flag lives on the Parameters).
    The shared expert runs on every token, scaled by gate slot 0, which must
    hold expert 0 and no other slot may; a routed one runs on its picks.
    """
    if 1 + len(routed_experts) != assign.num_experts:
        raise ShapeError(f"expert count {1 + len(routed_experts)} does not match "
                         f"assignment num_experts {assign.num_experts}")
    if x.shape[0] != assign.indices.shape[0]:
        raise ShapeError(f"token count disagrees: x {x.shape} vs gates {assign.indices.shape}")
    if (assign.indices[:, 0] != 0).any() or (assign.indices[:, 1:] == 0).any():
        raise ShapeError("the shared expert 0 must hold gate slot 0 and no other slot")
    shared = ffn_forward(x, *shared_expert) * narrow(assign.gates, 1, 0, 1)
    picked = (np.nonzero(assign.indices == i) for i in range(1, assign.num_experts))
    picks = [(rows, (rows[:, None], slots[:, None])) for rows, slots in picked]
    return mix_experts(routed_experts, x, assign.gates, picks, out=shared)
