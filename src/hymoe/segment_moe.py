"""Segment-level MoE: sliding-window segments routed by expert choice.

Each sample's first ``floor(T / window)`` windows become segments; a segment
embedding is the mean of its token vectors. Experts pick segments rather than
the other way round: every expert independently takes its top-r segments from
the expert-to-segment affinity matrix, which guarantees a perfectly even
load (exactly r segments per expert). Segment outputs are broadcast back to
their member tokens and fused with the token path through two learned
matrices, the layer's ``fuse_tok`` and ``fuse_seg`` parameters, passed as
plain tensors and initialized to (identity, zero) so a fresh hybrid layer
reproduces the token path bit for bit.

Segments are disjoint runs of contiguous rows in the flattened batch, so the
pooling and the broadcast are index operations over those runs
(:func:`~hymoe.tensor.row_runs_mean`, :func:`~hymoe.tensor.spread_row_runs`)
located by the plan's ``starts``; no [segments x rows] matrix is built.
Each expert's picked segments go through :func:`hymoe.dense.mix_experts`, the
dispatch the token MoE uses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import mix_experts
from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    gather,
    matmul,
    row_runs_mean,
    softmax_axis,
    spread_row_runs,
    top_k_rows,
    transpose,
)


@dataclass(frozen=True)
class SegmentMoEConfig:
    num_experts: int = 6
    window: int = 32
    capacity_factor: float = 1.0
    hidden_size: int = 64

    def __post_init__(self):
        if self.num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {self.num_experts}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.capacity_factor < 1:
            raise ValueError(f"capacity_factor must be >= 1, got {self.capacity_factor}")
        if self.capacity_factor > self.num_experts:
            # r = floor(V * c / N) would exceed the V segments there are to pick.
            raise ValueError(
                f"capacity_factor {self.capacity_factor} exceeds num_experts "
                f"{self.num_experts}: each expert would need more segments than exist"
            )
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")


@dataclass
class SegmentationPlan:
    """Where each segment lives inside a flattened [B * row_stride, hidden] batch.

    ``spans[v] = (sample, start, end)`` in token coordinates; flattened row
    indices are ``sample * row_stride + t``, and ``starts[v]`` is the
    flattened row of segment v's first token. Tokens past the last full window
    of a sample are recorded in ``leftover`` and receive no segment output.
    """

    batch_size: int
    window: int
    row_stride: int
    spans: list[tuple[int, int, int]]
    leftover: list[tuple[int, int, int]]
    starts: np.ndarray

    @property
    def total_segments(self) -> int:
        return len(self.spans)


def partition_segments(
    lengths: tuple[int, ...], cfg: SegmentMoEConfig, row_stride: int
) -> SegmentationPlan:
    """Plan disjoint, contiguous windows of exactly ``cfg.window`` tokens.

    ``lengths`` holds one length per sample, each sample padded to
    ``row_stride`` rows. Samples shorter than the window contribute no
    segments; their tokens are all leftover.
    """
    spans: list[tuple[int, int, int]] = []
    leftover: list[tuple[int, int, int]] = []
    for b, t_len in enumerate(lengths):
        p = t_len // cfg.window
        for j in range(p):
            spans.append((b, j * cfg.window, (j + 1) * cfg.window))
        if p * cfg.window < t_len:
            leftover.append((b, p * cfg.window, t_len))
    return SegmentationPlan(
        batch_size=len(lengths),
        window=cfg.window,
        row_stride=row_stride,
        spans=spans,
        leftover=leftover,
        starts=np.array([b * row_stride + start for b, start, _ in spans], dtype=np.int64),
    )


def embed_segments(plan: SegmentationPlan, hidden: Tensor) -> Tensor:
    """Mean token vector per segment: [V x hidden] from [B*stride x hidden]."""
    expected = plan.batch_size * plan.row_stride
    if hidden.shape[0] != expected:
        raise ShapeError(f"hidden rows {hidden.shape} inconsistent with plan rows {expected}")
    return row_runs_mean(hidden, plan.starts, plan.window)


def compute_capacity(total_segments: int, cfg: SegmentMoEConfig) -> int:
    """Segments per expert: floor(V * c / N), clamped to at least 1."""
    if total_segments < 1:
        raise ValueError(f"total_segments must be >= 1, got {total_segments}")
    r = int(total_segments * cfg.capacity_factor) // cfg.num_experts
    return max(r, 1)


@dataclass
class ExpertChoiceAssignment:
    """The (I, D, U) triple mapping each expert to its r chosen segments."""

    indices: np.ndarray      # I: [N x r] segment ids, r distinct per row
    weights: Tensor          # D: [N x r], D[i, j] = gate_matrix[i, I[i, j]]
    capacity: int
    gate_matrix: Tensor      # [N x V] expert-to-segment affinities

    @property
    def onehot(self) -> np.ndarray:
        """U: [N x r x V], one-hot over segments, derived from I."""
        n, r = self.indices.shape
        u = np.zeros((n, r, self.gate_matrix.shape[1]))
        u[np.arange(n)[:, None], np.arange(r), self.indices] = 1.0
        return u


def expert_choice_route(
    router: Parameter, seg_emb: Tensor, capacity: int
) -> ExpertChoiceAssignment:
    """Each expert takes its top-``capacity`` segments by affinity.

    Affinities are softmax-normalized over experts per segment, then the
    matrix is transposed so rows are experts. Row-wise top-k uses the global
    tie rule (lower segment id wins).
    """
    total = seg_emb.shape[0]
    if capacity > total:
        raise ValueError(f"capacity {capacity} exceeds segment count {total}")
    gate_matrix = transpose(softmax_axis(matmul(seg_emb, router), axis=1))
    indices = top_k_rows(gate_matrix.data, capacity)
    weights = gather(gate_matrix, (np.arange(indices.shape[0])[:, None], indices))
    return ExpertChoiceAssignment(indices, weights, capacity, gate_matrix)


def segment_moe_forward(
    experts: list[tuple[Parameter, Parameter]],
    assign: ExpertChoiceAssignment,
    seg_emb: Tensor,
) -> Tensor:
    """Weighted scatter of expert outputs back onto segment rows.

    Expert i processes the segments it chose; its j-th output row lands on
    segment I[i, j] scaled by D[i, j]. Segments no expert picked stay zero.
    """
    num_experts, r = assign.indices.shape
    if len(experts) != num_experts:
        raise ShapeError(f"expert count {len(experts)} vs assignment rows {num_experts}")
    picks = [(chosen, (i, np.arange(r)[:, None])) for i, chosen in enumerate(assign.indices)]
    return mix_experts(experts, seg_emb, assign.weights, picks)


def fuse_layer_outputs(
    o_tok: Tensor,
    o_seg: Tensor | None,
    plan: SegmentationPlan,
    fuse_tok: Tensor,
    fuse_seg: Tensor,
) -> Tensor:
    """Per token: o_tok @ W_tok + (segment row of the token) @ W_seg.

    ``fuse_tok`` and ``fuse_seg`` are the layer's fusion pair, (identity,
    zero) after upcycling. Tokens without a segment (leftover or padding rows)
    get the token path only. With no segments at all the segment term
    vanishes entirely.
    """
    fused = matmul(o_tok, fuse_tok)
    if o_seg is not None and plan.total_segments > 0:
        rows = plan.batch_size * plan.row_stride
        spread = spread_row_runs(o_seg, plan.starts, plan.window, rows)
        fused = fused + matmul(spread, fuse_seg)
    return fused
