"""The upcycled hybrid model: token-level + segment-level MoE per layer.

Each layer keeps the frozen attention block of the dense base model and
replaces the FFN with two parallel paths fed by the same normed hidden
states: the token-level MoE (shared expert + routed experts, normalized
gates) and the segment-level expert-choice MoE. Their outputs are fused by
the per-layer (W_tok, W_seg) pair and added to the residual stream.

Segment routing is batch-global: the whole batch's segments compete for the
experts' capacity, so the batch forward flattens samples into one
[B * max_seq_len, hidden] matrix. Every layer runs on that matrix, attention
included: one blocked attention op per layer keeps each sample's causal
[max_seq_len x max_seq_len] block to itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dense import (
    DenseConfig,
    attention,
    causal_mask,
    head_logits_flat,
    pad_ids,
    rmsnorm,
)
from .dense import _validate_tokens  # shared input validation
from .segment_moe import (
    ExpertChoiceAssignment,
    FusionWeights,
    SegmentationPlan,
    SegmentMoEConfig,
    compute_capacity,
    embed_segments,
    expert_choice_route,
    fuse_layer_outputs,
    partition_segments,
    segment_moe_forward,
)
from .tensor import Parameter, Tensor, gather_rows
from .token_moe import (
    GateAssignment,
    TokenMoEConfig,
    compute_token_gates,
    token_affinity_scores,
    token_moe_forward,
)


@dataclass
class HybridCheckpoint:
    """Dense base (frozen) plus per-layer experts, routers, and fusion."""

    config: DenseConfig
    token_moe: TokenMoEConfig
    segment_moe: SegmentMoEConfig
    params: dict[str, Parameter]
    meta: dict = field(default_factory=dict)

    def param(self, name: str) -> Parameter:
        try:
            return self.params[name]
        except KeyError:
            raise KeyError(f"checkpoint has no parameter named {name!r}") from None

    def trainable_params(self) -> list[Parameter]:
        return [p for p in self.params.values() if p.trainable]

    def frozen_params(self) -> list[Parameter]:
        return [p for p in self.params.values() if not p.trainable]

    def routed_experts(self, layer: int) -> list[tuple[Parameter, Parameter]]:
        return [
            (
                self.param(f"layer.{layer}.expert.{i}.w1"),
                self.param(f"layer.{layer}.expert.{i}.w2"),
            )
            for i in range(1, self.token_moe.num_experts)
        ]

    def shared_expert(self, layer: int) -> tuple[Parameter, Parameter]:
        return (
            self.param(f"layer.{layer}.shared.w1"),
            self.param(f"layer.{layer}.shared.w2"),
        )

    def segment_experts(self, layer: int) -> list[tuple[Parameter, Parameter]]:
        return [
            (
                self.param(f"layer.{layer}.seg_expert.{i}.w1"),
                self.param(f"layer.{layer}.seg_expert.{i}.w2"),
            )
            for i in range(self.segment_moe.num_experts)
        ]

    def fusion(self, layer: int) -> FusionWeights:
        return FusionWeights(
            token=self.param(f"layer.{layer}.fuse_tok"),
            segment=self.param(f"layer.{layer}.fuse_seg"),
        )


@dataclass
class LayerTrace:
    """Routing decisions of one layer, kept for losses and analytics."""

    gates: GateAssignment
    segment_assign: ExpertChoiceAssignment | None


@dataclass
class HybridTrace:
    plan: SegmentationPlan
    layers: list[LayerTrace]
    real_rows: np.ndarray  # flattened row indices of non-padding tokens


def hybrid_forward_batch(
    ckpt: HybridCheckpoint, samples: Sequence[Sequence[int]]
) -> tuple[list[Tensor], HybridTrace]:
    """Causal logits per sample plus the full routing trace for the batch."""
    cfg = ckpt.config
    ids = [_validate_tokens(s, cfg) for s in samples]
    lengths = tuple(a.size for a in ids)
    B, L = len(ids), cfg.max_seq_len
    mask = causal_mask(L)
    flat_ids = np.concatenate([pad_ids(a, L) for a in ids])
    pos_ids = np.tile(np.arange(L), B)
    real_rows = np.concatenate(
        [b * L + np.arange(t_len) for b, t_len in enumerate(lengths)]
    ).astype(np.int64)

    plan = partition_segments(lengths, ckpt.segment_moe, row_stride=L)
    total_segments = plan.total_segments
    capacity = (
        compute_capacity(total_segments, ckpt.segment_moe) if total_segments > 0 else 0
    )

    x = gather_rows(ckpt.param("embed.tok").value, flat_ids) + gather_rows(
        ckpt.param("embed.pos").value, pos_ids
    )
    traces: list[LayerTrace] = []
    for l in range(cfg.num_layers):
        pre = f"layer.{l}"
        normed = rmsnorm(x, ckpt.param(f"{pre}.norm1").value)
        h = x + attention(
            normed,
            ckpt.param(f"{pre}.attn.wq").value,
            ckpt.param(f"{pre}.attn.wk").value,
            ckpt.param(f"{pre}.attn.wv").value,
            ckpt.param(f"{pre}.attn.wo").value,
            cfg.num_heads,
            mask,
        )
        u = rmsnorm(h, ckpt.param(f"{pre}.norm2").value)

        scores = token_affinity_scores(ckpt.param(f"{pre}.token_router"), u)
        gates = compute_token_gates(scores, ckpt.token_moe, "shared-normalized")
        o_tok = token_moe_forward(
            ckpt.routed_experts(l), ckpt.shared_expert(l), gates, u
        )

        seg_assign = None
        o_seg = None
        if total_segments > 0:
            seg_emb = embed_segments(plan, u)
            seg_assign = expert_choice_route(
                ckpt.param(f"{pre}.seg_router"), seg_emb, capacity
            )
            o_seg = segment_moe_forward(ckpt.segment_experts(l), seg_assign, seg_emb)

        fused = fuse_layer_outputs(o_tok, o_seg, plan, ckpt.fusion(l))
        x = h + fused
        traces.append(LayerTrace(gates=gates, segment_assign=seg_assign))

    logits = head_logits_flat(ckpt, x, lengths, L)
    return logits, HybridTrace(plan=plan, layers=traces, real_rows=real_rows)


def hybrid_forward(ckpt: HybridCheckpoint, tokens: Sequence[int]) -> Tensor:
    """Single-sequence logits [T x vocab]; the segment batch is just this sample."""
    logits, _ = hybrid_forward_batch(ckpt, [tokens])
    return logits[0]
