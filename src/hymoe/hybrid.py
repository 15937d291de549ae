"""The upcycled hybrid model: token-level + segment-level MoE per layer.

Each layer keeps the frozen attention block of the dense base model and
replaces the FFN with two parallel paths fed by the same normed hidden
states: the token-level MoE (shared expert + routed experts, normalized
gates) and the segment-level expert-choice MoE. Their outputs are fused by
the per-layer (W_tok, W_seg) pair and added to the residual stream.

Segment routing is batch-global: the whole batch's segments compete for the
experts' capacity. The layer stack itself is :func:`hymoe.dense.forward_batch`,
which runs every sample flattened into one [B * max_seq_len, hidden] matrix;
:func:`hybrid_forward_batch` plans the segments, hands the stack a closure
holding each layer's token + segment MoE block and fusion as its FFN slot, and
collects the routing trace as the layers run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dense import DenseCheckpoint, DenseConfig, dense_shapes, forward_batch
from .dense import _validate_tokens  # shared input validation
# Not called here; bench/workloads.trace_targets() hooks these names.
from .dense import attention, head_logits as head_logits_flat, rmsnorm  # noqa: F401
from .segment_moe import (
    ExpertChoiceAssignment,
    SegmentationPlan,
    SegmentMoEConfig,
    compute_capacity,
    embed_segments,
    expert_choice_route,
    fuse_layer_outputs,
    partition_segments,
    segment_moe_forward,
)
from .tensor import Parameter, Tensor
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

    param = DenseCheckpoint.param

    def _ffn(self, prefix: str) -> tuple[Parameter, Parameter]:
        return self.param(f"{prefix}.w1"), self.param(f"{prefix}.w2")

    def routed_experts(self, layer: int) -> list[tuple[Parameter, Parameter]]:
        n = self.token_moe.num_experts
        return [self._ffn(f"layer.{layer}.expert.{i}") for i in range(1, n)]

    def shared_expert(self, layer: int) -> tuple[Parameter, Parameter]:
        return self._ffn(f"layer.{layer}.shared")

    def segment_experts(self, layer: int) -> list[tuple[Parameter, Parameter]]:
        n = self.segment_moe.num_experts
        return [self._ffn(f"layer.{layer}.seg_expert.{i}") for i in range(n)]


def hybrid_layout(config: DenseConfig, tok_cfg: TokenMoEConfig, seg_cfg: SegmentMoEConfig):
    """Yield each hybrid parameter's (name, shape, trainable, source), in build order.

    The dense parameters other than the FFNs are frozen, each its own source.
    Per layer, the shared expert (frozen) and the routed and segment experts
    (trainable) take their source from the layer's dense ``ffn.w1``/``ffn.w2``.
    The routers, whose rows are each MoE config's ``hidden_size``, and the
    fusion pair are trainable and have no source.
    """
    shapes = dense_shapes(config)
    for name, shape in shapes.items():
        if ".ffn." not in name:
            yield name, shape, False, name
    experts = ["shared", *(f"expert.{i}" for i in range(1, tok_cfg.num_experts)),
               *(f"seg_expert.{i}" for i in range(seg_cfg.num_experts))]
    for l in range(config.num_layers):
        pre = f"layer.{l}"
        for expert in experts:
            for w in ("w1", "w2"):
                source = f"{pre}.ffn.{w}"
                yield f"{pre}.{expert}.{w}", shapes[source], expert != "shared", source
        yield f"{pre}.token_router", (tok_cfg.hidden_size, tok_cfg.num_experts), True, None
        yield f"{pre}.seg_router", (seg_cfg.hidden_size, seg_cfg.num_experts), True, None
        for fuse in ("fuse_tok", "fuse_seg"):
            yield f"{pre}.{fuse}", (config.hidden_size, config.hidden_size), True, None


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
    L = cfg.max_seq_len
    real_rows = np.concatenate(
        [b * L + np.arange(t_len) for b, t_len in enumerate(lengths)]
    ).astype(np.int64)

    plan = partition_segments(lengths, ckpt.segment_moe, row_stride=L)
    total_segments = plan.total_segments
    capacity = (
        compute_capacity(total_segments, ckpt.segment_moe) if total_segments > 0 else 0
    )
    traces: list[LayerTrace] = []

    def moe_block(l: int, u: Tensor) -> Tensor:
        pre = f"layer.{l}"
        scores = token_affinity_scores(ckpt.param(f"{pre}.token_router"), u)
        gates = compute_token_gates(scores, ckpt.token_moe)
        o_tok = token_moe_forward(
            ckpt.routed_experts(l), ckpt.shared_expert(l), gates, u
        )

        seg_assign = o_seg = None
        if total_segments > 0:
            seg_emb = embed_segments(plan, u)
            seg_assign = expert_choice_route(
                ckpt.param(f"{pre}.seg_router"), seg_emb, capacity
            )
            o_seg = segment_moe_forward(ckpt.segment_experts(l), seg_assign, seg_emb)

        traces.append(LayerTrace(gates=gates, segment_assign=seg_assign))
        return fuse_layer_outputs(
            o_tok, o_seg, plan, ckpt.param(f"{pre}.fuse_tok"), ckpt.param(f"{pre}.fuse_seg")
        )

    logits = forward_batch(ckpt, ids, moe_block)
    return logits, HybridTrace(plan=plan, layers=traces, real_rows=real_rows)


def hybrid_forward(ckpt: HybridCheckpoint, tokens: Sequence[int]) -> Tensor:
    """Single-sequence logits [T x vocab]; the segment batch is just this sample."""
    logits, _ = hybrid_forward_batch(ckpt, [tokens])
    return logits[0]
