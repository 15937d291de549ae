"""Convert a dense checkpoint into the hybrid MoE layout.

Every expert starts as a bitwise copy of the layer's original FFN: the
original weights become the frozen shared expert, and the routed token
experts and segment experts are trainable copies. Routers start at zero
(uniform affinities) and the fusion pair at (identity, zero), so a freshly
upcycled model reproduces the dense model's logits. ``fidelity_check``
verifies exactly that on random probe sequences.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .dense import DenseCheckpoint, dense_forward
from .hybrid import HybridCheckpoint, hybrid_forward
from .segment_moe import SegmentMoEConfig
from .tensor import Parameter
from .token_moe import TokenMoEConfig


def upcycle(
    dense: DenseCheckpoint, tok_cfg: TokenMoEConfig, seg_cfg: SegmentMoEConfig
) -> HybridCheckpoint:
    cfg = dense.config
    if tok_cfg.hidden_size != cfg.hidden_size or seg_cfg.hidden_size != cfg.hidden_size:
        raise ValueError(
            f"hidden_size mismatch: dense {cfg.hidden_size}, "
            f"token {tok_cfg.hidden_size}, segment {seg_cfg.hidden_size}"
        )
    params = {}
    for name, p in dense.params.items():
        if ".ffn." in name:
            continue  # becomes the shared expert below
        params[name] = Parameter(name, p.data, False)
    experts = (
        [("shared", False)]
        + [(f"expert.{i}", True) for i in range(1, tok_cfg.num_experts)]
        + [(f"seg_expert.{i}", True) for i in range(seg_cfg.num_experts)]
    )
    for l in range(cfg.num_layers):
        pre = f"layer.{l}"
        for expert, trainable in experts:
            for w in ("w1", "w2"):
                name = f"{pre}.{expert}.{w}"
                params[name] = Parameter(name, dense.param(f"{pre}.ffn.{w}").data, trainable)
        params[f"{pre}.token_router"] = Parameter(
            f"{pre}.token_router", np.zeros((cfg.hidden_size, tok_cfg.num_experts))
        )
        params[f"{pre}.seg_router"] = Parameter(
            f"{pre}.seg_router", np.zeros((cfg.hidden_size, seg_cfg.num_experts))
        )
        params[f"{pre}.fuse_tok"] = Parameter(f"{pre}.fuse_tok", np.eye(cfg.hidden_size))
        params[f"{pre}.fuse_seg"] = Parameter(
            f"{pre}.fuse_seg", np.zeros((cfg.hidden_size, cfg.hidden_size))
        )
    return HybridCheckpoint(
        config=cfg,
        token_moe=tok_cfg,
        segment_moe=seg_cfg,
        params=params,
        meta={"step": 0, "upcycled_from_step": dense.meta.get("step", 0)},
    )


def fidelity_check(
    dense: DenseCheckpoint,
    hybrid: HybridCheckpoint,
    probes: int = 32,
    seed: int = 0,
    max_len: int | None = None,
) -> float:
    """Max |dense logits - hybrid logits| over random probe sequences."""
    cap = dense.config.max_seq_len if max_len is None else min(max_len, dense.config.max_seq_len)
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}: no probe would be compared")
    if cap < 2:
        raise ValueError(f"max_len must be >= 2, got a probe length cap of {cap}")
    if hybrid.config != dense.config:
        got = asdict(hybrid.config)
        differ = [f"{k} (dense {v}, hybrid {got[k]})" for k, v in asdict(dense.config).items()
                  if v != got[k]]
        raise ValueError(f"configs differ, nothing to compare: {', '.join(differ)}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        length = int(rng.integers(2, cap + 1))
        tokens = rng.integers(0, dense.config.vocab_size, size=length)
        ref = dense_forward(dense, tokens).data
        got = hybrid_forward(hybrid, tokens).data
        worst = max(worst, float(np.abs(ref - got).max()))
    return worst
