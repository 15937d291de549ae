"""Convert a dense checkpoint into the hybrid MoE layout.

:func:`upcycle` builds :func:`hymoe.hybrid.hybrid_layout`: a parameter with a
source copies it bitwise, so every expert starts as the layer's FFN (frozen
shared expert, trainable routed and segment experts). ``fuse_tok`` starts at
the identity, the routers and ``fuse_seg`` at zero (uniform affinities), so a
freshly upcycled model reproduces the dense model's logits; ``fidelity_check``
verifies exactly that on random probe sequences.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .dense import DenseCheckpoint, dense_forward
from .hybrid import HybridCheckpoint, hybrid_forward, hybrid_layout
from .segment_moe import SegmentMoEConfig
from .tensor import Parameter
from .token_moe import TokenMoEConfig


def upcycle(
    dense: DenseCheckpoint, tok_cfg: TokenMoEConfig, seg_cfg: SegmentMoEConfig
) -> HybridCheckpoint:
    """The hybrid model of ``dense`` at step 0; both MoE widths must be the dense one."""
    cfg = dense.config
    if tok_cfg.hidden_size != cfg.hidden_size or seg_cfg.hidden_size != cfg.hidden_size:
        raise ValueError(
            f"hidden_size mismatch: dense {cfg.hidden_size}, "
            f"token {tok_cfg.hidden_size}, segment {seg_cfg.hidden_size}"
        )
    params = {}
    for name, shape, trainable, source in hybrid_layout(cfg, tok_cfg, seg_cfg):
        if source is not None:
            data = dense.param(source).data
        else:
            data = np.eye(*shape) if name.endswith("fuse_tok") else np.zeros(shape)
        params[name] = Parameter(name, data, trainable)
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
