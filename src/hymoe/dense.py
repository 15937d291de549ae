"""Toy decoder-style language model whose FFN layers get upcycled.

The architecture is deliberately plain: learned token + position embeddings,
pre-norm causal multi-head attention, a two-matmul SiLU feed-forward, RMS
norms without bias, and a linear output head. Everything runs in float64 on
the autodiff tape from :mod:`hymoe.tensor`.

:func:`forward_batch` is the one layer stack of the project. Its FFN slot is
a callable: the dense model passes each layer's FFN, the hybrid model
(:mod:`hymoe.hybrid`) its token + segment MoE block, so the upcycled model is
the dense model with a different FFN, the dense model its one-expert case.

Every sample is padded to ``max_seq_len`` and the batch runs as one flattened
matrix; the logits are sliced back afterwards. Fixed internal shapes keep
prefix logits bitwise reproducible: evaluating a sequence and any of its
prefixes performs identical reductions position by position, so causality
holds exactly rather than merely within a tolerance. The attention op is
causal by construction: it sets every score of a later key to a large negative
constant (not added to) for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    causal_attention,
    gather,
    matmul,
    narrow,
    power,
    scatter,
    silu,
    tmean,
)

NORM_EPS = 1e-6


@dataclass(frozen=True)
class DenseConfig:
    """Shape of the dense base model. Desk-scale defaults train in minutes."""

    vocab_size: int = 512
    hidden_size: int = 64
    num_layers: int = 4
    ffn_hidden: int = 256
    num_heads: int = 2
    max_seq_len: int = 256

    def __post_init__(self):
        for name in ("vocab_size", "hidden_size", "num_layers", "ffn_hidden", "num_heads", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"DenseConfig.{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )


@dataclass
class DenseCheckpoint:
    """A dense config plus its named parameters."""

    config: DenseConfig
    params: dict[str, Parameter]
    meta: dict = field(default_factory=dict)

    def param(self, name: str) -> Parameter:
        try:
            return self.params[name]
        except KeyError:
            raise KeyError(f"checkpoint has no parameter named {name!r}") from None


def dense_shapes(config: DenseConfig) -> dict[str, tuple[int, ...]]:
    """Each dense parameter's shape by name, in init order: the dense layout."""
    h, f, v = config.hidden_size, config.ffn_hidden, config.vocab_size
    shapes = {"embed.tok": (v, h), "embed.pos": (config.max_seq_len, h)}
    for l in range(config.num_layers):
        pre = f"layer.{l}"
        shapes[f"{pre}.norm1"] = (h,)
        shapes.update((f"{pre}.attn.{w}", (h, h)) for w in ("wq", "wk", "wv", "wo"))
        shapes |= {f"{pre}.norm2": (h,), f"{pre}.ffn.w1": (h, f), f"{pre}.ffn.w2": (f, h)}
    return shapes | {"final_norm": (h,), "head": (h, v)}


def init_dense(config: DenseConfig, seed: int = 0) -> DenseCheckpoint:
    """Seeded fresh checkpoint: each of :func:`dense_shapes`, in order and trainable.

    Norm scales start at 1, ``embed.*`` at N(0, 0.08) and every other matrix
    at N(0, fan_in^-1/2), its fan-in being its row count.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Parameter] = {}
    for name, shape in dense_shapes(config).items():
        scale = 0.08 if name.startswith("embed.") else shape[0] ** -0.5
        data = np.ones(shape) if len(shape) == 1 else rng.normal(0.0, scale, size=shape)
        params[name] = Parameter(name, data, trainable=True)
    return DenseCheckpoint(config=config, params=params, meta={"step": 0, "seed": seed})


# ---------------------------------------------------------------------------
# building blocks shared with the hybrid model


def rmsnorm(x: Tensor, scale: Tensor) -> Tensor:
    ms = tmean(x * x, axis=1, keepdims=True)
    return x * power(ms + NORM_EPS, -0.5) * scale


def ffn_forward(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Two-layer feed-forward with SiLU between; the function every expert computes."""
    return matmul(silu(matmul(x, w1)), w2)


def mix_experts(experts: Sequence[tuple], x: Tensor, gates: Tensor,
                picks: Sequence[tuple], out: Tensor | None = None) -> Tensor:
    """The one expert dispatch of both MoEs: gather, FFN, scale, scatter back.

    ``picks[i] = (rows, gate_index)``: expert i runs :func:`ffn_forward` on
    ``gather(x, rows)``, scales output row j by the gate ``gather(gates,
    gate_index)[j, 0]`` (``gate_index`` selects an [n x 1] column, n =
    ``rows.size``) and scatters it onto row ``rows[j]``; the results are added
    onto ``out`` in expert order. An expert with no rows adds nothing.
    """
    for (w1, w2), (rows, gate_index) in zip(experts, picks, strict=True):
        if rows.size == 0:
            continue
        weights = gather(gates, gate_index)
        contrib = scatter(ffn_forward(gather(x, rows), w1, w2) * weights, rows, x.shape)
        out = contrib if out is None else out + contrib
    return out


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
              num_heads: int, length: int) -> Tensor:
    """Causal multi-head attention over a flattened batch of padded samples.

    ``x`` is [B*L x hidden], every sample padded to the L = ``length`` rows of
    its block, so B = 1 is a single sequence. Three projections, one blocked
    attention tape op (:func:`causal_attention`, causal by construction) and
    the output projection: five tape nodes per layer whatever B and the head
    count.
    """
    heads = causal_attention(matmul(x, wq), matmul(x, wk), matmul(x, wv), num_heads, length)
    return matmul(heads, wo)


def _validate_tokens(tokens: Sequence[int], config: DenseConfig) -> np.ndarray:
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError(f"token sequence must be 1-D and non-empty, got shape {ids.shape}")
    if ids.size > config.max_seq_len:
        raise ValueError(f"sequence length {ids.size} exceeds max_seq_len {config.max_seq_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        bad = ids[(ids < 0) | (ids >= config.vocab_size)][0]
        raise ValueError(f"token id {bad} outside vocabulary of size {config.vocab_size}")
    return ids


def head_logits(ckpt, x: Tensor, lengths: Sequence[int], stride: int) -> list[Tensor]:
    """Final norm + head over a flattened batch; per-sample [T_b x vocab] slices.

    The head multiplies each sample's whole padded block: the product has the
    same shape whatever the batch, and no sample's gradient is a zero-filled
    [B * stride x vocab] matrix.
    """
    normed = rmsnorm(x, ckpt.param("final_norm"))
    head = ckpt.param("head")
    return [
        narrow(matmul(narrow(normed, 0, b * stride, stride), head), 0, 0, t_len)
        for b, t_len in enumerate(lengths)
    ]


def forward_batch(
    ckpt, ids: Sequence[np.ndarray], ffn: Callable[[int, Tensor], Tensor]
) -> list[Tensor]:
    """The layer stack shared by the dense and the hybrid model.

    ``ids`` are validated token arrays, one per sample. Each is padded to
    ``max_seq_len`` and the batch runs flattened, [B * max_seq_len x hidden]:
    embed, then per layer rmsnorm -> attention -> rmsnorm -> ``ffn(layer, u)``
    (the FFN slot, fed the normed hidden states) with a residual around each
    half, then the head. Returns each sample's [T_b x vocab] logits.
    """
    cfg = ckpt.config
    L = cfg.max_seq_len
    flat_ids = np.zeros((len(ids), L), dtype=np.int64)  # padded with id 0
    for b, a in enumerate(ids):
        flat_ids[b, : a.size] = a
    x = gather(ckpt.param("embed.tok"), flat_ids.reshape(-1)) + gather(
        ckpt.param("embed.pos"), np.tile(np.arange(L), len(ids))
    )
    for l in range(cfg.num_layers):
        pre = f"layer.{l}"
        normed = rmsnorm(x, ckpt.param(f"{pre}.norm1"))
        wq, wk, wv, wo = (ckpt.param(f"{pre}.attn.{w}") for w in ("wq", "wk", "wv", "wo"))
        h = x + attention(normed, wq, wk, wv, wo, cfg.num_heads, L)
        u = rmsnorm(h, ckpt.param(f"{pre}.norm2"))
        x = h + ffn(l, u)
    return head_logits(ckpt, x, [a.size for a in ids], L)


def dense_forward_batch(ckpt: DenseCheckpoint, samples: Sequence[Sequence[int]]) -> list[Tensor]:
    """Per-sample causal logits; the FFN slot holds the layer's dense FFN."""

    def dense_ffn(layer: int, u: Tensor) -> Tensor:
        pre = f"layer.{layer}.ffn"
        return ffn_forward(u, ckpt.param(f"{pre}.w1"), ckpt.param(f"{pre}.w2"))

    return forward_batch(ckpt, [_validate_tokens(s, ckpt.config) for s in samples], dense_ffn)


def dense_forward(ckpt: DenseCheckpoint, tokens: Sequence[int]) -> Tensor:
    """Causal logits for one sequence: [T x vocab], position t sees tokens <= t."""
    return dense_forward_batch(ckpt, [tokens])[0]
