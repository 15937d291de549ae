"""Routing-specialization analytics and held-out perplexity.

Reports cover the first, middle, and last layers. Token-expert selection
frequencies are per-language rows over all experts (the shared expert's
column is constant 1/K by construction since it joins every selection);
segment frequencies are per-expert rows over window positions inside a
sample. Top-2 segment positions are reported 1-based as ``"(v1, v2)"``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import eval_blocks
from .hybrid import HybridCheckpoint, hybrid_forward_batch
from .training import evaluate_loss


def report_layers(num_layers: int) -> list[int]:
    """First, middle, last (deduplicated for very shallow stacks)."""
    return sorted({0, num_layers // 2, num_layers - 1})


def evaluate_perplexity(
    ckpt,
    streams: dict[str, np.ndarray],
    languages: list[str] | None = None,
    seq_len: int = 128,
    n_blocks: int = 8,
) -> dict[str, float]:
    """exp(mean NTP loss) per language over fixed held-out blocks."""
    languages = sorted(streams) if languages is None else list(languages)
    if not languages:
        raise ValueError("no languages to evaluate")
    table: dict[str, float] = {}
    for name in languages:
        if name not in streams or streams[name].size == 0:
            raise ValueError(f"empty evaluation split for language {name!r}")
        samples, targets = eval_blocks(streams[name], seq_len, n_blocks)
        table[name] = float(np.exp(evaluate_loss(ckpt, samples, targets)))
    return table


@dataclass
class RoutingReport:
    layers: list[int]
    languages: list[str]
    num_token_experts: int
    num_segment_experts: int
    positions_per_sample: int
    token_freq: dict[int, np.ndarray]                 # layer -> [lang x N_tok]
    segment_freq: dict[int, dict[str, np.ndarray]]    # layer -> lang -> [N_seg x P]
    top_segments: dict[int, dict[str, tuple[int, int]]]

    def top2_string(self, layer: int, language: str) -> str:
        v1, v2 = self.top_segments[layer][language]
        return f"({v1}, {v2})"

    def save(self, out_dir: str | Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for layer in self.layers:
            with open(out_dir / f"token_freq_layer{layer}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["language"] + [f"expert_{i}" for i in range(self.num_token_experts)])
                for li, lang in enumerate(self.languages):
                    writer.writerow([lang] + [f"{v:.10f}" for v in self.token_freq[layer][li]])
            for lang in self.languages:
                path = out_dir / f"segment_freq_layer{layer}_{lang}.csv"
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(
                        ["expert"] + [f"pos_{p + 1}" for p in range(self.positions_per_sample)]
                    )
                    for i, row in enumerate(self.segment_freq[layer][lang]):
                        writer.writerow([i] + [f"{v:.10f}" for v in row])
        top2 = {
            str(layer): {lang: self.top2_string(layer, lang) for lang in self.languages}
            for layer in self.layers
        }
        (out_dir / "top_segments.json").write_text(json.dumps(top2, indent=2) + "\n")


def routing_analytics(
    ckpt: HybridCheckpoint,
    streams: dict[str, np.ndarray],
    languages: list[str] | None = None,
    seq_len: int = 128,
    n_blocks: int = 8,
    batch_size: int = 4,
) -> RoutingReport:
    """Selection-frequency report over held-out blocks, per language and layer."""
    languages = sorted(streams) if languages is None else list(languages)
    layers = report_layers(ckpt.config.num_layers)
    n_tok = ckpt.token_moe.num_experts
    n_seg = ckpt.segment_moe.num_experts
    positions = seq_len // ckpt.segment_moe.window

    token_counts = {l: np.zeros((len(languages), n_tok)) for l in layers}
    seg_counts = {l: {lang: np.zeros((n_seg, max(positions, 1))) for lang in languages} for l in layers}
    ei = np.arange(n_seg)[:, None]  # expert i picked the segments in row i of I

    for li, lang in enumerate(languages):
        samples, _ = eval_blocks(streams[lang], seq_len, n_blocks)
        for start in range(0, len(samples), batch_size):
            chunk = samples[start : start + batch_size]
            _, trace = hybrid_forward_batch(ckpt, chunk)
            plan = trace.plan  # each segment's window position inside its sample
            pos = plan.starts % plan.row_stride // plan.window
            for layer in layers:
                lt = trace.layers[layer]
                picked = lt.gates.indices[trace.real_rows]
                token_counts[layer][li] += np.bincount(picked.reshape(-1), minlength=n_tok)
                if lt.segment_assign is not None:
                    np.add.at(seg_counts[layer][lang], (ei, pos[lt.segment_assign.indices]), 1.0)

    token_freq = {}
    segment_freq = {}
    top_segments = {}
    for layer in layers:
        totals = token_counts[layer].sum(axis=1, keepdims=True)
        token_freq[layer] = token_counts[layer] / np.maximum(totals, 1.0)
        segment_freq[layer] = {}
        top_segments[layer] = {}
        for lang in languages:
            counts = seg_counts[layer][lang]
            row_tot = counts.sum(axis=1, keepdims=True)
            segment_freq[layer][lang] = counts / np.maximum(row_tot, 1.0)
            pooled = counts.sum(axis=0)
            order = np.argsort(-pooled, kind="stable")[:2]
            if order.size < 2:
                order = np.array([0, 0])
            top_segments[layer][lang] = (int(order[0]) + 1, int(order[1]) + 1)

    return RoutingReport(
        layers=layers,
        languages=languages,
        num_token_experts=n_tok,
        num_segment_experts=n_seg,
        positions_per_sample=max(positions, 1),
        token_freq=token_freq,
        segment_freq=segment_freq,
        top_segments=top_segments,
    )
