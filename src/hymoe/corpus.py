"""Synthetic multi-mini-language corpus: the desk stand-in for real code.

Each mini-language is a small stochastic grammar over token ids. All
languages share one sub-alphabet — identifiers, numbers, operators, paired
delimiters, statement punctuation — and differ in their disjoint keyword ids
and production statistics. Delimiters are always emitted in matched pairs,
so every sample is balanced by construction.

Corpus files are TSV: one sample per line, ``<lang>\\t<id id id ...>``.
Generation is quota-driven per language so the realized low:high token ratio
lands within a sample's length of the requested one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

PAD_ID = 0
OPEN_PAREN, CLOSE_PAREN = 1, 2
OPEN_BRACE, CLOSE_BRACE = 3, 4
STMT_END = 5
COMMA = 6
ASSIGN = 7
OPERATORS = (8, 9, 10, 11)
IDENTIFIERS = tuple(range(12, 44))
NUMBERS = tuple(range(44, 60))
KEYWORD_BASE = 64
KEYWORDS_PER_LANGUAGE = 6

DELIMITER_PAIRS = {OPEN_PAREN: CLOSE_PAREN, OPEN_BRACE: CLOSE_BRACE}


@dataclass(frozen=True)
class MiniLanguage:
    """A named grammar flavor; keywords are its private alphabet slice."""

    name: str
    resource_class: str  # "high" | "low"
    keywords: tuple[int, ...]
    block_prob: float = 0.3
    call_prob: float = 0.25
    nest_prob: float = 0.3
    op_weights: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self):
        if self.resource_class not in ("high", "low"):
            raise ValueError(f"resource_class must be 'high' or 'low', got {self.resource_class!r}")
        if len(self.keywords) < 5:
            raise ValueError("a language needs at least 5 keywords")

    @property
    def max_token_id(self) -> int:
        return max(self.keywords)


def default_languages(num_high: int = 1, num_low: int = 1) -> list[MiniLanguage]:
    """The stock language set: high-resource first, then low-resource."""
    styles = [
        dict(block_prob=0.38, call_prob=0.20, nest_prob=0.35, op_weights=(0.55, 0.25, 0.1, 0.1)),
        dict(block_prob=0.18, call_prob=0.42, nest_prob=0.2, op_weights=(0.1, 0.15, 0.55, 0.2)),
        dict(block_prob=0.3, call_prob=0.3, nest_prob=0.45, op_weights=(0.2, 0.5, 0.15, 0.15)),
        dict(block_prob=0.25, call_prob=0.15, nest_prob=0.15, op_weights=(0.15, 0.1, 0.25, 0.5)),
    ]
    high_names = ("major", "column", "brace")
    low_names = ("minor", "ember", "quill")
    if num_high > len(high_names) or num_low > len(low_names):
        raise ValueError("stock language registry supports up to 3 languages per class")
    langs: list[MiniLanguage] = []
    index = 0
    for i in range(num_high):
        kw = tuple(KEYWORD_BASE + index * 8 + j for j in range(KEYWORDS_PER_LANGUAGE))
        langs.append(MiniLanguage(high_names[i], "high", kw, **styles[index % len(styles)]))
        index += 1
    for i in range(num_low):
        kw = tuple(KEYWORD_BASE + index * 8 + j for j in range(KEYWORDS_PER_LANGUAGE))
        langs.append(MiniLanguage(low_names[i], "low", kw, **styles[index % len(styles)]))
        index += 1
    return langs


@dataclass(frozen=True)
class CorpusManifest:
    """Token budget and the low:high mixing ratio (9:1 by default)."""

    total_tokens: int = 200_000
    low_fraction: float = 0.9
    heldout_fraction: float = 0.1

    def __post_init__(self):
        if not 0 < self.low_fraction < 1:
            raise ValueError("low_fraction must be in (0, 1)")
        if not 0 < self.heldout_fraction < 1:
            raise ValueError("heldout_fraction must be in (0, 1)")
        if self.total_tokens < 1000:
            raise ValueError("total_tokens must be >= 1000")


# ---------------------------------------------------------------------------
# grammar


def _operand(lang: MiniLanguage, rng: np.random.Generator) -> int:
    pool = IDENTIFIERS if rng.random() < 0.7 else NUMBERS
    return int(pool[rng.integers(len(pool))])


def _operator(lang: MiniLanguage, rng: np.random.Generator) -> int:
    return int(rng.choice(OPERATORS, p=np.asarray(lang.op_weights) / sum(lang.op_weights)))


def _expr(lang: MiniLanguage, rng: np.random.Generator, depth: int) -> list[int]:
    if depth > 0 and rng.random() < lang.nest_prob:
        out = [OPEN_PAREN, *_expr(lang, rng, depth - 1), CLOSE_PAREN]
    else:
        out = [_operand(lang, rng)]
    if rng.random() < 0.55:
        out += [_operator(lang, rng), _operand(lang, rng)]
    return out


def _call(lang: MiniLanguage, rng: np.random.Generator) -> list[int]:
    kw_call = lang.keywords[1]
    args: list[int] = []
    for j in range(int(rng.integers(1, 4))):
        if j:
            args.append(COMMA)
        args.append(_operand(lang, rng))
    return [kw_call, OPEN_PAREN, *args, CLOSE_PAREN, STMT_END]


def _statement(lang: MiniLanguage, rng: np.random.Generator, depth: int) -> list[int]:
    roll = rng.random()
    if roll < lang.block_prob and depth > 0:
        kw_block = lang.keywords[2]
        cond = [_operand(lang, rng), _operator(lang, rng), _operand(lang, rng)]
        body: list[int] = []
        for _ in range(int(rng.integers(1, 3))):
            body += _statement(lang, rng, depth - 1)
        return [kw_block, OPEN_PAREN, *cond, CLOSE_PAREN, OPEN_BRACE, *body, CLOSE_BRACE]
    if roll < lang.block_prob + lang.call_prob:
        return _call(lang, rng)
    kw_decl = lang.keywords[0]
    ident = int(IDENTIFIERS[rng.integers(len(IDENTIFIERS))])
    return [kw_decl, ident, ASSIGN, *_expr(lang, rng, depth), STMT_END]


def sample_tokens(lang: MiniLanguage, rng: np.random.Generator, target_len: int = 80) -> list[int]:
    """One program: a header line followed by statements until the target length."""
    kw_header, kw_end = lang.keywords[3], lang.keywords[4]
    toks: list[int] = [kw_header, _operand(lang, rng), STMT_END]
    while len(toks) < target_len:
        toks += _statement(lang, rng, depth=2)
    toks.append(kw_end)
    return toks


# ---------------------------------------------------------------------------
# corpus files


def generate_corpus(
    languages: Sequence[MiniLanguage],
    manifest: CorpusManifest,
    seed: int,
    out_dir: str | Path,
    vocab_size: int = 512,
) -> dict:
    """Write train.tsv / heldout.tsv / manifest.json; returns realized stats."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    max_id = max(lang.max_token_id for lang in languages)
    if max_id >= vocab_size:
        raise ValueError(f"alphabet overflows vocabulary: max id {max_id} >= vocab {vocab_size}")
    by_class: dict[str, list[MiniLanguage]] = {"high": [], "low": []}
    for lang in languages:
        by_class[lang.resource_class].append(lang)
    if not by_class["high"] or not by_class["low"]:
        raise ValueError("need at least one high- and one low-resource language")

    stats: dict[str, dict] = {}
    train_lines: list[str] = []
    heldout_lines: list[str] = []
    for li, lang in enumerate(languages):
        class_fraction = manifest.low_fraction if lang.resource_class == "low" else 1 - manifest.low_fraction
        quota = int(manifest.total_tokens * class_fraction / len(by_class[lang.resource_class]))
        rng = np.random.default_rng([seed, li])
        samples: list[list[int]] = []
        tokens = 0
        while tokens < quota:
            length = int(rng.integers(48, 120))
            toks = sample_tokens(lang, rng, target_len=length)
            samples.append(toks)
            tokens += len(toks)
        n_heldout = max(1, int(len(samples) * manifest.heldout_fraction))
        heldout, train = samples[:n_heldout], samples[n_heldout:]
        for split_lines, split in ((train_lines, train), (heldout_lines, heldout)):
            for toks in split:
                split_lines.append(f"{lang.name}\t{' '.join(map(str, toks))}")
        stats[lang.name] = {
            "resource_class": lang.resource_class,
            "samples": len(samples),
            "tokens": tokens,
            "train_samples": len(train),
            "heldout_samples": len(heldout),
        }

    (out_dir / "train.tsv").write_text("\n".join(train_lines) + "\n")
    (out_dir / "heldout.tsv").write_text("\n".join(heldout_lines) + "\n")
    realized = {
        "seed": seed,
        "vocab_size": vocab_size,
        "total_tokens": manifest.total_tokens,
        "low_fraction": manifest.low_fraction,
        "heldout_fraction": manifest.heldout_fraction,
        "languages": stats,
    }
    (out_dir / "manifest.json").write_text(json.dumps(realized, indent=2) + "\n")
    return realized


def load_corpus(path: str | Path) -> list[tuple[str, list[int]]]:
    lines: list[tuple[str, list[int]]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<lang>\\t<ids>', got {raw!r}")
        tag, ids = fields
        try:
            lines.append((tag, [int(tok) for tok in ids.split()]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: token ids must be integers, got {ids!r}") from None
    return lines


def language_streams(lines: Sequence[tuple[str, list[int]]]) -> dict[str, np.ndarray]:
    """Concatenate each language's samples into one id stream."""
    streams: dict[str, list[int]] = {}
    for tag, ids in lines:
        streams.setdefault(tag, []).extend(ids)
    return {tag: np.asarray(ids, dtype=np.int64) for tag, ids in streams.items()}


def mixing_weights(
    languages: Sequence[str], manifest: dict, low_fraction: float | None = None
) -> dict[str, float]:
    """Language sampling weights: class mass split evenly inside each class."""
    low_frac = manifest.get("low_fraction", 0.9) if low_fraction is None else low_fraction
    classes = {name: manifest["languages"][name]["resource_class"] for name in languages}
    n_low = sum(1 for c in classes.values() if c == "low")
    n_high = len(classes) - n_low
    weights = {}
    for name, cls in classes.items():
        if n_low == 0:
            weights[name] = 1.0 / n_high
        elif n_high == 0:
            weights[name] = 1.0 / n_low
        else:
            weights[name] = (low_frac / n_low) if cls == "low" else ((1 - low_frac) / n_high)
    total = sum(weights.values())
    return {name: w / total for name, w in weights.items()}


def sample_batch(
    streams: dict[str, np.ndarray],
    weights: dict[str, float],
    seq_len: int,
    batch_size: int,
    seed: int,
    step: int,
) -> tuple[list[np.ndarray], list[np.ndarray], list[str]]:
    """Deterministic batch for (seed, step): cyclic windows from language streams."""
    rng = np.random.default_rng([seed, step])
    names = sorted(weights)
    probs = np.asarray([weights[n] for n in names])
    probs = probs / probs.sum()
    samples, targets, langs = [], [], []
    for _ in range(batch_size):
        name = str(rng.choice(names, p=probs))
        stream = streams[name]
        start = int(rng.integers(len(stream)))
        window = np.take(stream, np.arange(start, start + seq_len + 1), mode="wrap")
        samples.append(window[:-1])
        targets.append(window[1:])
        langs.append(name)
    return samples, targets, langs


def eval_blocks(stream: np.ndarray, seq_len: int, n_blocks: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Fixed, non-overlapping evaluation windows (wrapping if the stream is short)."""
    samples, targets = [], []
    for i in range(n_blocks):
        start = i * (seq_len + 1)
        window = np.take(stream, np.arange(start, start + seq_len + 1), mode="wrap")
        samples.append(window[:-1])
        targets.append(window[1:])
    return samples, targets
