"""Run orchestration: corpus in, checkpoints + JSONL metrics + reports out.

A run directory accumulates ``metrics.jsonl`` (one record per step; a
resumed run first drops the records from its start step on),
periodic ``step_N.ckpt`` snapshots, a ``final.ckpt``, a per-language
``perplexity.json``, and — for hybrid models — the routing report files.
Resuming from a snapshot replays the identical remaining steps because
batches are derived from (seed, step) alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import checkpoint as ckpt_io
from .analytics import evaluate_perplexity, routing_analytics
from .config import RunSettings
from .corpus import language_streams, load_corpus, mixing_weights, sample_batch
from .dense import DenseConfig, init_dense
from .hybrid import HybridCheckpoint
from .training import TrainConfig, training_step, write_metrics_line


def _load_model(settings: RunSettings):
    if settings.init_checkpoint:
        model = ckpt_io.load(settings.init_checkpoint)
        kind = "hybrid" if isinstance(model, HybridCheckpoint) else "dense"
        if kind != settings.model:
            raise ValueError(
                f"config says model={settings.model} but {settings.init_checkpoint} is {kind}"
            )
        return model
    return init_dense(settings.build(DenseConfig), seed=settings.init_seed)


def _truncate_metrics(path: Path, start_step: int) -> None:
    """Keep only the records of steps before ``start_step``.

    A run resumed from ``step_k.ckpt`` then writes every later step exactly
    once, however far the interrupted run got. A torn last line (a crash in
    mid-write) is dropped; a malformed line anywhere else is an error.
    """
    if not path.exists():
        return
    lines = path.read_text().splitlines()
    kept = []
    for lineno, line in enumerate(lines, start=1):
        try:
            step = json.loads(line)["step"]
        except (json.JSONDecodeError, KeyError, TypeError):
            if lineno == len(lines):
                break
            raise ValueError(f"{path}:{lineno}: malformed metrics record {line!r}") from None
        if step < start_step:
            kept.append(line + "\n")
    path.write_text("".join(kept))


def train_run(settings: RunSettings, quiet: bool = False) -> dict:
    """Execute one training run per the settings; returns a summary dict."""
    corpus_dir = Path(settings.corpus_dir)
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    train_streams = language_streams(load_corpus(corpus_dir / "train.tsv"))
    heldout_streams = language_streams(load_corpus(corpus_dir / "heldout.tsv"))
    languages = settings.languages() or sorted(train_streams)
    missing = [n for n in languages if n not in train_streams]
    if missing:
        raise ValueError(f"languages not in corpus: {missing}")
    weights = mixing_weights(languages, manifest)

    model = _load_model(settings)
    if settings.seq_len > model.config.max_seq_len:
        raise ValueError(
            f"seq_len {settings.seq_len} exceeds checkpoint max_seq_len {model.config.max_seq_len}"
        )
    train_cfg = settings.build(TrainConfig)

    out_dir = Path(settings.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    start_step = int(model.meta.get("step", 0))
    _truncate_metrics(metrics_path, start_step)

    for step in range(start_step, settings.steps):
        samples, targets, _ = sample_batch(
            train_streams, weights, settings.seq_len, settings.batch_size, settings.seed, step
        )
        report = training_step(model, samples, targets, train_cfg, step)
        model.meta["step"] = step + 1
        write_metrics_line(metrics_path, report, step)
        if not quiet and (step % 25 == 0 or step == settings.steps - 1):
            print(f"step {step:5d}  ntp {report.l_ntp:.4f}  balance {report.l_balance:.6f}")
        if (step + 1) % settings.checkpoint_every == 0 and step + 1 < settings.steps:
            ckpt_io.save(model, out_dir / f"step_{step + 1}.ckpt")

    final_path = out_dir / "final.ckpt"
    ckpt_io.save(model, final_path)

    ppl = evaluate_perplexity(
        model, heldout_streams, languages, settings.seq_len, settings.eval_blocks
    )
    (out_dir / "perplexity.json").write_text(json.dumps(ppl, indent=2) + "\n")

    summary = {
        "final_checkpoint": str(final_path),
        "metrics": str(metrics_path),
        "steps": settings.steps,
        "perplexity": ppl,
    }
    if isinstance(model, HybridCheckpoint):
        report = routing_analytics(
            model, heldout_streams, languages, settings.seq_len, settings.eval_blocks
        )
        report.save(out_dir / "routing")
        summary["routing_report"] = str(out_dir / "routing")
    return summary
