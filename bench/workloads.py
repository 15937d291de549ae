"""The three hymoe benchmark workloads, their shared set-up and their checks.

Every workload runs in its own process and starts with the same set-up, which
walks the whole pipeline once: corpus -> dense checkpoint saved and loaded ->
upcycle -> hybrid checkpoint saved and loaded -> fidelity check -> warm-up
training steps -> a small held-out eval and routing report. The warm-up moves
the routers and ``fuse_seg`` off their zero initialisation, and the walk makes
every layer run at least once in every process, so each per-layer metric has a
measured value on every workload. Set-up runs ``SETUP_REPEATS`` times and
``setup_s`` is the median.

The measured phase is a closed loop with one caller: the next operation starts
when the previous one has returned, until ``seconds`` have passed.

* ``train_desk``  one op = ``sample_batch`` + ``training_step`` at desk shape.
* ``eval_heldout`` one op = ``evaluate_perplexity`` at the short and the long
  length over both languages, then ``routing_analytics``.
* ``lifecycle``   one op = ``upcycle`` -> ``save`` -> ``load`` -> bitwise
  comparison, five times each, -> ``fidelity_check``.

An untraced run then takes a side pass through the other two kinds, so that
every run reports every end-to-end metric (``run_side``).

hymoe only ever receives generated inputs; the workload seed is turned into
the corpus seed, the init seed, the batch seed and the probe seed here.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from tracer import Tracer, median_or_zero, reachable_nodes


def _mod(name: str):
    # ``hymoe.upcycle`` is rebound to the function by the package __init__,
    # so modules are always fetched from the import system.
    return importlib.import_module(f"hymoe.{name}")


SETUP_REPEATS = 3
GATE_TOL = 1e-12
FIDELITY_TOL = 1e-9

SIZES = {
    # The desk shape of the project roadmap: B=8, T=256, hidden 64, 4 layers,
    # 6 token experts (top-2) and 6 segment experts (window 32, c=1).
    "desk": dict(
        dense=dict(vocab_size=512, hidden_size=64, num_layers=4, ffn_hidden=256,
                   num_heads=2, max_seq_len=256),
        tok_experts=6, top_k=2, seg_experts=6, window=32, capacity=1.0,
        batch=8, seq_len=256, corpus_tokens=200_000, warmup_steps=5,
        eval_short=32, eval_long=256, eval_blocks=8, routing_batch=4,
        probes=32, setup_probes=4, setup_blocks=2,
    ),
    # A few-second version used by the self-check only.
    "tiny": dict(
        dense=dict(vocab_size=128, hidden_size=16, num_layers=2, ffn_hidden=32,
                   num_heads=2, max_seq_len=32),
        tok_experts=4, top_k=2, seg_experts=3, window=8, capacity=1.0,
        batch=2, seq_len=32, corpus_tokens=6_000, warmup_steps=2,
        eval_short=8, eval_long=32, eval_blocks=2, routing_batch=2,
        probes=4, setup_probes=2, setup_blocks=1,
    ),
}

END_TO_END = {
    "train_desk": ("train_tokens_per_s", "train_step_ms_p50", "train_step_ms_tail"),
    "eval_heldout": ("eval_t32_tokens_per_s", "eval_t256_tokens_per_s", "analyze_s"),
    "lifecycle": ("upcycle_ms", "ckpt_save_ms", "ckpt_load_ms", "verify_s"),
}
WORKLOADS = tuple(END_TO_END)


# ---------------------------------------------------------------------------
# correctness checks


def params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        p = params[name]
        h.update(name.encode())
        h.update(str(p.data.shape).encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def bitwise_equal(saved: dict, loaded: dict) -> bool:
    if sorted(saved) != sorted(loaded):
        return False
    for name, p in saved.items():
        q = loaded[name]
        if (p.trainable != q.trainable or p.data.dtype != q.data.dtype
                or p.data.shape != q.data.shape or p.data.tobytes() != q.data.tobytes()):
            return False
    return True


class ForwardChecks:
    """Checks every hybrid forward's routing trace as it is returned.

    Each layer's token gates must sum to 1 within ``GATE_TOL`` and each segment
    expert must hold exactly r = max(floor(V * c / N), 1) distinct segments.
    Only verdicts are kept, never the trace, so no tape outlives its forward.
    """

    def __init__(self, seg_cfg):
        self.seg_cfg = seg_cfg
        self.failures: list[str] = []

    def wrap(self, fn):
        def checked(*args, **kwargs):
            logits, trace = fn(*args, **kwargs)
            self.inspect(trace)
            return logits, trace

        checked.__wrapped__ = fn
        return checked

    def inspect(self, trace) -> None:
        total = trace.plan.total_segments
        n = self.seg_cfg.num_experts
        r = max(int(total * self.seg_cfg.capacity_factor) // n, 1) if total else 0
        for layer, lt in enumerate(trace.layers):
            dev = float(np.abs(lt.gates.gates.data.sum(axis=1) - 1.0).max())
            if not dev <= GATE_TOL:
                self.failures.append(f"layer {layer}: gate sum off by {dev:.3e}")
            sa = lt.segment_assign
            if sa is None:
                continue
            rows = np.sort(sa.indices, axis=1)
            if (rows.shape != (n, r) or rows.min() < 0 or rows.max() >= total
                    or (r > 1 and not (np.diff(rows, axis=1) > 0).all())):
                self.failures.append(f"layer {layer}: expert loads are not exactly r={r}")

    def take(self) -> list[str]:
        out, self.failures = self.failures, []
        return out


# ---------------------------------------------------------------------------
# trace targets: (module, attribute, span name, before, after)


def _count_backward(tr, args, _):
    tr.count("tensor.tape_nodes", reachable_nodes([args[0]]))


def _start_eval_roots(tr, _):
    tr.loss_roots = []


def _count_eval_roots(tr, args, _):
    if tr.loss_roots:
        tr.count("tensor.tape_nodes", reachable_nodes(tr.loss_roots))
    tr.loss_roots = None


def _keep_eval_root(tr, args, result):
    if tr.loss_roots is not None:
        tr.loss_roots.append(result)


def _count_hybrid(tr, args, result):
    plan = result[1].plan
    tr.count("hybrid.real_rows", result[1].real_rows.size)
    tr.count("hybrid.rows", plan.batch_size * plan.row_stride)
    tr.count("segment_moe.leftover_tokens", sum(end - start for _, start, end in plan.leftover))


def _count_token_rows(tr, args, _):
    tr.count("token_moe.rows_dispatched", args[2].indices.size)


def _count_unpicked(tr, args, _):
    total = args[2].shape[0]
    tr.count("segment_moe.unpicked", total - np.unique(args[1].indices).size)
    tr.count("segment_moe.segments", total)


def _count_bytes(tr, args, _):
    tr.count("checkpoint.bytes", os.path.getsize(args[1]))


def trace_targets() -> list[tuple]:
    hybrid, dense, training = _mod("hybrid"), _mod("dense"), _mod("training")
    analytics, corpus, checkpoint, upcycle = (
        _mod("analytics"), _mod("corpus"), _mod("checkpoint"), _mod("upcycle"))
    return [
        # calls the benchmark makes
        (corpus, "generate_corpus", "corpus.generate", None, None),
        (corpus, "sample_batch", "corpus.sample_batch", None, None),
        (checkpoint, "save", "checkpoint.save", None, _count_bytes),
        (checkpoint, "load", "checkpoint.load", None, None),
        (upcycle, "upcycle", "upcycle.upcycle", None, None),
        (upcycle, "fidelity_check", "upcycle.fidelity", None, None),
        (training, "training_step", "training.step", None, None),
        (analytics, "evaluate_perplexity", "analytics.perplexity", None, None),
        (analytics, "routing_analytics", "analytics.routing", None, None),
        # calls between hymoe modules, wrapped where the caller looks them up
        (analytics, "evaluate_loss", "analytics.eval_loss", _start_eval_roots, _count_eval_roots),
        (training, "hybrid_forward_batch", "hybrid.forward", None, _count_hybrid),
        (analytics, "hybrid_forward_batch", "hybrid.forward", None, _count_hybrid),
        (hybrid, "hybrid_forward_batch", "hybrid.forward", None, _count_hybrid),
        (upcycle, "dense_forward", "dense.forward", None, None),
        (training, "ntp_loss", "losses.ntp", None, _keep_eval_root),
        (training, "load_balance_loss", "losses.balance", None, None),
        (training, "backward", "tensor.backward", None, _count_backward),
        (hybrid, "attention", "dense.attention", None, None),
        (dense, "attention", "dense.attention", None, None),
        (hybrid, "rmsnorm", "dense.rmsnorm", None, None),
        (dense, "rmsnorm", "dense.rmsnorm", None, None),
        (hybrid, "head_logits_flat", "dense.head", None, None),
        (dense, "head_logits", "dense.head", None, None),
        (hybrid, "token_affinity_scores", "token_moe.route", None, None),
        (hybrid, "compute_token_gates", "token_moe.route", None, None),
        (hybrid, "token_moe_forward", "token_moe.forward", None, _count_token_rows),
        (hybrid, "embed_segments", "segment_moe.embed", None, None),
        (hybrid, "expert_choice_route", "segment_moe.route", None, None),
        (hybrid, "segment_moe_forward", "segment_moe.forward", None, _count_unpicked),
        (hybrid, "fuse_layer_outputs", "segment_moe.fuse", None, None),
    ]


# per-layer metric -> (kind, source, scale, unit)
PER_LAYER = {
    "tensor.backward_ms": ("time", "tensor.backward", 1e-6, "ms"),
    "tensor.tape_nodes": ("count", "tensor.tape_nodes", 1, "count"),
    "dense.attention_ms": ("time", "dense.attention", 1e-6, "ms"),
    "dense.rmsnorm_ms": ("time", "dense.rmsnorm", 1e-6, "ms"),
    "dense.head_ms": ("time", "dense.head", 1e-6, "ms"),
    "dense.forward_ms": ("time", "dense.forward", 1e-6, "ms"),
    "hybrid.forward_ms": ("time", "hybrid.forward", 1e-6, "ms"),
    "hybrid.self_ms": ("self", "hybrid.forward", 1e-6, "ms"),
    "hybrid.real_row_frac": ("ratio", ("hybrid.real_rows", "hybrid.rows"), 1, "ratio"),
    "token_moe.route_ms": ("time", "token_moe.route", 1e-6, "ms"),
    "token_moe.forward_ms": ("time", "token_moe.forward", 1e-6, "ms"),
    "token_moe.rows_dispatched": ("count_sum", "token_moe.rows_dispatched", 1, "count"),
    "segment_moe.embed_ms": ("time", "segment_moe.embed", 1e-6, "ms"),
    "segment_moe.route_ms": ("time", "segment_moe.route", 1e-6, "ms"),
    "segment_moe.forward_ms": ("time", "segment_moe.forward", 1e-6, "ms"),
    "segment_moe.fuse_ms": ("time", "segment_moe.fuse", 1e-6, "ms"),
    "segment_moe.unpicked_frac": (
        "ratio", ("segment_moe.unpicked", "segment_moe.segments"), 1, "ratio"),
    "segment_moe.leftover_tokens": ("count_sum", "segment_moe.leftover_tokens", 1, "count"),
    "losses.ntp_ms": ("time", "losses.ntp", 1e-6, "ms"),
    "losses.balance_ms": ("time", "losses.balance", 1e-6, "ms"),
    "training.step_ms": ("time", "training.step", 1e-6, "ms"),
    "training.update_self_ms": ("self", "training.step", 1e-6, "ms"),
    "corpus.sample_batch_ms": ("time", "corpus.sample_batch", 1e-6, "ms"),
    "corpus.generate_s": ("time", "corpus.generate", 1e-9, "s"),
    "checkpoint.save_ms": ("time", "checkpoint.save", 1e-6, "ms"),
    "checkpoint.load_ms": ("time", "checkpoint.load", 1e-6, "ms"),
    "checkpoint.bytes": ("count_sum", "checkpoint.bytes", 1, "bytes"),
    "upcycle.upcycle_ms": ("time", "upcycle.upcycle", 1e-6, "ms"),
    "upcycle.fidelity_ms": ("time", "upcycle.fidelity", 1e-6, "ms"),
    "analytics.perplexity_ms": ("time", "analytics.perplexity", 1e-6, "ms"),
    "analytics.routing_ms": ("time", "analytics.routing", 1e-6, "ms"),
}


def per_layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Median over operations of: the summed span time in the operation
    (times, ``count_sum``) or a ratio of two such sums (``ratio``). Plain
    counts: median over the calls that produced them."""
    out = {}
    for metric, (kind, source, scale, unit) in PER_LAYER.items():
        if kind == "count":
            values = tr.count_values(source)
        elif kind == "count_sum":
            values = tr.per_step_counts(source)
        elif kind == "ratio":
            values = tr.per_step_ratios(*source)
        else:
            values = tr.per_step(source, self_time=(kind == "self"))
        out[metric] = (median_or_zero(values) * scale, unit)
    return out


# ---------------------------------------------------------------------------
# set-up


@dataclass
class State:
    size: dict
    seeds: dict
    workdir: Path
    tok_cfg: object
    seg_cfg: object
    train_cfg: object
    train: dict
    heldout: dict
    weights: dict
    dense: object
    hybrid: object


def derive_seeds(seed: int) -> dict:
    corpus_seed, init_seed, batch_seed, probe_seed = (
        int(v) for v in np.random.default_rng(seed).integers(0, 2**31 - 1, size=4))
    return dict(corpus=corpus_seed, init=init_seed, batch=batch_seed, probe=probe_seed)


class SetupError(RuntimeError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SetupError(what)


def model_configs(size: dict) -> tuple:
    hidden = size["dense"]["hidden_size"]
    return (
        _mod("token_moe").TokenMoEConfig(size["tok_experts"], size["top_k"], hidden),
        _mod("segment_moe").SegmentMoEConfig(
            size["seg_experts"], size["window"], size["capacity"], hidden),
    )


def setup_once(workload: str, size: dict, seeds: dict, workdir: Path, tr: Tracer | None) -> State:
    corpus, checkpoint, training, upcycle, analytics, dense_mod = (
        _mod(n) for n in ("corpus", "checkpoint", "training", "upcycle", "analytics", "dense"))
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    def stage():
        if tr is not None:
            tr.begin_step("setup")

    stage()
    stats = corpus.generate_corpus(
        corpus.default_languages(), corpus.CorpusManifest(total_tokens=size["corpus_tokens"]),
        seeds["corpus"], workdir / "corpus", vocab_size=size["dense"]["vocab_size"])
    train = corpus.language_streams(corpus.load_corpus(workdir / "corpus" / "train.tsv"))
    heldout = corpus.language_streams(corpus.load_corpus(workdir / "corpus" / "heldout.tsv"))
    weights = corpus.mixing_weights(sorted(train), stats)

    stage()
    tok_cfg, seg_cfg = model_configs(size)
    made = dense_mod.init_dense(dense_mod.DenseConfig(**size["dense"]), seed=seeds["init"])
    checkpoint.save(made, workdir / "dense.ckpt")
    dense = checkpoint.load(workdir / "dense.ckpt")
    _require(bitwise_equal(made.params, dense.params), "dense checkpoint did not round-trip")
    fresh = upcycle.upcycle(dense, tok_cfg, seg_cfg)
    checkpoint.save(fresh, workdir / "hybrid.ckpt")
    hybrid = checkpoint.load(workdir / "hybrid.ckpt")
    _require(bitwise_equal(fresh.params, hybrid.params), "hybrid checkpoint did not round-trip")
    worst = upcycle.fidelity_check(dense, hybrid, probes=size["setup_probes"], seed=seeds["probe"])
    _require(worst <= FIDELITY_TOL, f"set-up fidelity {worst:.3e} > {FIDELITY_TOL}")

    # train_desk warms up at its own batch; the other workloads use batch 1 so
    # that their peak memory is set by their own measured phase.
    warm_batch = size["batch"] if workload == "train_desk" else 1
    train_cfg = training.TrainConfig(
        batch_size=size["batch"], seq_len=size["seq_len"], learning_rate=0.05, alpha=0.01,
        steps=1_000_000, seed=seeds["batch"])
    for step in range(size["warmup_steps"]):
        stage()
        samples, targets, _ = corpus.sample_batch(
            train, weights, size["seq_len"], warm_batch, seeds["batch"], step)
        report = training.training_step(hybrid, samples, targets, train_cfg, step)
        _require(math.isfinite(report.total), f"warm-up step {step}: non-finite loss")

    stage()
    ppl = analytics.evaluate_perplexity(
        hybrid, heldout, seq_len=size["eval_short"], n_blocks=size["setup_blocks"])
    _require(all(math.isfinite(v) for v in ppl.values()), f"set-up perplexity not finite: {ppl}")
    analytics.routing_analytics(hybrid, heldout, seq_len=size["eval_long"],
                                n_blocks=size["setup_blocks"], batch_size=size["routing_batch"])
    return State(size, seeds, workdir, tok_cfg, seg_cfg, train_cfg, train, heldout, weights,
                 dense, hybrid)


# ---------------------------------------------------------------------------
# operations; each returns ({timing key: [seconds, ...]}, [failed checks])

# upcycle, save and load take a few ms each; each lifecycle op runs them this
# many times and keeps the fastest (see op_lifecycle).
LIFECYCLE_REPEATS = 5


def op_train(st: State, k: int) -> tuple[dict, list[str]]:
    corpus, training = _mod("corpus"), _mod("training")
    step = st.size["warmup_steps"] + k
    t0 = time.perf_counter()
    samples, targets, _ = corpus.sample_batch(
        st.train, st.weights, st.size["seq_len"], st.size["batch"], st.seeds["batch"], step)
    t1 = time.perf_counter()
    report = training.training_step(st.hybrid, samples, targets, st.train_cfg, step)
    t2 = time.perf_counter()
    bad = [] if math.isfinite(report.total) else [f"step {step}: loss {report.total!r}"]
    return {"step": [t2 - t1], "step_with_data": [t2 - t0]}, bad


def op_eval(st: State, k: int) -> tuple[dict, list[str]]:
    analytics, size = _mod("analytics"), st.size
    times, bad = {}, []
    for key, seq_len in (("short", size["eval_short"]), ("long", size["eval_long"])):
        t0 = time.perf_counter()
        ppl = analytics.evaluate_perplexity(
            st.hybrid, st.heldout, seq_len=seq_len, n_blocks=size["eval_blocks"])
        times[key] = [time.perf_counter() - t0]
        if sorted(ppl) != sorted(st.heldout) or not all(
                math.isfinite(v) and v > 0 for v in ppl.values()):
            bad.append(f"perplexity at T={seq_len} not finite: {ppl}")
    t0 = time.perf_counter()
    report = analytics.routing_analytics(
        st.hybrid, st.heldout, seq_len=size["eval_long"], n_blocks=size["eval_blocks"],
        batch_size=size["routing_batch"])
    times["analyze"] = [time.perf_counter() - t0]
    for layer, freq in report.token_freq.items():
        if not np.allclose(freq.sum(axis=1), 1.0, rtol=0, atol=1e-9):
            bad.append(f"routing report layer {layer}: token frequencies do not sum to 1")
    return times, bad


def op_lifecycle(st: State, k: int) -> tuple[dict, list[str]]:
    """Upcycle, save, load and bitwise-compare ``LIFECYCLE_REPEATS`` times, then
    verify. The op reports the fastest upcycle, save and load: on a shared ext4
    disk a save now and then takes ~2.7 ms longer, in streaks that can cover
    half the saves of a run, and the fastest of five times the serialization
    instead."""
    checkpoint, upcycle = _mod("checkpoint"), _mod("upcycle")
    times: dict[str, list[float]] = {"upcycle": [], "save": [], "load": []}
    bad = []
    for _ in range(LIFECYCLE_REPEATS):
        t0 = time.perf_counter()
        hybrid = upcycle.upcycle(st.dense, st.tok_cfg, st.seg_cfg)
        times["upcycle"].append(time.perf_counter() - t0)
    # A fresh file name per save: rewriting an existing file in place makes
    # ext4 flush it on close, which would time the disk, not the serializer.
    paths = [st.workdir / f"lifecycle_{k}_{r}.ckpt" for r in range(LIFECYCLE_REPEATS)]
    for path in paths:
        t0 = time.perf_counter()
        checkpoint.save(hybrid, path)
        times["save"].append(time.perf_counter() - t0)
    for path in paths:
        t0 = time.perf_counter()
        loaded = checkpoint.load(path)
        times["load"].append(time.perf_counter() - t0)
        if not bitwise_equal(hybrid.params, loaded.params):
            bad.append(f"op {k}: {path.name} loaded parameters differ from the saved ones")
        path.unlink()
    times = {key: [min(values)] for key, values in times.items()}
    t0 = time.perf_counter()
    worst = upcycle.fidelity_check(
        st.dense, loaded, probes=st.size["probes"], seed=st.seeds["probe"])
    times["verify"] = [time.perf_counter() - t0]
    if not worst <= FIDELITY_TOL:
        bad.append(f"op {k}: fidelity {worst:.3e} > {FIDELITY_TOL}")
    return times, bad


OPS = {"train_desk": op_train, "eval_heldout": op_eval, "lifecycle": op_lifecycle}
# After the measured loop, SIDE_ROUNDS rounds of the other two kinds run in
# turn, so that every run reports every end-to-end metric. Taking them in
# turn spreads each kind's samples over the whole side pass, so one burst of
# load from elsewhere on the machine cannot move all of them.
SIDE_ROUNDS = 7
SIDE_PER_ROUND = {"train_desk": 4, "eval_heldout": 1, "lifecycle": 1}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least ten samples above it:
    (value, its percentile, sample count). Below 21 samples, where that would
    sit at or under the median, it is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n >= 21 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def kind_metrics(kind: str, st: State, samples: dict, extra: dict) -> dict:
    """End-to-end metrics of one kind of operation from its passed operations
    (NaN when none passed; the run then reports failures)."""
    med = defaultdict(lambda: math.nan, {key: float(median(v)) for key, v in samples.items() if v})
    if kind == "train_desk":
        value, pct, n = tail(samples["step"]) if samples["step"] else (math.nan, math.nan, 0)
        extra["train_step_ms_tail"] = {"percentile": pct, "samples": n}
        tokens = st.size["batch"] * st.size["seq_len"]
        return {
            "train_tokens_per_s": (tokens / med["step_with_data"], "tok/s"),
            "train_step_ms_p50": (med["step"] * 1e3, "ms"),
            "train_step_ms_tail": (value * 1e3, "ms"),
        }
    if kind == "eval_heldout":
        per_len = len(st.heldout) * st.size["eval_blocks"]
        return {
            "eval_t32_tokens_per_s": (per_len * st.size["eval_short"] / med["short"], "tok/s"),
            "eval_t256_tokens_per_s": (per_len * st.size["eval_long"] / med["long"], "tok/s"),
            "analyze_s": (med["analyze"], "s"),
        }
    return {
        "upcycle_ms": (med["upcycle"] * 1e3, "ms"),
        "ckpt_save_ms": (med["save"] * 1e3, "ms"),
        "ckpt_load_ms": (med["load"] * 1e3, "ms"),
        "verify_s": (med["verify"], "s"),
    }


# ---------------------------------------------------------------------------
# running a workload


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            self.failures.extend(bad[:3])


def attempt(op, st: State, k: int, checks: ForwardChecks, tally: Tally,
            samples: dict | None) -> float | None:
    """Run one operation and its checks; its wall time if it passed.
    ``samples`` (None for a traced operation) receives its timings."""
    t0 = time.perf_counter()
    try:
        timings, bad = op(st, k)
    except Exception as exc:  # a failed operation is counted, the loop goes on
        timings, bad = None, [f"op {k}: {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    bad = bad + checks.take()
    tally.record(bad)
    if bad:
        return None
    if samples is not None:
        for key, values in timings.items():
            samples[key].extend(values)
    return wall


def run_measured(op, st: State, checks: ForwardChecks, tally: Tally, seconds: float,
                 tr: Tracer | None):
    """Closed loop: one caller, at least two operations and ``seconds``.

    With a tracer, every other operation is traced; the untraced ones give the
    wall time that the tracing overhead is measured against. Returns the
    untraced operations' timings and the untraced and traced wall times.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    untraced_wall, traced_wall = [], []
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < seconds:
        if tr is not None and k % 2 == 1:
            tr.begin_step("measure")
            tr.install(trace_targets())
            try:
                wall = attempt(op, st, k, checks, tally, None)
            finally:
                tr.uninstall()
            if wall is not None:
                traced_wall.append(wall)
        else:
            wall = attempt(op, st, k, checks, tally, samples)
            if wall is not None:
                untraced_wall.append(wall)
        k += 1
    return samples, untraced_wall, traced_wall


def run_side(workload: str, st: State, checks: ForwardChecks, tally: Tally) -> dict:
    kinds = [kind for kind in WORKLOADS if kind != workload]
    samples = {kind: defaultdict(list) for kind in kinds}
    done = dict.fromkeys(kinds, 0)
    for _ in range(SIDE_ROUNDS):
        for kind in kinds:
            for _ in range(SIDE_PER_ROUND[kind]):
                attempt(OPS[kind], st, done[kind], checks, tally, samples[kind])
                done[kind] += 1
    return samples


def run_workload(workload: str, size_name: str, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> dict:
    import resource

    size = SIZES[size_name]
    seeds = derive_seeds(seed)
    tr = Tracer() if traced else None
    checks = ForwardChecks(model_configs(size)[1])
    patched = [(_mod(m), "hybrid_forward_batch") for m in ("hybrid", "training", "analytics")]
    originals = [(m, a, getattr(m, a)) for m, a in patched]
    for m, a, fn in originals:
        setattr(m, a, checks.wrap(fn))
    try:
        setup_s, st = [], None
        for rep in range(SETUP_REPEATS):
            st = None  # release the previous model before building the next
            if tr is not None:
                tr.install(trace_targets())
            t0 = time.perf_counter()
            try:
                st = setup_once(workload, size, seeds, workdir / f"setup{rep}", tr)
            finally:
                if tr is not None:
                    tr.uninstall()
            setup_s.append(time.perf_counter() - t0)
            failures = checks.take()
            if failures:
                raise SetupError(f"set-up forward checks failed: {failures[:3]}")

        tally = Tally()
        frozen = {n: p for n, p in st.hybrid.params.items() if not p.trainable}
        # What the measured loop must leave untouched, besides frozen parameters.
        kept, kept_name = {
            "train_desk": (frozen, "frozen hybrid parameters"),
            "eval_heldout": (st.hybrid.params, "hybrid parameters"),
            "lifecycle": (st.dense.params, "dense source parameters"),
        }[workload]
        kept_before, frozen_before = params_digest(kept), params_digest(frozen)

        samples, untraced_wall, traced_wall = run_measured(
            OPS[workload], st, checks, tally, seconds, tr)
        tally.record([] if params_digest(kept) == kept_before
                     else [f"{kept_name} changed during the measured loop"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        extra: dict = {"operations_timed": {k: len(v) for k, v in samples.items()},
                       "setup_s_each": setup_s}
        if tr is not None:
            metrics = per_layer_metrics(tr)
            base = median_or_zero(untraced_wall)
            frac = (median_or_zero(traced_wall) - base) / base if base else float("nan")
            metrics["trace.overhead_frac"] = (frac, "ratio")
            extra.update(traced_ops=len(traced_wall), untraced_ops=len(untraced_wall), tracer=tr)
        else:
            metrics = {"setup_s": (float(median(setup_s)), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
            metrics.update(kind_metrics(workload, st, samples, extra))
            for kind, side in run_side(workload, st, checks, tally).items():
                metrics.update(kind_metrics(kind, st, side, extra))
        tally.record([] if params_digest(frozen) == frozen_before
                     else ["frozen hybrid parameters changed during the run"])
        extra["failures"] = tally.failures[:20]
        order = ("setup_s", "peak_rss_mb") + tuple(n for k in WORKLOADS for n in END_TO_END[k])
        if tr is None:
            metrics = {name: metrics[name] for name in order}
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            # JSON has no NaN: a metric with no passed operation reads 0 in a
            # run whose ``failed`` count is not 0.
            "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                        for k, (v, u) in metrics.items()},
            "extra": extra,
        }
    finally:
        for m, a, fn in originals:
            setattr(m, a, fn)
