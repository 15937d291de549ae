"""The benchmark's hooks into hymoe still fit the code.

``bench/workloads.py`` wraps hymoe functions under the names their callers
look them up by and reads some of their arguments by position. A rename or a
moved argument would make a traced run fail or count the wrong thing, so
every hook is resolved here, and a tiny forward and training step are checked
the way a benchmark run checks them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from hymoe.dense import DenseConfig, init_dense  # noqa: E402
from hymoe.hybrid import hybrid_forward_batch  # noqa: E402
from hymoe.training import TrainConfig, training_step  # noqa: E402
from hymoe.upcycle import upcycle  # noqa: E402

TINY = workloads.SIZES["tiny"]


@pytest.fixture(scope="module")
def tiny_model():
    tok_cfg, seg_cfg = workloads.model_configs(TINY)
    dense = init_dense(DenseConfig(**TINY["dense"]), seed=0)
    hybrid = upcycle(dense, tok_cfg, seg_cfg)
    rng = np.random.default_rng(0)
    vocab, seq_len, batch = TINY["dense"]["vocab_size"], TINY["seq_len"], TINY["batch"]
    cfg = TrainConfig(batch_size=batch, seq_len=seq_len, steps=100)
    for step in range(2):  # move routers and fuse_seg off their zero init
        samples = [rng.integers(0, vocab, size=seq_len) for _ in range(batch)]
        training_step(hybrid, samples, samples, cfg, step)
    return hybrid, seg_cfg


def test_every_trace_target_resolves():
    targets = workloads.trace_targets()
    assert targets
    for module, attr, span, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_tiny_forward_passes_forward_checks(tiny_model):
    hybrid, seg_cfg = tiny_model
    checks = workloads.ForwardChecks(seg_cfg)
    forward = checks.wrap(hybrid_forward_batch)
    rng = np.random.default_rng(1)
    vocab, seq_len = TINY["dense"]["vocab_size"], TINY["seq_len"]
    samples = [rng.integers(0, vocab, size=n) for n in (seq_len, seq_len // 2 + 3, 5)]
    logits, trace = forward(hybrid, samples)
    assert [lg.shape[0] for lg in logits] == [len(s) for s in samples]
    assert any(lt.segment_assign is not None for lt in trace.layers)
    assert checks.take() == []


def test_traced_step_counts_read_the_right_arguments(tiny_model):
    hybrid, _ = tiny_model
    rng = np.random.default_rng(2)
    vocab, seq_len, batch = TINY["dense"]["vocab_size"], TINY["seq_len"], TINY["batch"]
    samples = [rng.integers(0, vocab, size=seq_len) for _ in range(batch)]
    tr = Tracer()
    tr.begin_step("measure")
    tr.install(workloads.trace_targets())
    try:
        training_step(hybrid, samples, samples, TrainConfig(batch_size=batch, seq_len=seq_len,
                                                            steps=100), 2)
    finally:
        tr.uninstall()
    layers = hybrid.config.num_layers
    rows = tr.per_step_counts("token_moe.rows_dispatched")
    assert rows == [float(layers * batch * seq_len * hybrid.token_moe.top_k)]
    assert tr.per_step_ratios("hybrid.real_rows", "hybrid.rows") == [1.0]
    segments = batch * (seq_len // hybrid.segment_moe.window)
    assert tr.per_step_counts("segment_moe.segments") == [float(layers * segments)]
    assert tr.count_values("tensor.tape_nodes")[0] > 0
    assert {s[0] for s in tr.spans} >= {
        "dense.attention", "dense.rmsnorm", "dense.head", "token_moe.forward",
        "segment_moe.embed", "segment_moe.fuse", "tensor.backward",
    }
