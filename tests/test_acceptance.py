"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
trend test (criterion 7) trains a base model and a hybrid model end to end
and takes a few minutes; everything else finishes in seconds.
"""

import json
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hymoe.analytics import evaluate_perplexity, routing_analytics
from hymoe.corpus import (
    CorpusManifest,
    MiniLanguage,
    default_languages,
    generate_corpus,
    language_streams,
    load_corpus,
    mixing_weights,
    sample_batch,
)
from hymoe.dense import DenseConfig, init_dense
from hymoe.hybrid import hybrid_forward_batch
from hymoe.losses import load_balance_loss, ntp_loss
from hymoe.segment_moe import SegmentMoEConfig, compute_capacity, expert_choice_route
from hymoe.tensor import Parameter, Tensor, backward, finite_diff_grad, relative_error
from hymoe.token_moe import GateAssignment, TokenMoEConfig, compute_token_gates, token_affinity_scores
from hymoe.training import TrainConfig, training_step
from hymoe.upcycle import fidelity_check, upcycle

import hashlib


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number}] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE {number}] {name}: PASS")


def build_pair(seed=0, vocab=256, hidden=32, layers=3, ffn=64, heads=2, max_seq=64,
               n_tok=6, k=2, n_seg=6, window=8):
    dense = init_dense(
        DenseConfig(vocab_size=vocab, hidden_size=hidden, num_layers=layers,
                    ffn_hidden=ffn, num_heads=heads, max_seq_len=max_seq),
        seed=seed,
    )
    hybrid = upcycle(
        dense,
        TokenMoEConfig(num_experts=n_tok, top_k=k, hidden_size=hidden),
        SegmentMoEConfig(num_experts=n_seg, window=window, capacity_factor=1.0,
                         hidden_size=hidden),
    )
    return dense, hybrid


def test_criterion_1_upcycling_fidelity():
    with criterion(1, "upcycling fidelity <= 1e-9 over 32 probes in < 10 s"):
        started = time.time()
        dense, hybrid = build_pair(seed=0)
        worst = fidelity_check(dense, hybrid, probes=32, seed=0)
        elapsed = time.time() - started
        assert worst <= 1e-9, f"max |logit delta| {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_gate_normalization():
    with criterion(2, "gate sums == 1 +- 1e-12 and shared always on, 1000 draws"):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, n + 1))
            t = int(rng.integers(1, 8))
            hidden = int(rng.integers(2, 10))
            router = Parameter("r", rng.normal(0, 1.0, size=(hidden, n)))
            x = Tensor(rng.normal(size=(t, hidden)))
            cfg = TokenMoEConfig(num_experts=n, top_k=k, hidden_size=hidden)
            assign = compute_token_gates(token_affinity_scores(router, x), cfg)
            sums = assign.gates.data.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)
            assert np.all(assign.indices[:, 0] == 0)
            assert np.all(np.any(assign.indices == 0, axis=1))


def test_criterion_3_uniform_balance_loss_equals_alpha():
    with criterion(3, "uniform routing balance loss == alpha per layer (alpha=0.01)"):
        alpha = 0.01
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, n + 1))
            tokens = int(n * rng.integers(1, 6))  # multiple of n so counts even out
            layers = []
            for _ in range(int(rng.integers(1, 4))):
                indices = np.array(
                    [[(t * k + j) % n for j in range(k)] for t in range(tokens)],
                    dtype=np.int64,
                )
                gates = Tensor(np.full((tokens, k), 1.0 / k))
                scores = Tensor(np.full((tokens, n), 1.0 / n))
                layers.append(GateAssignment(n, k, indices, gates, scores))
            result = load_balance_loss(layers, alpha=alpha)
            assert abs(result.loss.item() - alpha * len(layers)) <= 1e-9 * len(layers)


def test_criterion_4_expert_choice_exact_load():
    with criterion(4, "expert-choice exact load + U/I/D consistency, 500 batches"):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            v = int(rng.integers(n, 24))
            hidden = int(rng.integers(2, 8))
            cfg = SegmentMoEConfig(num_experts=n, window=2, capacity_factor=1.0,
                                   hidden_size=hidden)
            r = compute_capacity(v, cfg)
            router = Parameter("sr", rng.normal(size=(hidden, n)))
            seg_emb = Tensor(rng.normal(size=(v, hidden)))
            assign = expert_choice_route(router, seg_emb, r)
            # exact load: every expert holds exactly r distinct segments
            assert assign.indices.shape == (n, r)
            for i in range(n):
                assert len(set(assign.indices[i].tolist())) == r
            # U consistency: one-hot slices that reconstruct I
            np.testing.assert_allclose(assign.onehot.sum(axis=2), 1.0, atol=0)
            np.testing.assert_array_equal(np.argmax(assign.onehot, axis=2), assign.indices)
            # D consistency: weights are the gate-matrix entries at I
            np.testing.assert_array_equal(
                assign.weights.data,
                np.take_along_axis(assign.gate_matrix.data, assign.indices, axis=1),
            )


class TestCriterion5Gradients:
    """Full-model analytic gradients vs central differences at tie-free points."""

    @staticmethod
    def _make_point(seed):
        dense, hybrid = build_pair(seed=seed, vocab=24, hidden=6, layers=1, ffn=8,
                                   heads=2, max_seq=8, n_tok=3, k=2, n_seg=2, window=2)
        rng = np.random.default_rng(seed)
        for name, p in hybrid.params.items():
            if "router" in name:
                p.data[...] = rng.normal(0, 0.8, size=p.data.shape)
            elif ".expert." in name or ".seg_expert." in name:
                p.data += rng.normal(0, 0.05, size=p.data.shape)
        samples = [rng.integers(0, 24, size=8) for _ in range(2)]
        targets = [rng.integers(0, 24, size=8) for _ in range(2)]
        return hybrid, samples, targets

    @staticmethod
    def _objective(hybrid, samples, targets):
        logits, trace = hybrid_forward_batch(hybrid, samples)
        loss = ntp_loss(logits[0], targets[0])
        for lg, tg in zip(logits[1:], targets[1:]):
            loss = loss + ntp_loss(lg, tg)
        loss = loss * (1.0 / len(logits))
        balance = load_balance_loss([lt.gates for lt in trace.layers], 0.01,
                                    trace.real_rows)
        return loss + balance.loss, trace

    @staticmethod
    def _tie_free(trace, margin=1e-3):
        for lt in trace.layers:
            routed = np.sort(lt.gates.scores.data[:, 1:], axis=1)[:, ::-1]
            if routed.shape[1] >= 2 and np.any(routed[:, 0] - routed[:, 1] < margin):
                return False
            if lt.segment_assign is not None:
                g = np.sort(lt.segment_assign.gate_matrix.data, axis=1)[:, ::-1]
                r = lt.segment_assign.capacity
                if g.shape[1] > r and np.any(g[:, r - 1] - g[:, r] < margin):
                    return False
        return True

    def test_criterion_5(self):
        with criterion(5, "analytic vs finite-difference gradients <= 1e-6, 20 points"):
            started = time.time()
            points_checked = 0
            seed = 0
            while points_checked < 20:
                seed += 1
                hybrid, samples, targets = self._make_point(seed)
                loss, trace = self._objective(hybrid, samples, targets)
                if not self._tie_free(trace):
                    continue
                backward(loss)
                used = int(trace.layers[0].gates.indices[0, 1])
                names = [
                    "layer.0.token_router",
                    "layer.0.seg_router",
                    f"layer.0.expert.{used}.w1",
                    "layer.0.seg_expert.0.w1",
                    "layer.0.fuse_tok",
                    "layer.0.fuse_seg",
                ]
                grads = {n: hybrid.param(n).grad.copy() for n in names}
                for p in hybrid.params.values():
                    p.grad = None
                for n in names:
                    p = hybrid.param(n)
                    numeric = finite_diff_grad(
                        lambda: self._objective(hybrid, samples, targets)[0].item(), p,
                        h=1e-5,
                    )
                    err = relative_error(grads[n], numeric)
                    assert err <= 1e-6, f"{n} at point {points_checked}: rel err {err}"
                points_checked += 1
            elapsed = time.time() - started
            assert elapsed < 300.0, f"took {elapsed:.1f}s"


def frozen_digest(ckpt) -> str:
    digest = hashlib.sha256()
    for name in sorted(ckpt.params):
        p = ckpt.params[name]
        if not p.trainable:
            digest.update(name.encode())
            digest.update(p.data.tobytes())
    return digest.hexdigest()


def test_criterion_6_freeze_policy_500_steps():
    with criterion(6, "frozen-parameter hash unchanged after 500 training steps"):
        _, hybrid = build_pair(seed=3, vocab=32, hidden=8, layers=2, ffn=12, heads=2,
                               max_seq=12, n_tok=3, k=2, n_seg=2, window=3)
        before = frozen_digest(hybrid)
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.2, alpha=0.01,
                          steps=500, seed=0)
        rng = np.random.default_rng(4)
        for step in range(500):
            samples = [rng.integers(0, 32, size=12) for _ in range(2)]
            targets = [rng.integers(0, 32, size=12) for _ in range(2)]
            training_step(hybrid, samples, targets, cfg, step)
        assert frozen_digest(hybrid) == before


# ---------------------------------------------------------------------------
# criterion 7: the language-expansion trend, end to end


def _trend_languages():
    # grammar-identical apart from the keyword ids: the languages share
    # structure the way related programming languages share semantics
    style = dict(block_prob=0.3, call_prob=0.25, nest_prob=0.3,
                 op_weights=(0.25, 0.25, 0.25, 0.25))
    return [
        MiniLanguage("major", "high", tuple(range(64, 70)), **style),
        MiniLanguage("minor", "low", tuple(range(72, 78)), **style),
    ]


@pytest.mark.slow
def test_criterion_7_language_expansion_trend(tmp_path):
    with criterion(7, "low-resource ppl -20%+, high-resource drift <= +5%"):
        started = time.time()
        generate_corpus(_trend_languages(), CorpusManifest(total_tokens=200_000),
                        seed=11, out_dir=tmp_path, vocab_size=128)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        train_streams = language_streams(load_corpus(tmp_path / "train.tsv"))
        held_streams = language_streams(load_corpus(tmp_path / "heldout.tsv"))

        T, B = 96, 8
        cfg = DenseConfig(vocab_size=128, hidden_size=64, num_layers=3, ffn_hidden=128,
                          num_heads=2, max_seq_len=96)
        dense = init_dense(cfg, seed=1)

        # base model: learns both languages early, then the high-resource
        # phase overwrites its low-resource predictions (representations stay)
        base_cfg = TrainConfig(batch_size=B, seq_len=T, learning_rate=0.25, alpha=0.01,
                               steps=650, seed=1)
        w_both = mixing_weights(["major", "minor"], manifest, low_fraction=0.3)
        w_major = mixing_weights(["major"], manifest)
        for step in range(650):
            weights = w_both if step < 200 else w_major
            samples, targets, _ = sample_batch(train_streams, weights, T, B,
                                               seed=1, step=step)
            training_step(dense, samples, targets, base_cfg, step)
        ppl_init = evaluate_perplexity(dense, held_streams, ["major", "minor"],
                                       seq_len=T, n_blocks=16)

        hybrid = upcycle(
            dense,
            TokenMoEConfig(num_experts=6, top_k=2, hidden_size=64),
            SegmentMoEConfig(num_experts=6, window=16, capacity_factor=1.0,
                             hidden_size=64),
        )
        mix_cfg = TrainConfig(batch_size=B, seq_len=T, learning_rate=0.05, alpha=0.01,
                              steps=1600, seed=101)
        w_mix = mixing_weights(["major", "minor"], manifest)  # 9:1 low:high
        for step in range(1600):
            samples, targets, _ = sample_batch(train_streams, w_mix, T, B,
                                               seed=101, step=step)
            training_step(hybrid, samples, targets, mix_cfg, step)
        ppl_end = evaluate_perplexity(hybrid, held_streams, ["major", "minor"],
                                      seq_len=T, n_blocks=16)

        low_gain = (ppl_init["minor"] - ppl_end["minor"]) / ppl_init["minor"]
        high_drift = (ppl_end["major"] - ppl_init["major"]) / ppl_init["major"]
        elapsed = time.time() - started
        print(
            f"  trend: minor {ppl_init['minor']:.2f} -> {ppl_end['minor']:.2f} "
            f"({low_gain:+.1%}), major {ppl_init['major']:.2f} -> {ppl_end['major']:.2f} "
            f"({high_drift:+.1%}), {elapsed:.0f}s"
        )
        assert low_gain >= 0.20, f"low-resource improvement {low_gain:.1%} < 20%"
        assert high_drift <= 0.05, f"high-resource drift {high_drift:+.1%} > +5%"
        assert elapsed <= 1800.0, f"took {elapsed:.0f}s (> 30 min)"


def test_criterion_8_analytics_structure(tmp_path):
    with criterion(8, "analytics rows sum to 1 +- 1e-9 and '(v1, v2)' top-2 format"):
        generate_corpus(default_languages(), CorpusManifest(total_tokens=20_000),
                        seed=5, out_dir=tmp_path, vocab_size=128)
        held = language_streams(load_corpus(tmp_path / "heldout.tsv"))
        _, hybrid = build_pair(seed=6, vocab=128, hidden=16, layers=3, ffn=24, heads=2,
                               max_seq=32, n_tok=4, k=2, n_seg=3, window=8)
        rng = np.random.default_rng(7)
        for name, p in hybrid.params.items():
            if "router" in name:
                p.data[...] = rng.normal(0, 0.5, size=p.data.shape)
        report = routing_analytics(hybrid, held, seq_len=32, n_blocks=4)
        for layer in report.layers:
            np.testing.assert_allclose(report.token_freq[layer].sum(axis=1), 1.0,
                                       atol=1e-9)
            for lang in report.languages:
                np.testing.assert_allclose(
                    report.segment_freq[layer][lang].sum(axis=1), 1.0, atol=1e-9
                )
                assert re.match(r"^\(\d+, \d+\)$", report.top2_string(layer, lang))
