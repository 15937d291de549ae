import hashlib
import math

import numpy as np
import pytest

from conftest import random_batch, randomize_routing, tiny_hybrid

from hymoe import training
from hymoe.hybrid import hybrid_forward_batch
from hymoe.losses import load_balance_loss, ntp_loss
from hymoe.tensor import backward, finite_diff_grad, relative_error
from hymoe.training import TrainConfig, cosine_lr, evaluate_loss, training_step


def frozen_hash(ckpt) -> str:
    digest = hashlib.sha256()
    for name in sorted(ckpt.params):
        p = ckpt.params[name]
        if not p.trainable:
            digest.update(name.encode())
            digest.update(p.data.tobytes())
    return digest.hexdigest()


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0.1, 0, 100) == pytest.approx(0.1)
        assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-18)

    def test_midpoint_half(self):
        assert cosine_lr(0.1, 50, 100) == pytest.approx(0.05)

    def test_monotone_decay(self):
        values = [cosine_lr(1.0, s, 40) for s in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_warmup_reaches_base_on_its_last_step_then_decays(self):
        expected = {0: 0.025, 3: 0.1, 4: 0.1, 9: 0.006698729810778065}
        for step, lr in expected.items():
            assert cosine_lr(0.1, step, 10, 4) == pytest.approx(lr, rel=1e-15), step


class TestTrainingStep:
    def test_frozen_parameters_never_move(self, tiny_pair):
        _, hybrid = tiny_pair
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.3, alpha=0.01,
                          steps=10, seed=0)
        samples, targets = random_batch(hybrid.config, 2, 12, seed=1)
        before = {
            name: p.data.copy() for name, p in hybrid.params.items() if not p.trainable
        }
        training_step(hybrid, samples, targets, cfg, 0)
        for name, snapshot in before.items():
            delta = np.abs(hybrid.params[name].data - snapshot).max()
            assert delta == 0.0, name

    def test_some_trainable_parameter_moves(self, tiny_pair):
        _, hybrid = tiny_pair
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.3, alpha=0.01,
                          steps=10, seed=0)
        samples, targets = random_batch(hybrid.config, 2, 12, seed=2)
        before = {name: p.data.copy() for name, p in hybrid.params.items() if p.trainable}
        training_step(hybrid, samples, targets, cfg, 0)
        moved = any(
            np.abs(hybrid.params[name].data - snapshot).max() > 0
            for name, snapshot in before.items()
        )
        assert moved

    def test_frozen_hash_constant_across_many_steps(self, tiny_pair):
        _, hybrid = tiny_pair
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.5, alpha=0.01,
                          steps=30, seed=0)
        reference = frozen_hash(hybrid)
        for step in range(30):
            samples, targets = random_batch(hybrid.config, 2, 12, seed=100 + step)
            training_step(hybrid, samples, targets, cfg, step)
        assert frozen_hash(hybrid) == reference

    def test_fixed_batch_loss_decreases_over_50_steps(self, tiny_pair):
        _, hybrid = tiny_pair
        cfg = TrainConfig(batch_size=2, seq_len=16, learning_rate=0.4, alpha=0.01,
                          steps=50, seed=0)
        samples, targets = random_batch(hybrid.config, 2, 16, seed=3)
        first = training_step(hybrid, samples, targets, cfg, 0).total
        last = first
        for step in range(1, 50):
            last = training_step(hybrid, samples, targets, cfg, step).total
        assert last < first

    def test_report_total_is_sum_of_parts(self, tiny_pair):
        _, hybrid = tiny_pair
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.1, alpha=0.01,
                          steps=10, seed=0)
        samples, targets = random_batch(hybrid.config, 2, 12, seed=4)
        report = training_step(hybrid, samples, targets, cfg, 0)
        assert abs(report.total - (report.l_ntp + report.l_balance)) <= 1e-12
        assert report.l_balance > 0

    def test_nan_loss_aborts_with_diagnostic(self, tiny_pair):
        _, hybrid = tiny_pair
        hybrid.param("layer.0.expert.1.w1").data[...] = np.nan
        cfg = TrainConfig(batch_size=1, seq_len=8, learning_rate=0.1, alpha=0.01,
                          steps=5, seed=0)
        samples, targets = random_batch(hybrid.config, 1, 8, seed=5)
        with pytest.raises(RuntimeError, match="non-finite"):
            training_step(hybrid, samples, targets, cfg, 0)

    def test_non_finite_gradient_aborts_before_any_update(self, tiny_pair, monkeypatch):
        _, hybrid = tiny_pair
        before = {name: p.data.tobytes() for name, p in hybrid.params.items()}
        poisoned = []

        def backward_with_nan(root):
            backward(root)
            # the last parameter the update would reach, so none may move first
            name = [n for n, p in hybrid.params.items()
                    if p.trainable and p.grad is not None][-1]
            hybrid.param(name).grad.flat[0] = np.nan
            poisoned.append(name)

        monkeypatch.setattr(training, "backward", backward_with_nan)
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.1, alpha=0.01,
                          steps=10, seed=0)
        samples, targets = random_batch(hybrid.config, 2, 12, seed=4)
        with pytest.raises(RuntimeError, match="non-finite gradient") as err:
            training_step(hybrid, samples, targets, cfg, 7)
        assert f"{poisoned[0]} at step 7" in str(err.value)
        assert {name: p.data.tobytes() for name, p in hybrid.params.items()} == before

    def test_dense_checkpoint_trains_without_balance_term(self, tiny_pair):
        dense, _ = tiny_pair
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.2, alpha=0.01,
                          steps=10, seed=0)
        samples, targets = random_batch(dense.config, 2, 12, seed=6)
        report = training_step(dense, samples, targets, cfg, 0)
        assert report.l_balance == 0.0
        assert report.total == report.l_ntp  # the dense step adds an exact zero
        assert report.per_layer_f == []


class TestFullModelGradient:
    def _objective(self, hybrid, samples, targets, alpha):
        logits, trace = hybrid_forward_batch(hybrid, samples)
        loss = ntp_loss(logits[0], targets[0])
        for lg, tg in zip(logits[1:], targets[1:]):
            loss = loss + ntp_loss(lg, tg)
        loss = loss * (1.0 / len(logits))
        balance = load_balance_loss(
            [lt.gates for lt in trace.layers], alpha, trace.real_rows
        )
        return loss + balance.loss, trace

    def test_objective_gradient_matches_finite_diff(self):
        # small model, randomized routing so the selection margins are healthy
        dense, hybrid = tiny_hybrid(seed=2, vocab_size=24, hidden_size=8, num_layers=1,
                                    ffn_hidden=10, num_heads=2, max_seq_len=8,
                                    n_tok=3, k=2, n_seg=2, window=2)
        randomize_routing(hybrid, seed=7)
        samples, targets = random_batch(hybrid.config, 2, 8, seed=8)

        loss, trace = self._objective(hybrid, samples, targets, alpha=0.01)
        for lt in trace.layers:
            routed = np.sort(lt.gates.scores.data[:, 1:], axis=1)[:, ::-1]
            assert np.all(routed[:, 0] - routed[:, 1] > 1e-4), "tie margin too small"
        backward(loss)

        checked = 0
        for name in ("layer.0.token_router", "layer.0.seg_router", "layer.0.fuse_seg"):
            p = hybrid.param(name)
            analytic = p.grad.copy()
            for q in hybrid.params.values():
                q.grad = None
            numeric = finite_diff_grad(
                lambda: self._objective(hybrid, samples, targets, 0.01)[0].item(), p
            )
            err = relative_error(analytic, numeric)
            assert err <= 1e-6, f"{name}: rel err {err}"
            loss, _ = self._objective(hybrid, samples, targets, 0.01)
            backward(loss)
            checked += 1
        assert checked == 3


class TestDenseModelGradient:
    """FD-verify the paths the hybrid's trainables never reach (attention,
    embeddings, norms, head) via the dense model, where everything trains."""

    def _loss(self, dense, samples, targets):
        from hymoe.dense import dense_forward

        loss = None
        for s, t in zip(samples, targets):
            piece = ntp_loss(dense_forward(dense, s), t)
            loss = piece if loss is None else loss + piece
        return loss * (1.0 / len(samples))

    def test_ntp_gradient_matches_finite_diff(self):
        from conftest import tiny_hybrid

        dense, _ = tiny_hybrid(seed=5, vocab_size=20, hidden_size=8, num_layers=1,
                               ffn_hidden=10, num_heads=2, max_seq_len=6)
        samples, targets = random_batch(dense.config, 2, 6, seed=10)
        loss = self._loss(dense, samples, targets)
        backward(loss)
        for name in ("layer.0.attn.wq", "embed.tok", "layer.0.norm1", "head"):
            p = dense.param(name)
            analytic = p.grad.copy()
            for q in dense.params.values():
                q.grad = None
            numeric = finite_diff_grad(
                lambda: self._loss(dense, samples, targets).item(), p
            )
            err = relative_error(analytic, numeric)
            assert err <= 1e-6, f"{name}: rel err {err}"
            backward(self._loss(dense, samples, targets))


def test_evaluate_loss_matches_uniform_model_entropy(tiny_pair):
    dense, _ = tiny_pair
    dense.param("head").data[...] = 0.0
    samples, targets = random_batch(dense.config, 2, 10, seed=9)
    loss = evaluate_loss(dense, samples, targets)
    assert abs(loss - math.log(dense.config.vocab_size)) < 1e-12
