import numpy as np
import pytest

from hymoe.losses import BalanceResult, load_balance_loss, ntp_loss
from hymoe.tensor import ShapeError, Tensor
from hymoe.token_moe import GateAssignment, TokenMoEConfig, compute_token_gates


class TestNTPLoss:
    def test_certain_predictions_drive_loss_to_zero(self):
        targets = np.array([3, 1, 0])
        logits = np.zeros((3, 5))
        logits[np.arange(3), targets] = 60.0  # prob ~ 1 on each target
        loss = ntp_loss(Tensor(logits), targets)
        assert loss.item() < 1e-12

    def test_uniform_logits_give_log_vocab(self):
        loss = ntp_loss(Tensor(np.zeros((4, 512))), np.array([0, 99, 511, 7]))
        assert abs(loss.item() - np.log(512.0)) < 1e-12

    def test_matches_per_position_loop_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(9, 13))
        targets = rng.integers(0, 13, size=9)
        loss = ntp_loss(Tensor(logits), targets)
        total = 0.0
        for t in range(9):
            row = logits[t] - logits[t].max()
            total += -(row[targets[t]] - np.log(np.exp(row).sum()))
        np.testing.assert_allclose(loss.item(), total / 9, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ntp_loss(Tensor(np.zeros((3, 5))), np.array([0, 1]))

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            ntp_loss(Tensor(np.zeros((2, 5))), np.array([0, 5]))


def round_robin_assignment(n: int, k: int, tokens: int) -> GateAssignment:
    """Synthetic perfectly uniform history: f_i = p_i = 1/n for every expert."""
    assert (tokens * k) % n == 0
    indices = np.array(
        [[(t * k + j) % n for j in range(k)] for t in range(tokens)], dtype=np.int64
    )
    gates = Tensor(np.full((tokens, k), 1.0 / k))
    scores = Tensor(np.full((tokens, n), 1.0 / n))
    return GateAssignment(n, k, indices, gates, scores)


def balance_oracle(assignments, alpha):
    """Independent two-pass recomputation of the balance loss."""
    total = 0.0
    for assign in assignments:
        n, k = assign.num_experts, assign.top_k
        t_count = assign.indices.shape[0]
        f = np.zeros(n)
        p = np.zeros(n)
        for t in range(t_count):
            for j in range(k):
                f[assign.indices[t, j]] += 1.0
                p[assign.indices[t, j]] += assign.gates.data[t, j]
        f /= k * t_count
        p /= t_count
        total += alpha * n * float(np.dot(f, p))
    return total


class TestBalanceLoss:
    def test_uniform_routing_gives_alpha_per_layer(self):
        layers = [round_robin_assignment(4, 2, 8) for _ in range(3)]
        result = load_balance_loss(layers, alpha=0.01)
        np.testing.assert_allclose(result.loss.item(), 3 * 0.01, atol=1e-15)
        for f, p in zip(result.per_layer_f, result.per_layer_p):
            np.testing.assert_allclose(f, 0.25, atol=1e-15)
            np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_collapsed_routing_exceeds_alpha(self):
        # hand-built degenerate batch: every token picks the same two experts
        n, k, tokens = 4, 2, 6
        scores = np.tile(np.array([[0.7, 0.2, 0.06, 0.04]]), (tokens, 1))
        indices = np.tile(np.array([[0, 1]]), (tokens, 1))
        gates = Tensor(scores[:, :k])  # the top-2 scores, not renormalized
        assign = GateAssignment(n, k, indices, gates, Tensor(scores))
        result = load_balance_loss([assign], alpha=0.01)
        # f = (1/2, 1/2, 0, 0); p = (0.7, 0.2, 0, 0); loss = a*4*0.45
        np.testing.assert_allclose(result.loss.item(), 0.01 * 4 * 0.45, atol=1e-15)
        assert result.loss.item() > 0.01

    def test_alpha_zero_kills_loss(self):
        rng = np.random.default_rng(1)
        cfg = TokenMoEConfig(num_experts=5, top_k=2, hidden_size=4)
        assign = compute_token_gates(Tensor(rng.dirichlet(np.ones(5), size=12)), cfg)
        result = load_balance_loss([assign], alpha=0.0)
        assert result.loss.item() == 0.0

    def test_matches_two_pass_oracle_on_random_histories(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, n + 1))
            t = int(rng.integers(2, 20))
            cfg = TokenMoEConfig(num_experts=n, top_k=k, hidden_size=4)
            layers = [
                compute_token_gates(Tensor(rng.dirichlet(np.ones(n), size=t)), cfg)
                for _ in range(int(rng.integers(1, 4)))
            ]
            result = load_balance_loss(layers, alpha=0.01)
            np.testing.assert_allclose(
                result.loss.item(), balance_oracle(layers, 0.01), atol=1e-12
            )

    def test_shared_normalized_f_and_p_sum_to_one(self):
        rng = np.random.default_rng(3)
        cfg = TokenMoEConfig(num_experts=6, top_k=2, hidden_size=4)
        assign = compute_token_gates(Tensor(rng.dirichlet(np.ones(6), size=40)), cfg)
        result = load_balance_loss([assign], alpha=0.01)
        np.testing.assert_allclose(result.per_layer_f[0].sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(result.per_layer_p[0].sum(), 1.0, atol=1e-9)

    def test_token_rows_subset_restricts_the_statistics(self):
        rng = np.random.default_rng(4)
        cfg = TokenMoEConfig(num_experts=4, top_k=2, hidden_size=4)
        scores = rng.dirichlet(np.ones(4), size=10)
        assign = compute_token_gates(Tensor(scores), cfg)
        rows = np.array([0, 2, 4, 6, 8])
        sub = compute_token_gates(Tensor(scores[rows]), cfg)
        full = load_balance_loss([assign], alpha=0.01, token_rows=rows)
        direct = load_balance_loss([sub], alpha=0.01)
        np.testing.assert_allclose(full.loss.item(), direct.loss.item(), atol=1e-15)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            load_balance_loss([], alpha=-0.1)
