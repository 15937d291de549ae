import numpy as np
import pytest

from hymoe.dense import ffn_forward
from hymoe.tensor import (
    Parameter,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
    gather,
    narrow,
    relative_error,
    reshape,
    scatter,
    tsum,
)
from hymoe.token_moe import (
    GateAssignment,
    TokenMoEConfig,
    compute_token_gates,
    token_affinity_scores,
    token_moe_forward,
)


def cfg(n=4, k=2, hidden=8):
    return TokenMoEConfig(num_experts=n, top_k=k, hidden_size=hidden)


def make_experts(rng, n_routed, hidden, ffn, scale=0.5):
    out = []
    for i in range(n_routed):
        out.append(
            (
                Parameter(f"e{i}.w1", rng.normal(0, scale, size=(hidden, ffn))),
                Parameter(f"e{i}.w2", rng.normal(0, scale, size=(ffn, hidden))),
            )
        )
    return out


class TestAffinityScores:
    def test_zero_router_gives_uniform_rows(self):
        router = Parameter("r", np.zeros((8, 4)))
        x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        scores = token_affinity_scores(router, x)
        np.testing.assert_allclose(scores.data, 0.25, atol=1e-15)

    def test_forced_two_expert_arithmetic(self):
        # logits (ln 2, 0) for a single token
        router = Parameter("r", np.array([[np.log(2.0), 0.0]]))
        scores = token_affinity_scores(router, Tensor([[1.0]]))
        np.testing.assert_allclose(scores.data, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        router = Parameter("r", rng.normal(size=(8, 6)))
        scores = token_affinity_scores(router, Tensor(rng.normal(size=(32, 8))))
        np.testing.assert_allclose(scores.data.sum(axis=1), 1.0, atol=1e-12)


class TestComputeGates:
    def test_shared_normalized_forced_case(self):
        scores = Tensor(np.array([[0.4, 0.3, 0.2, 0.1]]))
        assign = compute_token_gates(scores, cfg(n=4, k=2))
        np.testing.assert_array_equal(assign.indices, [[0, 1]])
        np.testing.assert_allclose(assign.gates.data, [[4 / 7, 3 / 7]], atol=1e-15)

    def test_uniform_scores_give_equal_gates(self):
        n, k = 5, 3
        scores = Tensor(np.full((4, n), 1.0 / n))
        assign = compute_token_gates(scores, cfg(n=n, k=k))
        np.testing.assert_allclose(assign.gates.data, 1.0 / k, atol=1e-15)

    def test_k_out_of_range_rejected_by_config(self):
        with pytest.raises(ValueError):
            TokenMoEConfig(num_experts=3, top_k=4, hidden_size=8)
        with pytest.raises(ValueError):
            TokenMoEConfig(num_experts=3, top_k=1, hidden_size=8)


class TestGateInvariants:
    def test_gate_sum_is_one_over_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, n + 1))
            t = int(rng.integers(1, 12))
            scores = Tensor(rng.dirichlet(np.ones(n), size=t))
            assign = compute_token_gates(scores, cfg(n=n, k=k))
            np.testing.assert_allclose(assign.gates.data.sum(axis=1), 1.0, atol=1e-12)

    def test_shared_expert_always_selected(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            scores = Tensor(rng.dirichlet(np.ones(6), size=8))
            assign = compute_token_gates(scores, cfg(n=6, k=3))
            assert np.all(np.any(assign.indices == 0, axis=1))
            assert np.all(assign.indices[:, 0] == 0)

    def test_positive_logit_scaling_never_changes_selection(self):
        rng = np.random.default_rng(5)
        router = Parameter("r", rng.normal(size=(8, 5)))
        x = Tensor(rng.normal(size=(16, 8)))
        from hymoe.tensor import matmul, softmax_axis

        logits = matmul(x, router)
        base = compute_token_gates(softmax_axis(logits, 1), cfg(n=5, k=2))
        for scale in (0.5, 2.0, 7.3):
            scaled = compute_token_gates(softmax_axis(logits * scale, 1), cfg(n=5, k=2))
            np.testing.assert_array_equal(
                np.sort(scaled.indices, axis=1), np.sort(base.indices, axis=1)
            )


class TestForward:
    def test_identical_experts_reduce_to_plain_ffn(self):
        rng = np.random.default_rng(6)
        hidden, ffn = 8, 12
        shared = (
            Parameter("s.w1", rng.normal(size=(hidden, ffn)), trainable=False),
            Parameter("s.w2", rng.normal(size=(ffn, hidden)), trainable=False),
        )
        routed = [
            (Parameter(f"e{i}.w1", shared[0].data), Parameter(f"e{i}.w2", shared[1].data))
            for i in range(1, 4)
        ]
        x = Tensor(rng.normal(size=(10, hidden)))
        scores = token_affinity_scores(Parameter("r", rng.normal(size=(hidden, 4))), x)
        assign = compute_token_gates(scores, cfg(n=4, k=2, hidden=hidden))
        out = token_moe_forward(routed, shared, assign, x)
        ref = ffn_forward(x, shared[0], shared[1])
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)

    def test_one_hot_gate_selects_single_expert(self):
        rng = np.random.default_rng(7)
        hidden, ffn = 6, 9
        shared = make_experts(rng, 1, hidden, ffn)[0]
        routed = make_experts(rng, 3, hidden, ffn)
        x = Tensor(rng.normal(size=(4, hidden)))
        j = 2  # routed slot 2
        assign = GateAssignment(
            num_experts=4,
            top_k=2,
            indices=np.tile(np.array([[0, j]]), (4, 1)),
            gates=Tensor(np.tile(np.array([[0.0, 1.0]]), (4, 1))),
            scores=Tensor(np.full((4, 4), 0.25)),
        )
        out = token_moe_forward(routed, shared, assign, x)
        ref = ffn_forward(x, routed[j - 1][0], routed[j - 1][1])
        np.testing.assert_allclose(out.data, ref.data, atol=1e-14)

    def test_matches_all_expert_masked_gate_oracle(self):
        rng = np.random.default_rng(8)
        hidden, ffn, n, k = 8, 10, 5, 3
        shared = make_experts(rng, 1, hidden, ffn)[0]
        routed = make_experts(rng, n - 1, hidden, ffn)
        x = Tensor(rng.normal(size=(12, hidden)))
        scores = token_affinity_scores(Parameter("r", rng.normal(size=(hidden, n))), x)
        assign = compute_token_gates(scores, cfg(n=n, k=k, hidden=hidden))
        out = token_moe_forward(routed, shared, assign, x)
        # oracle: loop every expert over every token with a dense masked gate
        dense = np.zeros((x.data.shape[0], n))
        dense[np.arange(x.data.shape[0])[:, None], assign.indices] = assign.gates.data
        experts = [shared] + routed
        expected = np.zeros_like(x.data)
        for t in range(x.data.shape[0]):
            for i, (w1, w2) in enumerate(experts):
                pre = x.data[t] @ w1.data
                act = pre / (1.0 + np.exp(-pre))
                expected[t] += dense[t, i] * (act @ w2.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_bitwise_equal_to_the_per_expert_loop_at_top3(self):
        rng = np.random.default_rng(10)
        hidden, ffn, n, k, t = 16, 24, 6, 3, 40
        shared = (
            Parameter("s.w1", rng.normal(0, 0.5, size=(hidden, ffn)), trainable=False),
            Parameter("s.w2", rng.normal(0, 0.5, size=(ffn, hidden)), trainable=False),
        )
        routed = make_experts(rng, n - 1, hidden, ffn)
        router = Parameter("r", rng.normal(size=(hidden, n)))
        x = Parameter("x", rng.normal(size=(t, hidden)))
        up = Tensor(rng.normal(size=(t, hidden)))
        params = [router, x, *[w for pair in routed for w in pair]]
        results = []
        for forward in (token_moe_forward, _per_expert_loop):
            scores = token_affinity_scores(router, x)
            assign = compute_token_gates(scores, cfg(n=n, k=k, hidden=hidden))
            out = forward(routed, shared, assign, x)
            backward(tsum(out * up))
            results.append([out.data] + [p.grad for p in params])
            for p in params:
                p.grad = None
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_expert_count_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        shared = make_experts(rng, 1, 4, 6)[0]
        routed = make_experts(rng, 2, 4, 6)
        x = Tensor(rng.normal(size=(3, 4)))
        scores = Tensor(rng.dirichlet(np.ones(5), size=3))
        assign = compute_token_gates(scores, cfg(n=5, k=2, hidden=4))
        with pytest.raises(ShapeError, match="expert count"):
            token_moe_forward(routed, shared, assign, x)

    @pytest.mark.parametrize("indices", [[[1, 0]], [[1, 2]], [[0, 0]]])
    def test_shared_expert_outside_slot_0_rejected(self, indices):
        rng = np.random.default_rng(12)
        shared = make_experts(rng, 1, 4, 6)[0]
        routed = make_experts(rng, 2, 4, 6)
        assign = GateAssignment(3, 2, np.array(indices), Tensor([[0.5, 0.5]]),
                                Tensor(np.full((1, 3), 1 / 3)))
        with pytest.raises(ShapeError, match="slot 0"):
            token_moe_forward(routed, shared, assign, Tensor(rng.normal(size=(1, 4))))


def _per_expert_loop(routed, shared, assign, x):
    """The token combine before the one expert dispatch: expert 0 without a
    gather when it holds slot 0 of every token, then one gather -> FFN ->
    scale -> scatter round per expert that has tokens."""
    experts = [shared] + list(routed)
    out, start = None, 0
    if (assign.indices[:, 0] == 0).all():
        out = ffn_forward(x, *shared) * narrow(assign.gates, 1, 0, 1)
        start = 1
    for i in range(start, len(experts)):
        rows, slots = np.nonzero(assign.indices == i)
        if rows.size == 0:
            continue
        y = ffn_forward(gather(x, rows), *experts[i])
        weights = reshape(gather(assign.gates, (rows, slots)), (rows.size, 1))
        contrib = scatter(y * weights, rows, x.shape)
        out = contrib if out is None else out + contrib
    return out


def margin_ok(scores: np.ndarray, k: int, margin: float = 1e-3) -> bool:
    """No routed-score tie within `margin` around the selection boundary."""
    routed = np.sort(scores[:, 1:], axis=1)[:, ::-1]
    if routed.shape[1] < k:
        return True
    return bool(np.all(routed[:, k - 2] - routed[:, k - 1] > margin))


class TestGradients:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        hidden, ffn, n, k = 6, 8, 4, 2
        shared = (
            Parameter("s.w1", rng.normal(0, 0.5, size=(hidden, ffn)), trainable=False),
            Parameter("s.w2", rng.normal(0, 0.5, size=(ffn, hidden)), trainable=False),
        )
        routed = make_experts(rng, n - 1, hidden, ffn)
        router = Parameter("router", rng.normal(0, 0.8, size=(hidden, n)))
        x = Tensor(rng.normal(size=(7, hidden)))
        return cfg(n=n, k=k, hidden=hidden), shared, routed, router, x

    def _loss(self, c, shared, routed, router, x):
        scores = token_affinity_scores(router, x)
        assign = compute_token_gates(scores, c)
        out = token_moe_forward(routed, shared, assign, x)
        from hymoe.tensor import tsum

        return tsum(out * out), assign

    def test_router_and_expert_grads_match_finite_diff(self):
        checked = 0
        seed = 0
        while checked < 5:
            seed += 1
            c, shared, routed, router, x = self._setup(seed)
            scores = token_affinity_scores(router, x)
            if not margin_ok(scores.data, c.top_k):
                continue
            loss, assign = self._loss(c, shared, routed, router, x)
            backward(loss)
            # check the router plus one routed expert that actually got tokens
            used = int(assign.indices[0, 1])
            for p in (router, routed[used - 1][0], routed[used - 1][1]):
                analytic = p.grad.copy()
                p.grad = None
                numeric = finite_diff_grad(
                    lambda p=p: self._loss(c, shared, routed, router, x)[0].item(), p
                )
                assert relative_error(analytic, numeric) <= 1e-6
            for p in (router, *[w for pair in routed for w in pair]):
                p.grad = None
            checked += 1

    def test_shared_expert_gradient_identically_zero(self):
        c, shared, routed, router, x = self._setup(42)
        loss, _ = self._loss(c, shared, routed, router, x)
        backward(loss)
        assert shared[0].grad is None
        assert shared[1].grad is None
