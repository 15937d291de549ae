import numpy as np
import pytest

from hymoe.dense import ffn_forward
from hymoe.segment_moe import (
    ExpertChoiceAssignment,
    SegmentMoEConfig,
    compute_capacity,
    embed_segments,
    expert_choice_route,
    fuse_layer_outputs,
    partition_segments,
    segment_moe_forward,
)
from hymoe.tensor import (
    Parameter,
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


def cfg(n=3, window=4, c=1.0, hidden=8):
    return SegmentMoEConfig(num_experts=n, window=window, capacity_factor=c, hidden_size=hidden)


class TestPartition:
    def test_exact_division(self):
        plan = partition_segments((8,), cfg(window=4), row_stride=8)
        assert plan.total_segments == 2
        assert plan.spans == [(0, 0, 4), (0, 4, 8)]
        assert plan.leftover == []

    def test_floor_semantics_record_leftover(self):
        plan = partition_segments((10,), cfg(window=4), row_stride=10)
        assert plan.total_segments == 2
        assert plan.spans == [(0, 0, 4), (0, 4, 8)]
        assert plan.leftover == [(0, 8, 10)]

    def test_short_sample_is_all_leftover(self):
        plan = partition_segments((3,), cfg(window=4), row_stride=3)
        assert plan.total_segments == 0
        assert plan.leftover == [(0, 0, 3)]

    def test_total_is_batch_times_per_sample(self):
        plan = partition_segments((12,) * 5, cfg(window=3), row_stride=12)
        assert plan.total_segments == 5 * 4
        for b in range(5):
            assert sum(sample == b for sample, _, _ in plan.spans) == 4

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            cfg(window=0)

    def test_segments_disjoint_and_exact_width(self):
        plan = partition_segments((9, 7, 4), cfg(window=3), row_stride=9)
        for b, start, end in plan.spans:
            assert end - start == 3
        seen = set()
        for b, start, end in plan.spans:
            for t in range(start, end):
                assert (b, t) not in seen
                seen.add((b, t))


class TestEmbedSegments:
    def test_constant_rows_average_to_themselves(self):
        plan = partition_segments((6,), cfg(window=3, hidden=4), row_stride=6)
        u = np.array([1.0, -2.0, 0.5, 3.0])
        hidden = Tensor(np.tile(u, (6, 1)))
        out = embed_segments(plan, hidden)
        np.testing.assert_allclose(out.data, np.tile(u, (2, 1)), atol=1e-15)

    def test_two_token_forced_mean(self):
        plan = partition_segments((2,), cfg(window=2, hidden=2), row_stride=2)
        hidden = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = embed_segments(plan, hidden)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_matches_loop_and_average_oracle(self):
        rng = np.random.default_rng(0)
        lengths = (10, 7)
        plan = partition_segments(lengths, cfg(window=3, hidden=5), row_stride=12)
        flat = rng.normal(size=(2 * 12, 5))
        out = embed_segments(plan, Tensor(flat))
        for v, (b, start, end) in enumerate(plan.spans):
            rows = flat[b * 12 + start : b * 12 + end]
            np.testing.assert_allclose(out.data[v], rows.mean(axis=0), atol=1e-12)


class TestCapacity:
    def test_forced_case(self):
        assert compute_capacity(12, cfg(n=6, c=1.0)) == 2

    def test_reference_configuration(self):
        # 60 segments, c=1, 6 experts -> capacity 10
        assert compute_capacity(60, cfg(n=6, c=1.0)) == 10

    def test_floor_clamps_to_one(self):
        assert compute_capacity(5, cfg(n=6, c=1.0)) == 1

    def test_capacity_factor_scales(self):
        assert compute_capacity(12, cfg(n=6, c=2.0)) == 4

    def test_invalid_total_rejected(self):
        with pytest.raises(ValueError):
            compute_capacity(0, cfg())

    def test_capacity_factor_above_expert_count_rejected(self):
        # r = floor(V * 4 / 3) > V for every V >= 3: the forward pass would
        # fail mid-run, so the config refuses it up front.
        with pytest.raises(ValueError, match="capacity_factor 4.0 exceeds num_experts 3"):
            SegmentMoEConfig(num_experts=3, window=8, capacity_factor=4.0)
        assert compute_capacity(4, cfg(n=3, c=3.0)) == 4  # c = N: every expert takes all


def route(gate_rows: np.ndarray, r: int) -> ExpertChoiceAssignment:
    """Build an assignment from a given [N x V] gate matrix (bypasses the router)."""
    from hymoe.tensor import top_k_rows

    indices = top_k_rows(gate_rows, r)
    gm = Tensor(gate_rows)
    weights = gather(gm, (np.arange(indices.shape[0])[:, None], indices))
    return ExpertChoiceAssignment(indices, weights, r, gm)


def _per_expert_loop(experts, assign, seg_emb):
    """The segment combine before the one expert dispatch: per expert, gather
    its segments, FFN, scale by its row of D, scatter back."""
    out = None
    for i, (w1, w2) in enumerate(experts):
        chosen = assign.indices[i]
        y = ffn_forward(gather(seg_emb, chosen), w1, w2)
        d_row = reshape(narrow(assign.weights, 0, i, 1), (assign.capacity, 1))
        contrib = scatter(y * d_row, chosen, seg_emb.shape)
        out = contrib if out is None else out + contrib
    return out


class TestExpertChoiceRoute:
    def test_forced_top_k_case(self):
        g = np.array([[0.9, 0.1, 0.6, 0.4], [0.1, 0.9, 0.4, 0.6]])
        assign = route(g, 2)
        np.testing.assert_array_equal(assign.indices, [[0, 2], [1, 3]])
        np.testing.assert_allclose(assign.weights.data, [[0.9, 0.6], [0.9, 0.6]], atol=1e-15)

    def test_zero_router_ties_break_by_segment_id(self):
        rng = np.random.default_rng(1)
        router = Parameter("sr", np.zeros((5, 3)))
        seg_emb = Tensor(rng.normal(size=(7, 5)))
        assign = expert_choice_route(router, seg_emb, 2)
        np.testing.assert_array_equal(assign.indices, np.tile([0, 1], (3, 1)))
        np.testing.assert_allclose(assign.weights.data, 1.0 / 3.0, atol=1e-15)

    def test_each_expert_exactly_r_and_onehot_slices(self):
        rng = np.random.default_rng(2)
        router = Parameter("sr", rng.normal(size=(5, 4)))
        seg_emb = Tensor(rng.normal(size=(9, 5)))
        assign = expert_choice_route(router, seg_emb, 3)
        for i in range(4):
            assert len(set(assign.indices[i])) == 3
            # brute force: re-derive the top-3 per row from the gate matrix
            row = assign.gate_matrix.data[i]
            best = sorted(range(9), key=lambda v: (-row[v], v))[:3]
            np.testing.assert_array_equal(sorted(assign.indices[i]), sorted(best))
            for j in range(3):
                slice_ = assign.onehot[i, j]
                assert slice_.sum() == 1.0
                assert slice_[assign.indices[i, j]] == 1.0

    def test_gate_matrix_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        router = Parameter("sr", rng.normal(size=(6, 4)))
        seg_emb = Tensor(rng.normal(size=(8, 6)))
        assign = expert_choice_route(router, seg_emb, 2)
        np.testing.assert_allclose(assign.gate_matrix.data.sum(axis=0), 1.0, atol=1e-12)

    def test_capacity_exceeding_segments_rejected(self):
        router = Parameter("sr", np.zeros((4, 2)))
        with pytest.raises(ValueError, match="capacity"):
            expert_choice_route(router, Tensor(np.ones((3, 4))), 5)

    def test_exact_load_property(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            v = int(rng.integers(n, 20))
            # capacity_factor > num_experts is rejected by the config itself
            # (TestCapacity); clamp after the draw to keep the random stream.
            c = min(float(rng.integers(1, 3)), n)
            cfg_rand = cfg(n=n, c=c, hidden=4)
            r_raw = compute_capacity(v, cfg_rand)
            r = min(r_raw, v)
            router = Parameter("sr", rng.normal(size=(4, n)))
            seg_emb = Tensor(rng.normal(size=(v, 4)))
            assign = expert_choice_route(router, seg_emb, r)
            counts = np.bincount(assign.indices.reshape(-1), minlength=v)
            assert assign.indices.shape == (n, r)
            for i in range(n):
                assert len(set(assign.indices[i])) == r
            # coverage: mean selections per segment = r*n/v = c up to flooring
            assert abs(counts.mean() - r * n / v) < 1e-12
            if v * c >= n and r_raw <= v:  # away from the min-1 and r<=V clamps
                assert abs(counts.mean() - c) <= n / v + 1e-12
            # U consistency: recover I from U
            np.testing.assert_array_equal(np.argmax(assign.onehot, axis=2), assign.indices)
            np.testing.assert_allclose(assign.onehot.sum(axis=2), 1.0, atol=0)


class TestSegmentForward:
    def _experts(self, rng, n, hidden, ffn, scale=0.5):
        return [
            (
                Parameter(f"se{i}.w1", rng.normal(0, scale, size=(hidden, ffn))),
                Parameter(f"se{i}.w2", rng.normal(0, scale, size=(ffn, hidden))),
            )
            for i in range(n)
        ]

    def test_zero_experts_give_zero_output(self):
        rng = np.random.default_rng(5)
        experts = [
            (Parameter("w1", np.zeros((4, 6))), Parameter("w2", np.zeros((6, 4))))
            for _ in range(2)
        ]
        seg_emb = Tensor(rng.normal(size=(5, 4)))
        assign = route(rng.dirichlet(np.ones(5), size=2), 2)
        out = segment_moe_forward(experts, assign, seg_emb)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_single_expert_unit_weight(self):
        rng = np.random.default_rng(6)
        experts = self._experts(rng, 1, 4, 6)
        seg_emb = Tensor(rng.normal(size=(3, 4)))
        g = np.zeros((1, 3))
        g[0, 1] = 1.0
        assign = route(g, 1)
        assign = ExpertChoiceAssignment(
            assign.indices, Tensor(np.ones((1, 1))), 1, assign.gate_matrix
        )
        out = segment_moe_forward(experts, assign, seg_emb)
        from hymoe.dense import ffn_forward

        expected = ffn_forward(Tensor(seg_emb.data[1:2]), experts[0][0], experts[0][1])
        np.testing.assert_allclose(out.data[1], expected.data[0], atol=1e-14)
        np.testing.assert_array_equal(out.data[0], 0.0)
        np.testing.assert_array_equal(out.data[2], 0.0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        n, v, r, hidden, ffn = 3, 8, 2, 5, 7
        experts = self._experts(rng, n, hidden, ffn)
        seg_emb = Tensor(rng.normal(size=(v, hidden)))
        router = Parameter("sr", rng.normal(size=(hidden, n)))
        assign = expert_choice_route(router, seg_emb, r)
        out = segment_moe_forward(experts, assign, seg_emb)
        # oracle: explicit sums over (i, j, v) without any matrix dispatch
        expected = np.zeros((v, hidden))
        for i in range(n):
            w1, w2 = experts[i][0].data, experts[i][1].data
            for j in range(r):
                x_in = np.zeros(hidden)
                for vv in range(v):
                    x_in += assign.onehot[i, j, vv] * seg_emb.data[vv]
                pre = x_in @ w1
                y = (pre / (1.0 + np.exp(-pre))) @ w2
                for vv in range(v):
                    expected[vv] += assign.onehot[i, j, vv] * assign.weights.data[i, j] * y
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    # 5 x 8 picks of 20 segments: some segments are summed from several experts
    @pytest.mark.parametrize("n,v,r", [(6, 24, 4), (5, 20, 8)])
    def test_bitwise_equal_to_the_per_expert_loop(self, n, v, r):
        rng = np.random.default_rng(n * v)
        hidden = 16
        experts = self._experts(rng, n, hidden, 24)
        router = Parameter("sr", rng.normal(size=(hidden, n)))
        emb = Parameter("emb", rng.normal(size=(v, hidden)))
        up = Tensor(rng.normal(size=(v, hidden)))
        params = [router, emb, *[w for pair in experts for w in pair]]
        results = []
        for forward in (segment_moe_forward, _per_expert_loop):
            assign = expert_choice_route(router, emb, r)
            out = forward(experts, assign, emb)
            backward(tsum(out * up))
            results.append([out.data] + [p.grad for p in params])
            for p in params:
                p.grad = None
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_unselected_segments_are_zero_rows(self):
        rng = np.random.default_rng(8)
        experts = self._experts(rng, 2, 4, 5)
        seg_emb = Tensor(rng.normal(size=(6, 4)))
        router = Parameter("sr", rng.normal(size=(4, 2)))
        assign = expert_choice_route(router, seg_emb, 1)
        out = segment_moe_forward(experts, assign, seg_emb)
        unselected = set(range(6)) - set(assign.indices.reshape(-1).tolist())
        for v in unselected:
            np.testing.assert_array_equal(out.data[v], 0.0)


class TestFusion:
    def _fusion(self, hidden, identity=True):
        token = Parameter("fuse_tok", np.eye(hidden) if identity else np.zeros((hidden, hidden)))
        seg = Parameter("fuse_seg", np.zeros((hidden, hidden)))
        return token, seg

    def test_initialization_is_bitwise_identity(self):
        rng = np.random.default_rng(9)
        plan = partition_segments((8,), cfg(window=4, hidden=4), row_stride=8)
        o_tok = Tensor(rng.normal(size=(8, 4)))
        o_seg = Tensor(rng.normal(size=(2, 4)))
        out = fuse_layer_outputs(o_tok, o_seg, plan, *self._fusion(4))
        np.testing.assert_array_equal(out.data, o_tok.data)

    def test_segment_only_broadcasts_to_member_tokens(self):
        rng = np.random.default_rng(10)
        plan = partition_segments((6,), cfg(window=3, hidden=4), row_stride=6)
        o_tok = Tensor(rng.normal(size=(6, 4)))
        o_seg = Tensor(rng.normal(size=(2, 4)))
        fusion = Parameter("ft", np.zeros((4, 4))), Parameter("fs", np.eye(4))
        out = fuse_layer_outputs(o_tok, o_seg, plan, *fusion)
        for t in range(6):
            np.testing.assert_allclose(out.data[t], o_seg.data[t // 3], atol=1e-15)

    def test_leftover_tokens_receive_token_path_only(self):
        rng = np.random.default_rng(11)
        plan = partition_segments((7,), cfg(window=3, hidden=4), row_stride=10)
        o_tok = Tensor(rng.normal(size=(10, 4)))
        o_seg = Tensor(rng.normal(size=(2, 4)))
        w = rng.normal(size=(4, 4))
        fusion = Parameter("ft", w), Parameter("fs", rng.normal(size=(4, 4)))
        out = fuse_layer_outputs(o_tok, o_seg, plan, *fusion)
        np.testing.assert_allclose(out.data[6], o_tok.data[6] @ w, atol=1e-14)
        np.testing.assert_allclose(out.data[8], o_tok.data[8] @ w, atol=1e-14)

    def test_matches_per_token_loop_oracle(self):
        rng = np.random.default_rng(12)
        plan = partition_segments((6, 5), cfg(window=2, hidden=3), row_stride=6)
        o_tok = Tensor(rng.normal(size=(12, 3)))
        o_seg = Tensor(rng.normal(size=(plan.total_segments, 3)))
        wt, ws = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        fusion = Parameter("ft", wt), Parameter("fs", ws)
        out = fuse_layer_outputs(o_tok, o_seg, plan, *fusion)
        for row in range(12):
            seg_vec = np.zeros(3)
            for v, (b, start, end) in enumerate(plan.spans):
                if b * plan.row_stride + start <= row < b * plan.row_stride + end:
                    seg_vec = o_seg.data[v]
            np.testing.assert_allclose(
                out.data[row], o_tok.data[row] @ wt + seg_vec @ ws, atol=1e-12
            )


class TestGradients:
    def test_router_expert_fusion_grads(self):
        rng = np.random.default_rng(13)
        hidden, ffn, n, v, r = 5, 6, 3, 7, 2
        router = Parameter("sr", rng.normal(0, 0.8, size=(hidden, n)))
        experts = [
            (
                Parameter(f"se{i}.w1", rng.normal(0, 0.5, size=(hidden, ffn))),
                Parameter(f"se{i}.w2", rng.normal(0, 0.5, size=(ffn, hidden))),
            )
            for i in range(n)
        ]
        plan = partition_segments((v * 2,), cfg(n=n, window=2, hidden=hidden), row_stride=v * 2)
        fusion = (
            Parameter("ft", np.eye(hidden)),
            Parameter("fs", rng.normal(0, 0.3, size=(hidden, hidden))),
        )
        hidden_states = Tensor(rng.normal(size=(v * 2, hidden)))

        def build():
            seg_emb = embed_segments(plan, hidden_states)
            assign = expert_choice_route(router, seg_emb, r)
            o_seg = segment_moe_forward(experts, assign, seg_emb)
            fused = fuse_layer_outputs(hidden_states, o_seg, plan, *fusion)
            return tsum(fused * fused)

        # tie margin: ensure top-r boundaries are wide enough for h=1e-5 probes
        seg_emb = embed_segments(plan, hidden_states)
        assign = expert_choice_route(router, seg_emb, r)
        g = np.sort(assign.gate_matrix.data, axis=1)[:, ::-1]
        assert np.all(g[:, r - 1] - g[:, r] > 1e-3), "re-seed: tie too tight"

        loss = build()
        backward(loss)
        for p in (router, experts[0][0], experts[2][1], *fusion):
            analytic = p.grad.copy()
            p.grad = None
            numeric = finite_diff_grad(lambda p=p: build().item(), p)
            assert relative_error(analytic, numeric) <= 1e-6, p.name
        for pair in experts:
            for p in pair:
                p.grad = None
