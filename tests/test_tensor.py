import math

import numpy as np
import pytest

from hymoe.tensor import (
    Parameter,
    ShapeError,
    Tensor,
    backward,
    causal_attention,
    concat,
    finite_diff_grad,
    gather,
    log_softmax_axis,
    masked_fill,
    matmul,
    narrow,
    power,
    relative_error,
    reshape,
    row_runs_mean,
    scatter,
    silu,
    softmax_axis,
    spread_row_runs,
    tmean,
    top_k_indices,
    top_k_rows,
    transpose,
    tsum,
)


class TestMatmul:
    def test_identity_left(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_identity_column(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5], [7]])

    def test_forced_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3], [7]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_axis(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_forced_arithmetic(self):
        out = softmax_axis(Tensor([math.log(2.0), 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)

    def test_no_overflow_on_large_logits(self):
        out = softmax_axis(Tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-15)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            softmax_axis(Tensor(np.ones((2, 3))), axis=2)

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x = Tensor(rng.normal(0, 10, size=(rows, cols)))
            out = softmax_axis(x, axis=1)
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.all(out.data > 0)


class TestTopK:
    def test_forced(self):
        values, indices = top_k_indices(np.array([0.1, 0.9, 0.5]), 2)
        np.testing.assert_array_equal(values, [0.9, 0.5])
        np.testing.assert_array_equal(indices, [1, 2])

    def test_tie_goes_to_lower_index(self):
        _, indices = top_k_indices(np.array([0.5, 0.5, 0.1]), 1)
        np.testing.assert_array_equal(indices, [0])

    def test_singleton(self):
        values, indices = top_k_indices(np.array([3.0]), 1)
        np.testing.assert_array_equal(values, [3.0])
        np.testing.assert_array_equal(indices, [0])

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            top_k_indices(np.array([1.0, 2.0, 3.0]), k)

    def test_duplicated_max_keeps_lowest_index(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=8)
            _, base = top_k_indices(x, 1)
            dup_at = int(rng.integers(8))
            dup = x.copy()
            dup[dup_at] = x[base[0]]
            _, after = top_k_indices(dup, 1)
            assert after[0] == min(int(base[0]), dup_at)

    def test_output_sorted_desc_then_index(self):
        values, indices = top_k_indices(np.array([1.0, 3.0, 3.0, 2.0]), 3)
        np.testing.assert_array_equal(values, [3.0, 3.0, 2.0])
        np.testing.assert_array_equal(indices, [1, 2, 3])

    def test_row_variant_matches_1d(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(6, 10))
        rows = top_k_rows(mat, 3)
        for r in range(6):
            _, expect = top_k_indices(mat[r], 3)
            np.testing.assert_array_equal(rows[r], expect)


class TestFiniteDiff:
    def test_square(self):
        p = Parameter("x", np.array([3.0]))
        grad = finite_diff_grad(lambda: float(p.data[0]) ** 2, p, h=1e-5)
        assert abs(grad.data[0] - 6.0) <= 1e-9

    def test_softmax_sum_is_constant(self):
        p = Parameter("x", np.array([0.3, -1.2, 2.0]))
        grad = finite_diff_grad(
            lambda: softmax_axis(Tensor(p.data.copy()), 0).data.sum(), p, h=1e-5
        )
        np.testing.assert_allclose(grad.data, 0.0, atol=1e-8)

    def test_restores_parameter(self):
        p = Parameter("x", np.array([1.0, 2.0]))
        before = p.data.copy()
        finite_diff_grad(lambda: float(p.data.sum()), p)
        np.testing.assert_array_equal(p.data, before)


def _check_grad(build, p, h=1e-5, tol=1e-6):
    """Analytic gradient of build() (scalar Tensor) vs central differences."""
    loss = build()
    backward(loss)
    analytic = p.grad.copy()
    p.grad = None
    numeric = finite_diff_grad(lambda: build().item(), p, h=h)
    err = relative_error(analytic, numeric)
    assert err <= tol, f"gradient mismatch: rel err {err}"


class TestBackwardOps:
    """Every differentiable op, exercised through a scalar objective."""

    def test_matmul_softmax_chain(self):
        rng = np.random.default_rng(0)
        p = Parameter("w", rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(5, 4)))
        tgt = Tensor(rng.normal(size=(5, 3)))

        def build():
            y = softmax_axis(matmul(x, p), axis=1) + (-tgt)
            return tsum(y * y)

        _check_grad(build, p)

    def test_silu_log_exp_power(self):
        rng = np.random.default_rng(1)
        p = Parameter("w", rng.uniform(0.5, 2.0, size=(3, 3)))

        def build():
            y = silu(p) + power(p, 1.5)
            return tmean(y)

        _check_grad(build, p)

    def test_gather_scatter_narrow_concat(self):
        rng = np.random.default_rng(2)
        p = Parameter("w", rng.normal(size=(6, 4)))
        rows = np.array([0, 2, 2, 5])

        def build():
            g = gather(p, rows)
            s = scatter(g, np.array([1, 0, 3, 1]), (4, 4))
            left = narrow(s, 1, 0, 2)
            both = concat([left, left * 2.0], axis=1)
            return tsum(both * both)

        _check_grad(build, p)

    def test_take_along_scatter_cols_pairs(self):
        rng = np.random.default_rng(3)
        p = Parameter("w", rng.normal(size=(5, 6)))
        idx = np.array([[0, 3], [1, 2], [5, 0], [4, 4], [2, 1]])
        along = (np.arange(5)[:, None], idx)

        def build():
            picked = gather(p, along)
            dense = scatter(picked, along, (5, 6))
            pair = gather(dense, (np.array([0, 1, 4]), np.array([3, 1, 2])))
            return tsum(pair * pair) + tmean(dense)

        _check_grad(build, p)

    def test_masked_fill_log_softmax(self):
        rng = np.random.default_rng(4)
        p = Parameter("w", rng.normal(size=(4, 5)))
        mask = rng.random(size=(4, 5)) < 0.3
        mask[:, 0] = False  # keep at least one live column

        def build():
            y = log_softmax_axis(masked_fill(p, mask, -1e30), axis=1)
            live = gather(y, (np.arange(4), np.zeros(4, dtype=int)))
            return -tmean(live)

        _check_grad(build, p)

    def test_transpose_reshape_div(self):
        rng = np.random.default_rng(5)
        p = Parameter("w", rng.uniform(1.0, 2.0, size=(3, 4)))

        def build():
            t = transpose(p)
            flat = reshape(t, (12, 1))
            return tsum(flat / tsum(flat))  # constant 1 but exercises div backward

        loss = build()
        backward(loss)
        np.testing.assert_allclose(p.grad, 0.0, atol=1e-12)

    def test_broadcast_add_mul(self):
        rng = np.random.default_rng(6)
        p = Parameter("w", rng.normal(size=(1, 4)))
        x = Tensor(rng.normal(size=(5, 4)))

        def build():
            y = (x + p) * p
            return tsum(y * y)

        _check_grad(build, p)


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(t + t)


def test_no_tape_without_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = matmul(a, b)
    assert out._parents == () and not out.requires_grad


def test_parameter_trainable_flag_controls_grad():
    frozen = Parameter("f", np.ones((2, 2)), trainable=False)
    live = Parameter("l", np.ones((2, 2)), trainable=True)
    loss = tsum(matmul(frozen, live))
    backward(loss)
    assert frozen.grad is None
    assert live.grad is not None


def _check_grads(build, params, tol=1e-6):
    """Analytic gradients of build() for every trainable parameter vs central
    differences; frozen parameters must receive no gradient at all."""
    backward(build())
    analytic = {p.name: None if p.grad is None else p.grad.copy() for p in params}
    for p in params:
        p.grad = None
    for p in params:
        if not p.trainable:
            assert analytic[p.name] is None, f"frozen {p.name} received a gradient"
            continue
        numeric = finite_diff_grad(lambda: build().item(), p)
        err = relative_error(analytic[p.name], numeric)
        assert err <= tol, f"{p.name}: gradient mismatch, rel err {err}"


def _reference_attention(q, k, v, num_heads, length):
    """The op-by-op graph the blocked op replaces: one (sample, head) at a time."""
    mask = _causal(length)
    d = q.shape[1] // num_heads
    samples = []
    for b in range(q.shape[0] // length):
        heads = []
        for h in range(num_heads):
            qh = narrow(narrow(q, 0, b * length, length), 1, h * d, d)
            kh = narrow(narrow(k, 0, b * length, length), 1, h * d, d)
            vh = narrow(narrow(v, 0, b * length, length), 1, h * d, d)
            scores = matmul(qh, transpose(kh)) * d**-0.5
            probs = softmax_axis(masked_fill(scores, mask, -1e30), 1)
            heads.append(matmul(probs, vh))
        samples.append(concat(heads, axis=1))
    return concat(samples, axis=0)


def _causal(length):
    return np.triu(np.ones((length, length), dtype=bool), k=1)


class TestCausalAttention:
    # B = 3 samples of padded length L = 5, 2 heads of width 3.
    B, L, HEADS, HIDDEN = 3, 5, 2, 6

    def _params(self, frozen: str | None = None, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(self.B * self.L, self.HIDDEN)))
        ws = {n: Parameter(n, rng.normal(0, 0.6, size=(self.HIDDEN, self.HIDDEN)),
                           trainable=(n != frozen)) for n in ("wq", "wk", "wv")}
        return x, ws

    @pytest.mark.parametrize("frozen", [None, "wq", "wk", "wv"])
    def test_gradients_match_finite_differences(self, frozen):
        x, ws = self._params(frozen)
        weight = Tensor(np.random.default_rng(9).normal(size=(self.B * self.L, self.HIDDEN)))

        def build():
            out = causal_attention(matmul(x, ws["wq"]), matmul(x, ws["wk"]),
                                   matmul(x, ws["wv"]), self.HEADS, self.L)
            return tsum(out * weight)

        _check_grads(build, list(ws.values()))

    def test_frozen_inputs_build_no_tape(self):
        x, _ = self._params()
        out = causal_attention(x, x, x, self.HEADS, self.L)
        assert not out.requires_grad and out._parents == ()

    def test_equals_per_sample_per_head_reference(self):
        rng = np.random.default_rng(1)
        shape = (self.B * self.L, self.HIDDEN)
        inputs = [rng.normal(size=shape) for _ in range(3)]
        upstream = Tensor(rng.normal(size=shape))
        results = []
        for op in (causal_attention, _reference_attention):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
            out = op(*leaves, self.HEADS, self.L)
            backward(tsum(out * upstream))
            results.append((out.data, [t.grad for t in leaves]))
        (out, grads), (ref_out, ref_grads) = results
        np.testing.assert_array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, ref)

    def test_rejects_shapes_that_do_not_split(self):
        x = Tensor(np.ones((7, 6)))
        with pytest.raises(ShapeError):
            causal_attention(x, x, x, 2, 5)
        with pytest.raises(ShapeError):
            causal_attention(x, x, x, 4, 7)


def _op_and_input_grad(op, a, up):
    """Forward of ``op(a)`` and the gradient it hands ``a`` for upstream ``up``."""
    x = Tensor(a.copy(), requires_grad=True)
    out = op(x)
    backward(tsum(out * Tensor(up)))  # d/d(out) is exactly ``up``
    return out.data, x.grad


def _add_at(shape, index, values):
    out = np.zeros(shape)
    np.add.at(out, index, values)
    return out


class TestGatherScatter:
    """``gather`` and ``scatter`` against the formulas of the five index ops
    they replace (row gather/scatter, per-row column gather/scatter, element
    pairs), rebuilt here in plain numpy; every result must agree bit for bit."""

    a = np.random.default_rng(12).normal(size=(6, 5))
    rows = np.array([4, 0, 4, 2, 4, 5])  # duplicates sum in the backward
    cols = np.array([[0, 3, 3], [1, 2, 0], [4, 4, 4], [2, 1, 0], [3, 0, 1], [1, 1, 2]])
    along = (np.broadcast_to(np.arange(6)[:, None], cols.shape), cols)

    def _check(self, op, a, up, want_out, want_grad):
        got_out, got_grad = _op_and_input_grad(op, a, up)
        np.testing.assert_array_equal(got_out, want_out)
        np.testing.assert_array_equal(got_grad, want_grad)

    def test_rows(self):
        rng = np.random.default_rng(13)
        up = rng.normal(size=(6, 5))
        self._check(lambda x: gather(x, self.rows), self.a, up,
                    self.a[self.rows], _add_at(self.a.shape, self.rows, up))
        values = rng.normal(size=(6, 5))
        up = rng.normal(size=(7, 5))
        self._check(lambda v: scatter(v, self.rows, (7, 5)), values, up,
                    _add_at((7, 5), self.rows, values), up[self.rows])

    def test_columns_along_rows(self):
        rng = np.random.default_rng(14)
        up = rng.normal(size=self.cols.shape)
        index = (np.arange(6)[:, None], self.cols)
        self._check(lambda x: gather(x, index), self.a, up,
                    np.take_along_axis(self.a, self.cols, axis=1),
                    _add_at(self.a.shape, self.along, up))
        values = rng.normal(size=self.cols.shape)
        up = rng.normal(size=(6, 5))
        self._check(lambda v: scatter(v, index, (6, 5)), values, up,
                    _add_at((6, 5), self.along, values), up[self.along])

    def test_element_pairs(self):
        pairs = (np.array([0, 3, 3, 5, 0]), np.array([1, 4, 4, 0, 1]))
        up = np.random.default_rng(15).normal(size=5)
        self._check(lambda x: gather(x, pairs), self.a, up,
                    self.a[pairs], _add_at(self.a.shape, pairs, up))

    @pytest.mark.parametrize("index", [
        np.array([0, 6]),
        np.array([-1, 2]),
        (np.array([0, 1]), np.array([2, 5])),
        (np.array([0, 1]), np.array([1, 2, 3])),
        (np.array([0]), np.array([0]), np.array([0])),
    ], ids=["row_past_end", "negative_row", "col_past_end", "no_broadcast", "too_many_axes"])
    def test_index_that_does_not_fit_raises(self, index):
        with pytest.raises(ShapeError):
            gather(Tensor(self.a), index)
        with pytest.raises(ShapeError):
            scatter(Tensor(np.ones(2)), index, self.a.shape)

    def test_scatter_values_must_match_the_selection(self):
        with pytest.raises(ShapeError, match="values"):
            scatter(Tensor(np.ones((3, 4))), np.array([0, 1, 2]), (6, 5))


def _run_matrices(starts, width, num_rows):
    """The constant-matrix formulation the run ops replace: a [runs x rows]
    averaging matrix and a [rows x runs] copying matrix."""
    avg = np.zeros((len(starts), num_rows))
    copy = np.zeros((num_rows, len(starts)))
    for v, start in enumerate(starts):
        avg[v, start : start + width] = 1.0 / width
        copy[start : start + width, v] = 1.0
    return avg, copy


class TestRowRuns:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        starts, width, num_rows = np.array([1, 5, 12]), 3, 17  # ragged gaps, width 3
        p = Parameter("p", rng.normal(size=(num_rows, 4)))
        q = Parameter("q", rng.normal(size=(len(starts), 4)))
        weight = Tensor(rng.normal(size=(num_rows, 4)))

        def build():
            pooled = row_runs_mean(p, starts, width)
            spread = spread_row_runs(pooled * q, starts, width, num_rows)
            return tsum(spread * weight) + tsum(pooled * pooled)

        _check_grads(build, [p, q])

    def test_leftover_and_gap_rows_get_nothing(self):
        v = Tensor(np.arange(6.0).reshape(2, 3))
        out = spread_row_runs(v, np.array([1, 6]), 2, 9).data
        np.testing.assert_array_equal(out[[0, 3, 4, 5, 8]], 0.0)
        np.testing.assert_array_equal(out[[1, 2]], [v.data[0]] * 2)
        np.testing.assert_array_equal(out[[6, 7]], [v.data[1]] * 2)

    @pytest.mark.parametrize("width,tol", [(32, 0.0), (3, 1e-13), (24, 1e-13)])
    def test_match_the_constant_matrix_formulation(self, width, tol):
        # Desk-like layout: samples padded to a stride of 256 rows, each split
        # into full windows from its first row; width 32 must agree bit for bit.
        rng = np.random.default_rng(width)
        stride, lengths, hidden = 256, (256, 100, 7), 64
        starts = np.array([b * stride + j * width for b, t in enumerate(lengths)
                           for j in range(t // width)])
        num_rows = stride * len(lengths)
        avg, copy = _run_matrices(starts, width, num_rows)
        x_data = rng.normal(size=(num_rows, hidden))
        up_pool = Tensor(rng.normal(size=(len(starts), hidden)))
        up_spread = Tensor(rng.normal(size=(num_rows, hidden)))
        results = []
        for pool, spread in (
            (lambda a: row_runs_mean(a, starts, width),
             lambda v: spread_row_runs(v, starts, width, num_rows)),
            (lambda a: matmul(Tensor(avg), a), lambda v: matmul(Tensor(copy), v)),
        ):
            x = Tensor(x_data.copy(), requires_grad=True)
            v = Tensor(up_pool.data.copy(), requires_grad=True)
            pooled, spread_out = pool(x), spread(v)
            backward(tsum(pooled * up_pool) + tsum(spread_out * up_spread))
            results.append((pooled.data, spread_out.data, x.grad, v.grad))
        for got, want in zip(*results):
            if tol == 0.0:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=tol)


@pytest.mark.parametrize("second_first", [False, True])
def test_shared_upstream_gradient_is_never_mutated(second_first):
    """add hands one array to both parents and reshape passes a view on; a
    second contribution to one parent must not leak into the other."""
    rng = np.random.default_rng(8)
    p1 = Parameter("p1", rng.normal(size=(3, 4)))
    p2 = Parameter("p2", rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(4, 3)))
    extra = Tensor(rng.normal(size=(3, 4)))

    def build():
        a = p1 * p1
        b = p2 + 0.5
        shared = tsum(reshape(a + b, (4, 3)) * w)
        again = tsum(a * extra)  # a's second contribution
        return again + shared if second_first else shared + again

    _check_grads(build, [p1, p2])
