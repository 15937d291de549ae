"""Dense float64 tensors with reverse-mode automatic differentiation.

Thin tape-based autograd over numpy arrays. Arrays are row-major float64
throughout; every op checks shapes eagerly and raises ``ShapeError`` with both
offending shapes in the message. Nodes that no gradient can reach carry no
tape, so inference-only passes build no graph, and every backward computes a
gradient product only for the operands that require grad (frozen weights
never get one).

Two index ops serve every lookup and dispatch: ``gather`` (``a[index]``) and
``scatter`` (``np.add.at`` into zeros), where ``index`` is an int array of
rows or a tuple of int arrays of elements. ``row_runs_mean`` and
``spread_row_runs`` cover disjoint runs of rows without ``np.add.at``.

A ``Parameter`` is a named leaf ``Tensor`` whose ``requires_grad`` is its
trainable flag, so model code hands parameters straight to the ops; a frozen
one is an ordinary constant operand.

A ``.grad`` array is never mutated in place. A second contribution rebinds it
to a fresh sum, so a backward may hand the same array, or a read-only view of
it, to several parents without copying.

Gradient verification never trusts this tape: ``finite_diff_grad`` is an
independent central-difference oracle that perturbs raw parameter storage.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


MASK_VALUE = -1e30  # what causal_attention sets a masked score to


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent."""


class Tensor:
    """A float64 array plus an optional position on the autodiff tape.

    Treat instances as immutable after construction: ops return new tensors,
    and mutating ``data`` in place invalidates any graph that references it
    (``finite_diff_grad`` does so deliberately and restores the original).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all arithmetic is defined by the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


class Parameter(Tensor):
    """A named leaf tensor; ``requires_grad`` is its trainable flag, the unit
    of the freeze policy. It owns its data: the constructor copies it once."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, trainable: bool = True):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=trainable)
        self.name = name

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape}, trainable={self.trainable})"


def constant(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Build an op result; drop the tape entirely when no parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(parent: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``parent.grad`` without writing in place.

    ``g`` may alias another node's gradient. Callers skip operands without
    ``requires_grad``; a single-input op needs no check, since its node is on
    the tape only when its input requires grad.
    """
    parent.grad = g if parent.grad is None else parent.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a: Tensor, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    a = constant(a)
    return _node(-a.data, (a,), lambda g: _accum(a, -g))


def power(a: Tensor, exponent: float) -> Tensor:
    a = constant(a)
    out_data = a.data**exponent

    def backward(g):
        _accum(a, g * exponent * a.data ** (exponent - 1.0))

    return _node(out_data, (a,), backward)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x); the smooth nonlinearity used by every FFN and expert."""
    a = constant(a)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out_data = a.data * sig

    def backward(g):
        _accum(a, g * sig * (1.0 + a.data * (1.0 - sig)))

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra and reductions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = constant(a), constant(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _node(out_data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    a = constant(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.shape}")
    return _node(a.data.T.copy(), (a,), lambda g: _accum(a, g.T))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = constant(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _node(out_data, (a,), backward)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = constant(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / count, a.data.shape).copy())

    return _node(out_data, (a,), backward)


def _check_axis(a: Tensor, axis: int) -> int:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"axis {axis} invalid for shape {a.shape}")
    return axis % a.ndim


def softmax_axis(a: Tensor, axis: int) -> Tensor:
    """Stable softmax along ``axis``: shift by the max, exponentiate, normalize."""
    a = constant(a)
    axis_n = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=axis_n, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis_n, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis_n, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _node(out_data, (a,), backward)


def log_softmax_axis(a: Tensor, axis: int) -> Tensor:
    a = constant(a)
    axis_n = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=axis_n, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis_n, keepdims=True))
    out_data = shifted - lse

    def backward(g):
        soft = np.exp(out_data)
        _accum(a, g - soft * g.sum(axis=axis_n, keepdims=True))

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# indexing, dispatch, and layout


def _fit_index(index, shape: tuple[int, ...], op: str):
    """``index`` as int64 array(s) checked against ``shape``, and the shape it selects."""
    parts = index if isinstance(index, tuple) else (index,)
    parts = tuple(np.asarray(p, dtype=np.int64) for p in parts)
    fits = len(parts) <= len(shape) and all(
        p.size == 0 or (p.min() >= 0 and p.max() < n) for p, n in zip(parts, shape)
    )
    try:
        picked = np.broadcast_shapes(*(p.shape for p in parts)) + tuple(shape[len(parts):])
    except ValueError:
        fits = False
    if not fits:
        spans = [(p.shape, int(p.min()), int(p.max())) if p.size else p.shape for p in parts]
        raise ShapeError(f"{op}: index (shape, min, max) {spans} does not fit shape {shape}")
    return (parts if isinstance(index, tuple) else parts[0]), picked


def _add_at(shape: tuple[int, ...], index, values: np.ndarray) -> np.ndarray:
    out = np.zeros(shape, dtype=np.float64)
    np.add.at(out, index, values)  # unbuffered: a repeated index sums
    return out


def gather(a: Tensor, index) -> Tensor:
    """``a[index]``: rows for an int array, elements for a tuple of int arrays.

    Backward adds into zeros with ``np.add.at``, so a row or element picked
    twice (an embedding lookup repeats token ids) sums both gradients.
    """
    a = constant(a)
    index, _ = _fit_index(index, a.shape, "gather")
    return _node(a.data[index], (a,), lambda g: _accum(a, _add_at(a.shape, index, g)))


def scatter(values: Tensor, index, shape: tuple[int, ...]) -> Tensor:
    """Add ``values`` into a zero array of ``shape`` at ``index``; the inverse of gather."""
    values = constant(values)
    index, picked = _fit_index(index, tuple(shape), "scatter")
    if values.shape != picked:
        raise ShapeError(f"scatter: values {values.shape} do not match index selection {picked}")
    out_data = _add_at(shape, index, values.data)
    return _node(out_data, (values,), lambda g: _accum(values, g[index]))


def row_runs_mean(a: Tensor, starts: np.ndarray, width: int) -> Tensor:
    """Mean of each run of ``width`` rows from ``starts``; runs must be disjoint."""
    a = constant(a)
    rows = np.asarray(starts, dtype=np.int64)[:, None] + np.arange(width)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[rows] = (g / width)[:, None, :]  # disjoint runs: assign, not add.at
        _accum(a, ga)

    return _node(a.data[rows].mean(axis=1), (a,), backward)


def spread_row_runs(v: Tensor, starts: np.ndarray, width: int, num_rows: int) -> Tensor:
    """Copy row i of ``v`` onto its run of rows of a zero matrix; runs must be disjoint."""
    v = constant(v)
    rows = np.asarray(starts, dtype=np.int64)[:, None] + np.arange(width)
    out_data = np.zeros((num_rows, v.data.shape[1]), dtype=np.float64)
    out_data[rows] = v.data[:, None, :]
    return _node(out_data, (v,), lambda g: _accum(v, g[rows].sum(axis=1)))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    a = constant(a)
    axis_n = _check_axis(a, axis)
    sl = [slice(None)] * a.ndim
    sl[axis_n] = slice(start, start + length)
    sl = tuple(sl)
    out_data = a.data[sl].copy()

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[sl] = g
        _accum(a, ga)

    return _node(out_data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [constant(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                _accum(t, g[tuple(sl)])
            offset += size

    return _node(out_data, tuple(tensors), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = constant(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(out_data, (a,), backward)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set entries where ``mask`` is true to ``value``; their gradient is cut."""
    a = constant(a)
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, value, a.data)

    def backward(g):
        _accum(a, np.where(mask, 0.0, g))

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# attention


def causal_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, length: int) -> Tensor:
    """Causal multi-head softmax attention over a flattened batch, as one tape op.

    ``q``, ``k`` and ``v`` are [B*L x hidden] with L = ``length``: sample b
    owns rows b*L..(b+1)*L and head h owns columns h*d..(h+1)*d. A query sees
    its own key and the ones before it; every later score is *set* to
    ``MASK_VALUE``. The work runs one (sample, head) block at a time so that
    each [L x L] block stays in cache, as in FlashAttention (Dao et al. 2022)
    but without its online softmax. Each block repeats the arithmetic of the
    op-by-op graph it replaces, so results are bitwise those of
    (q k^T) d^-1/2, a masked set, a max-shifted softmax and probs @ v. The
    probabilities are kept for the backward only when an input requires grad.
    """
    q, k, v = constant(q), constant(k), constant(v)
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"causal_attention: q, k, v shapes {q.shape}, {k.shape}, {v.shape}")
    rows, hidden = q.shape
    if rows % length or hidden % num_heads:
        raise ShapeError(
            f"causal_attention: {q.shape} does not split into [L={length}] samples "
            f"and {num_heads} heads"
        )
    mask = np.triu(np.ones((length, length), dtype=bool), k=1)
    d = hidden // num_heads
    scale = d**-0.5
    blocks = [
        (slice(b * length, (b + 1) * length), slice(h * d, (h + 1) * d))
        for b in range(rows // length)
        for h in range(num_heads)
    ]
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    probs: list[np.ndarray] = []
    out_data = np.empty_like(q.data)
    # Operands are contiguous copies laid out as in the op-by-op graph
    # (narrow, transpose), so BLAS takes the same path and rounds the same.
    # The [L x L] temporaries are scratch arrays, not gradients: updated in place.
    for r, c in blocks:
        p = np.ascontiguousarray(q.data[r, c]) @ np.ascontiguousarray(k.data[r, c].T)
        np.multiply(p, scale, out=p)
        np.copyto(p, MASK_VALUE, where=mask)
        np.subtract(p, p.max(axis=1, keepdims=True), out=p)
        np.exp(p, out=p)
        np.divide(p, p.sum(axis=1, keepdims=True), out=p)
        out_data[r, c] = p @ np.ascontiguousarray(v.data[r, c])
        if keep:
            probs.append(p)

    def backward(g):
        need_ds = q.requires_grad or k.requires_grad
        dq = np.empty_like(q.data) if q.requires_grad else None
        dk = np.empty_like(k.data) if k.requires_grad else None
        dv = np.empty_like(v.data) if v.requires_grad else None
        for (r, c), p in zip(blocks, probs):
            g_out = g[r, c]
            if dv is not None:
                dv[r, c] = p.T @ g_out
            if not need_ds:
                continue
            ds = g_out @ np.ascontiguousarray(v.data[r, c]).T  # dP, turned into dS in place
            np.subtract(ds, (ds * p).sum(axis=1, keepdims=True), out=ds)
            np.multiply(p, ds, out=ds)
            np.copyto(ds, 0.0, where=mask)
            np.multiply(ds, scale, out=ds)
            if dq is not None:
                dq[r, c] = ds @ np.ascontiguousarray(k.data[r, c].T).T
            if dk is not None:
                dk[r, c] = (np.ascontiguousarray(q.data[r, c]).T @ ds).T
        for t, grad in ((q, dq), (k, dk), (v, dv)):
            if grad is not None:
                _accum(t, grad)

    return _node(out_data, (q, k, v), backward)


# ---------------------------------------------------------------------------
# selection (discrete; never on the tape)


def top_k_indices(x, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest entries of a 1-D array.

    Ties break toward the lower index; output is sorted by descending value,
    then ascending index. Returns (values, indices) as plain arrays — the
    selection itself is a fixed, non-differentiable decision.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if data.ndim != 1:
        raise ShapeError(f"top_k_indices expects a 1-D input, got shape {data.shape}")
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k={k} out of range for length {data.shape[0]}")
    order = np.argsort(-data, kind="stable")[:k]
    return data[order].copy(), order.astype(np.int64)


def top_k_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k indices with the same tie rule as top_k_indices."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"top_k_rows expects a 2-D input, got shape {data.shape}")
    if not 1 <= k <= data.shape[1]:
        raise ValueError(f"k={k} out of range for row length {data.shape[1]}")
    return np.argsort(-data, axis=1, kind="stable")[:, :k].astype(np.int64)


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable grad-enabled tensor."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def finite_diff_grad(f: Callable[[], float], p: Parameter, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of ``f()`` w.r.t. every element of ``p``.

    ``f`` must be deterministic and the evaluation point must sit away from
    any top-k tie boundary, otherwise the ±h probes straddle a selection flip.
    Perturbs ``p`` in place and restores it exactly.
    """
    flat = p.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f())
        flat[i] = orig - h
        f_minus = float(f())
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return Tensor(grad.reshape(p.data.shape))


def relative_error(a, b) -> float:
    """Norm-based relative difference, safe near zero."""
    a = np.asarray(a.data if isinstance(a, Tensor) else a, dtype=np.float64)
    b = np.asarray(b.data if isinstance(b, Tensor) else b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)
