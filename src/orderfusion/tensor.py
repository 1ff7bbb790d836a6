"""Dense float tensors with reverse-mode automatic differentiation.

An op whose result needs a gradient gives it a graph record, a ``_Node``:
the parents' gradient sinks and a backward closure. The record holds no
value, and each closure keeps only the arrays its gradient formula reads,
so an op output that no formula reads is freed as soon as the caller drops
it. Calling :func:`backward` on a scalar replays the closures in reverse
topological order. The engine is deliberately small: 2-D matrices plus an
optional leading batch axis, no in-place forward ops. Op results are fresh
arrays, except that ``transpose`` returns a ``swapaxes`` view of its input.
Forward computation is pure, so separate graphs can live on separate
threads; a single graph must stay on one thread.

The engine computes in the dtype of its inputs. A float32 array stays
float32, and a tensor built from one shares it; any other input becomes
float64 (shared when it already is). A Python scalar operand, as in
``x - 1.0``, takes its tensor operand's dtype, and every gradient takes the
dtype of its op's output, so float32 inputs and leaves give float32 outputs
and gradients throughout. Operands of mixed dtypes follow NumPy's promotion.

Only leaves keep gradients. A tensor created with ``requires_grad=True``
owns a zero-filled ``grad`` buffer from birth. Each backward consumes its
graph; leaves keep adding across graphs until ``zero_grad``. An op output's
``grad`` is always ``None``: its gradient lives in its node during a
backward pass, which frees it once used.

NumPy reduces a short last axis one row at a time, at a fixed cost per row.
On rows of up to ``_SHORT_ROW`` (31), such as the 16-column attention maps
of the acceptance shape, ``softmax_rows`` takes its row max and row sums
with one elementwise op per column across all rows instead, in NumPy's own
summation order, so the bits are NumPy's; longer rows take NumPy's
reductions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeError",
    "GradError",
    "constant",
    "matmul",
    "transpose",
    "softmax_rows",
    "swish",
    "abs_",
    "maximum",
    "concat_cols",
    "mean_rows",
    "max_rows",
    "sum_all",
    "mean_all",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class GradError(RuntimeError):
    """Misuse of the backward machinery (e.g. backward on a non-scalar)."""


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim > 3:
        raise ShapeError(f"tensors are limited to rank <= 3, got rank {arr.ndim}")
    return arr


class Tensor:
    """A float32 or float64 array plus the autodiff bookkeeping attached to it."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants are wrapped without gradient tracking
    def __add__(self, other):
        return _add(self, _wrap(other, self))

    def __radd__(self, other):
        return _add(_wrap(other, self), self)

    def __sub__(self, other):
        return _sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return _sub(_wrap(other, self), self)

    def __mul__(self, other):
        return _mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return _mul(_wrap(other, self), self)

    def __neg__(self):
        return _mul(self, _wrap(-1.0, self))

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter:
    """A named leaf tensor; its value always tracks gradients.

    Name uniqueness is the owning model's responsibility, as is
    deterministic seeded initialization.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, values):
        self.name = name
        self.value = Tensor(values, requires_grad=True)

    @property
    def grad(self) -> np.ndarray:
        return self.value.grad

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def constant(values) -> Tensor:
    """Wrap raw values as a non-tracked tensor."""
    return Tensor(values, requires_grad=False)


def _wrap(x, like: Tensor | None = None) -> Tensor:
    """``x`` as a tensor; a Python scalar takes the dtype of ``like``, the
    other operand, since a float64 (1, 1) array would promote a float32 one."""
    if isinstance(x, Tensor):
        return x
    if like is not None and isinstance(x, (int, float)):
        x = np.asarray(x, dtype=like.data.dtype)
    return Tensor(x, requires_grad=False)


class _Node:
    """The graph record of one op output, without its value.

    ``parents`` holds one gradient sink per operand: its ``_Node``, the
    operand itself for a leaf, or None where no gradient is needed.
    ``backward_fn(grad)`` returns one gradient per operand; ``backward``
    drops those whose sink is None, so a closure may return None there,
    and sets ``backward_fn`` to None and ``parents`` to () once it has run.
    """

    __slots__ = ("parents", "backward_fn", "grad", "shape")

    def __init__(self, parents: tuple, backward_fn, shape: tuple[int, ...]):
        self.parents = parents
        self.backward_fn = backward_fn
        self.grad: np.ndarray | None = None
        self.shape = shape


def _sink(t: Tensor) -> _Node | Tensor | None:
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    sinks = tuple(_sink(p) for p in parents)
    out.requires_grad = any(s is not None for s in sinks)
    out._node = _Node(sinks, backward_fn, data.shape) if out.requires_grad else None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to an operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(sink: _Node | Tensor, grad: np.ndarray) -> None:
    """The only writer of gradients; leaves add in place into their buffer."""
    grad = _unbroadcast(grad, sink.shape)
    if type(sink) is _Node:  # out of place: _add hands one array to both parents
        sink.grad = grad if sink.grad is None else sink.grad + grad
    else:
        sink.grad += grad


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _broadcast_result(a: Tensor, b: Tensor, op: str) -> np.ndarray:
    try:
        if op == "add":
            return a.data + b.data
        if op == "sub":
            return a.data - b.data
        return a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from exc


def _add(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast_result(a, b, "add")

    def backward_fn(g):
        return g, g

    return _node(data, (a, b), backward_fn)


def _sub(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast_result(a, b, "sub")
    b_grad = b.requires_grad

    def backward_fn(g):
        return g, (-g if b_grad else None)

    return _node(data, (a, b), backward_fn)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast_result(a, b, "mul")
    # each side's gradient reads the other operand: keep it only if needed
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward_fn(g):
        return (None if b_data is None else g * b_data,
                None if a_data is None else g * a_data)

    return _node(data, (a, b), backward_fn)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    a = _wrap(a, b if isinstance(b, Tensor) else None)
    b = _wrap(b, a)
    data = np.maximum(a.data, b.data)
    take_a = a.data >= b.data

    def backward_fn(g):
        return g * take_a, g * ~take_a

    return _node(data, (a, b), backward_fn)


def abs_(x: Tensor) -> Tensor:
    """Elementwise absolute value; the subgradient at 0 is 0."""
    sign = np.sign(x.data)

    def backward_fn(g):
        return (g * sign,)

    return _node(np.abs(x.data), (x,), backward_fn)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x), with an overflow-free sigmoid.

    The sigmoid is built in the ``exp(-|x|)`` buffer and the output buffer
    holds ``1 + exp(-|x|)`` until the product overwrites it; the backward
    pass uses one scratch array. The numerator ``exp(min(x, 0))`` is 1 for
    x >= 0 and ``exp(-|x|)`` otherwise, bit for bit, and a second ``exp`` is
    cheaper than a masked copy.
    """
    d = x.data
    sig = np.abs(d)
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)                        # e = exp(-|x|)
    data = np.add(sig, 1.0)                     # 1 + e
    np.minimum(d, 0.0, out=sig)
    np.exp(sig, out=sig)                        # numerator: 1 for x >= 0, else e
    np.divide(sig, data, out=sig)
    np.multiply(d, sig, out=data)

    def backward_fn(g):
        # g * (sig * (1 + x * (1 - sig))), evaluated in that order
        s = np.subtract(1.0, sig)
        np.multiply(d, s, out=s)
        np.add(1.0, s, out=s)
        np.multiply(sig, s, out=s)
        np.multiply(g, s, out=s)
        return (s,)

    return _node(data, (x,), backward_fn)


# ---------------------------------------------------------------------------
# matrix ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported operand ranks: (2,2), (3,2) with the 2-D weight on the
    right, and (3,3) with matching batch size. Inner dimensions must agree.
    """
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    ra, rb = a.data.ndim, b.data.ndim
    if (ra, rb) == (2, 3):
        raise ShapeError("matmul: 2-D left with 3-D right is not supported")
    if ra == 3 and rb == 3 and a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"matmul: batch sizes disagree, {a.shape} x {b.shape}")
    data = a.data @ b.data
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward_fn(g):
        return (None if b_data is None else g @ np.swapaxes(b_data, -1, -2),
                None if a_data is None else np.swapaxes(a_data, -1, -2) @ g)

    return _node(data, (a, b), backward_fn)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""

    def backward_fn(g):
        return (np.swapaxes(g, -1, -2),)

    return _node(np.swapaxes(x.data, -1, -2), (x,), backward_fn)


# Rows up to this long are reduced column by column. NumPy reduces a last
# axis one row at a time, at a fixed cost per row that outweighs the work on
# rows this short; one elementwise op per column runs across all rows at
# once. Softmax fwd + bwd on float32 (rows, rows) maps, 2 vCPUs, numpy 2.4:
# 0.6-0.9x the time for rows of 16 to 31 over 64 or 512 maps, 1.2-1.7x for
# rows of 32 and 33; over 16 maps the per-op cost makes it 1.4-2.5x, tens of
# microseconds.
_SHORT_ROW = 31


def _row_max(s: np.ndarray, initial: float) -> np.ndarray:
    """``s.max(axis=-1, initial=initial)``, one elementwise maximum per column.
    A max is exact in any order; only the sign of a zero max can differ,
    and a zero max subtracts and exponentiates the same either way."""
    m = np.maximum(s[..., 0], initial)
    for j in range(1, s.shape[-1]):
        np.maximum(m, s[..., j], out=m)
    return m


def _row_sums(s: np.ndarray) -> np.ndarray:
    """``s.sum(axis=-1)`` bit for bit for rows of up to 128, one elementwise
    add per column, in the order of NumPy's pairwise sum: from 0.0, rows
    shorter than 8 add their terms in order; longer rows add every eighth
    term into eight accumulators, combine them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then add the
    terms left over in order."""
    n = s.shape[-1]
    if n < 8:
        total = np.add(s[..., 0], 0.0)
        for j in range(1, n):
            total += s[..., j]
        return total
    stop = n - n % 8
    acc = [s[..., j] for j in range(8)]
    for i in range(8, stop, 8):
        acc = [np.add(a, s[..., i + j]) for j, a in enumerate(acc)]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for j in range(stop, n):
        total += s[..., j]
    total += 0.0        # the reduction's start: a sum of -0.0 terms is 0.0
    return total


def softmax_rows(x: Tensor, scale: float = 1.0, lead: int = 0) -> Tensor:
    """Row-wise softmax of ``x * scale`` over the last axis, stabilized by
    max subtraction and computed in one buffer.

    ``lead`` counts implicit zero logits in front of each row: columns that
    are not materialized but still take softmax mass. With them the row max
    is ``max(rowmax, 0)`` and the denominator gains ``lead * exp(-max)``.
    The result covers the explicit columns only, so its rows sum to less
    than one when ``lead > 0``. The implicit columns are constants, so the
    backward pass is the plain ``s * (g - <g, s>) * scale``.

    Rows of up to ``_SHORT_ROW`` take their max, their denominator and the
    backward pass's ``<g, s>`` column by column (``_row_max``,
    ``_row_sums``), which is faster there; longer rows take NumPy's row
    reductions. Both give the same bits: the max is exact in any order,
    ``_row_sums`` adds in NumPy's own order, and every other step is
    elementwise.
    """
    s = np.multiply(x.data, scale)
    short = 0 < s.shape[-1] <= _SHORT_ROW
    # with ``lead`` the initial is the implicit zeros' clamp; an explicit
    # initial also takes numpy's faster reduce (about 3x on float32 rows)
    initial = 0.0 if lead else -np.inf
    if short:
        m = _row_max(s, initial)[..., None]
    else:
        m = s.max(axis=-1, keepdims=True, initial=initial)
    np.subtract(s, m, out=s)
    np.exp(s, out=s)
    denom = _row_sums(s)[..., None] if short else s.sum(axis=-1, keepdims=True)
    if lead:
        np.negative(m, out=m)
        denom += lead * np.exp(m)
    np.divide(s, denom, out=s)

    def backward_fn(g):
        # ds/dx through softmax: s * (g - <g, s>), times the folded scale
        gx = np.multiply(g, s)
        inner = _row_sums(gx)[..., None] if short else gx.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=gx)
        np.multiply(gx, s, out=gx)
        np.multiply(gx, scale, out=gx)
        return (gx,)

    return _node(s, (x,), backward_fn)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat_cols: leading shapes disagree, {a.shape} vs {b.shape}")
    na = a.data.shape[-1]

    def backward_fn(g):
        return g[..., :na], g[..., na:]

    return _node(np.concatenate([a.data, b.data], axis=-1), (a, b), backward_fn)


def mean_rows(x: Tensor, lead: int = 0) -> Tensor:
    """Mean over the row axis: (B, T, F) -> (B, F), (T, F) -> (1, F).

    Divides by the full row count, padded rows included. ``lead`` counts
    implicit all-zero rows in front of ``x``: they add nothing to the sum
    but count in the divisor ``T + lead``.
    """
    t = x.data.shape[-2]
    n = t + lead
    data = x.data.sum(axis=-2) / n
    if data.ndim == 1:
        data = data.reshape(1, -1)

    def backward_fn(g):
        return (np.repeat(np.expand_dims(g / n, -2), t, axis=-2),)

    return _node(data, (x,), backward_fn)


def max_rows(x: Tensor, lead: int = 0) -> Tensor:
    """Max over the row axis; ties route the gradient to the first row.

    ``lead`` counts implicit all-zero rows in front of ``x``: with any, the
    max is clamped at 0, and where it is not positive the gradient goes to
    those implicit rows (the first of them wins a tie at 0) and is dropped.
    """
    idx = np.expand_dims(x.data.argmax(axis=-2), -2)
    shape = x.data.shape
    data = x.data.max(axis=-2)
    if lead:
        explicit_wins = np.expand_dims(data > 0.0, -2)
        np.maximum(data, 0.0, out=data)
    if data.ndim == 1:
        data = data.reshape(1, -1)

    def backward_fn(g):
        g = g.reshape(idx.shape)
        if lead:
            g = np.where(explicit_wins, g, g.dtype.type(0))
        gx = np.zeros(shape, g.dtype)
        np.put_along_axis(gx, idx, g, axis=-2)
        return (gx,)

    return _node(data, (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a 1x1 tensor."""
    shape = x.data.shape

    def backward_fn(g):
        return (np.full(shape, g.reshape(()), g.dtype),)

    return _node(np.array([[x.data.sum()]], x.data.dtype), (x,), backward_fn)


def mean_all(x: Tensor) -> Tensor:
    """Mean of all entries, as a 1x1 tensor."""
    shape, n = x.data.shape, x.data.size

    def backward_fn(g):
        return (np.full(shape, g.reshape(()) / n, g.dtype),)

    return _node(np.array([[x.data.mean()]], x.data.dtype), (x,), backward_fn)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) into every leaf reachable from ``loss``.

    ``loss`` must be a 1x1 scalar. The pass consumes the graph: each node
    drops its closure, its parent links and its gradient once it has run,
    so the arrays they hold are freed during the pass, and a later backward
    that reaches a used node raises ``GradError``. Leaf gradients add into
    their buffers, so separate graphs accumulate until ``zero_grad``.
    """
    if loss.data.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    root = _sink(loss)

    topo: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)] if type(root) is _Node else []
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.backward_fn is None:
            raise GradError("backward reached a graph that an earlier backward already used")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if type(p) is _Node and id(p) not in seen:
                stack.append((p, False))

    _accumulate(root, np.ones_like(loss.data))
    for node in reversed(topo):
        grads = node.backward_fn(node.grad)
        parents = node.parents
        node.backward_fn = node.grad = None
        node.parents = ()
        for sink, g in zip(parents, grads):
            if sink is not None:
                _accumulate(sink, g)
        grads = g = None    # freed before the next closure runs
