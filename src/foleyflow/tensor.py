"""Dense float64 tensors with tape-based reverse-mode autodiff.

The engine is deliberately small: exactly the ops a two-tower transformer
needs, all in float64 so numerical tolerances stay tight. Graphs are
dynamic and single-use: backward releases a graph as its sweep passes
it, so a forward's buffers go as soon as the last gradient rule that
reads them has run, and afterwards only the leaves hold gradients.
An op never mutates its operands' buffers, and its output has the shape
numpy gives its formula, 0-d included.
A rule, forward or backward, writes its intermediates into fresh buffers
of its own, with in-place ufuncs (out=, *=, +=), in the operation order
of the formula it implements, so its output has that formula's bits; a
forward rule never changes an array that its backward closure reads.
A backward rule may rebuild an intermediate from what its op keeps,
with the forward's exact operations, so the rebuilt array has the
forward's bits and the graph need not hold it between the passes.
Activations carry a leading batch axis, (B, T, d): matmul folds the
leading axes into rows and takes an optional bias, mlp is one fused
two-layer GELU MLP, attention is one fused multi-head op,
modulated_norm / gated_residual are the two halves of an adaLN-zero
sublayer, gather_rows selects items along the batch axis, an item as
often as it is named, and scatter_rows writes items back onto a base
batch.
Inside no_tape(), ops compute their outputs but record nothing for the
reverse pass, which a forward that is never differentiated, such as
sampling, does not need.
Broadcasting covers leading-dimension expansion plus trailing parameter
vectors (a strict subset of general numpy broadcasting is relied upon by
callers, though the gradient rules handle the general case).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "ComputationTape",
    "matmul",
    "elementwise",
    "add",
    "sub",
    "mul",
    "concat",
    "transpose",
    "modulated_norm",
    "gated_residual",
    "softmax",
    "gelu",
    "mlp",
    "attention",
    "gather_rows",
    "scatter_rows",
    "reduce_mean",
    "backward",
]

_GELU_C = math.sqrt(2.0 / math.pi)

# False inside no_tape(): _from_op then links no output to its operands
_taping = True


class Tensor:
    """A float64 array with an optional gradient and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done")

    def __init__(self, values, requires_grad: bool = False):
        # copy so the tensor owns its buffer
        self.data = np.array(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._done = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __add__(self, other):
        return add(self, _coerce(other))

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@contextlib.contextmanager
def no_tape():
    """Run ops untaped: within the block their outputs have no parents and
    requires_grad False, so backward through them raises ContractError and
    their operands are free as soon as the next op has read them. Output
    values are the same as taped. Blocks nest, and the previous setting
    comes back on exit, an exception included."""
    global _taping
    before, _taping = _taping, False
    try:
        yield
    finally:
        _taping = before


def _from_op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    # np.ascontiguousarray would make a 0-d result 1-D
    out.data = np.asarray(data, np.float64, "C")
    out.requires_grad = _taping and any(p.requires_grad for p in parents)
    out.grad = None
    out._done = False
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast to produce it."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """(..., m, k) @ (k, n), plus bias (n,) when given: the leading axes of
    a fold into rows of one product."""
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects (..., m, k) @ (k, n), got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    a_shape, n = a.shape, b.shape[1]
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"matmul bias {bias.shape} does not match output width {n}")
    a2d, b_data = a.data.reshape(-1, a_shape[-1]), b.data

    def bw(g):
        g2d = g.reshape(-1, n)
        # no product for an operand without a gradient, such as the model input
        da = (g2d @ b_data.T).reshape(a_shape) if a.requires_grad else None
        grads = (da, a2d.T @ g2d)
        return grads if bias is None else grads + (_unbroadcast(g, (n,)),)

    out = _product(a2d, b_data).reshape(a_shape[:-1] + (n,))
    if bias is None:
        return _from_op(out, (a, b), bw)
    out += bias.data
    return _from_op(out, (a, b, bias), bw)


def _product(a2d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a2d @ b for (m, k) rows a2d. One row would take BLAS gemv, which
    rounds unlike gemm: it runs as two and keeps the first, so a row's
    bits do not depend on its batch."""
    rows = a2d if len(a2d) > 1 else np.concatenate([a2d, a2d])
    return (rows @ b)[: len(a2d)]


def _broadcast_error(a: Tensor, b: Tensor, op: str) -> ShapeError:
    return ShapeError(f"{op} operands do not broadcast: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise _broadcast_error(a, b, "add") from None

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _from_op(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise _broadcast_error(a, b, "sub") from None

    def bw(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return _from_op(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data
    try:
        out = a_data * b_data
    except ValueError:
        raise _broadcast_error(a, b, "mul") from None

    def bw(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _from_op(out, (a, b), bw)


def elementwise(op: str, a: Tensor, b: Tensor) -> Tensor:
    """Dispatch one of the broadcasting binary ops by name."""
    try:
        fn = {"add": add, "sub": sub, "mul": mul}[op]
    except KeyError:
        raise ContractError(f"unknown elementwise op {op!r}") from None
    return fn(a, b)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading dims must match exactly."""
    if a.ndim != b.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat needs matching leading dims: {a.shape} vs {b.shape}")
    split = a.shape[-1]

    def bw(g):
        return g[..., :split].copy(), g[..., split:].copy()

    return _from_op(np.concatenate([a.data, b.data], axis=-1), (a, b), bw)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")

    def bw(g):
        return (g.T.copy(),)

    return _from_op(x.data.T, (x,), bw)


def _mod_chunk(x: Tensor, mod: Tensor, j: int, op: str) -> slice:
    """Chunk j, as wide as x's last axis, of mod's last axis."""
    x_shape, mod_shape = x.data.shape, mod.data.shape
    d = x_shape[-1]
    if len(mod_shape) != len(x_shape) or any(m not in (1, s) for m, s in zip(mod_shape[:-1], x_shape[:-1])):
        raise ShapeError(f"{op} modulation {mod_shape} does not broadcast over input {x_shape}")
    if j < 0 or mod_shape[-1] < (j + 1) * d:
        raise ShapeError(f"{op} modulation width {mod_shape[-1]} has no chunk {j} of width {d}")
    return slice(j * d, (j + 1) * d)


def _chunk_grad(mod: Tensor, *parts) -> np.ndarray:
    """A zero gradient for mod with each (chunk, gradient) pair written in place."""
    full = np.zeros(mod.shape, dtype=np.float64)
    for at, g in parts:
        full[..., at] = _unbroadcast(g, full[..., at].shape)
    return full


def modulated_norm(x: Tensor, mod: Tensor, i: int) -> Tensor:
    """The input of adaLN-zero sublayer i: layer_norm(x) * (1 + scale) + shift.

    mod is the adaLN output: for an (..., d) x, shift and scale are the
    chunks 3i and 3i+1, each d wide, of its last axis (the gate, chunk
    3i+2, is gated_residual's). Its leading axes broadcast over x's, so a
    (B, 1, n 3d) mod modulates every row of a (B, T, d) x. The norm has no
    affine parameters of its own: zero mean and unit biased variance over
    the last axis, with eps = 1e-5 keeping zero-variance rows finite (they
    normalize to zero).
    """
    shift_at = _mod_chunk(x, mod, 3 * i, "modulated_norm")
    scale_at = _mod_chunk(x, mod, 3 * i + 1, "modulated_norm")
    d = x.data.shape[-1]
    # a sum over the last axis divided by d is what np.mean computes
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= d
    xhat = x.data - mu  # centered here, normalized below
    out = xhat * xhat  # the squares; the output is written over them
    inv = np.add.reduce(out, axis=-1, keepdims=True)  # var, then 1 / sqrt(var + eps)
    inv /= d
    inv += 1e-5
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    scale1 = mod.data[..., scale_at] + 1.0

    def bw(g):
        # xhat again, from the input and the two (..., 1) statistics kept,
        # with the forward's operations
        xhat = x.data - mu
        xhat *= inv
        # dx = inv (dxhat - mean(dxhat) - xhat mean(dxhat xhat)), in two buffers
        dxhat = g * scale1  # becomes dx
        term = dxhat * xhat  # dxhat xhat, then xhat mean(dxhat xhat), then g xhat
        mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True)
        mean_dxhat /= d
        mean_term = np.add.reduce(term, axis=-1, keepdims=True)
        mean_term /= d
        dxhat -= mean_dxhat
        np.multiply(xhat, mean_term, out=term)
        dxhat -= term
        dxhat *= inv
        np.multiply(g, xhat, out=term)
        return dxhat, _chunk_grad(mod, (shift_at, g), (scale_at, term))

    np.multiply(xhat, scale1, out=out)
    out += mod.data[..., shift_at]
    return _from_op(out, (x, mod), bw)


def gated_residual(x: Tensor, mod: Tensor, i: int, y: Tensor) -> Tensor:
    """The output of adaLN-zero sublayer i: x + gate * y, the gate being
    chunk 3i+2 of mod's last axis (see modulated_norm)."""
    if y.shape != x.shape:
        raise ShapeError(f"gated_residual branch {y.shape} does not match stream {x.shape}")
    gate_at = _mod_chunk(x, mod, 3 * i + 2, "gated_residual")
    gate, y_data = mod.data[..., gate_at], y.data

    def bw(g):
        return g, _chunk_grad(mod, (gate_at, g * y_data)), g * gate

    out = gate * y_data
    out += x.data
    return _from_op(out, (x, mod, y), bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for overflow safety."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _from_op(s, (x,), bw)


def _gelu_tanh(v: np.ndarray) -> np.ndarray:
    """t = tanh(_GELU_C * (v + 0.044715 * (v * v * v))), built in one
    buffer; empty_like keeps it an array when v is 0-d."""
    t = np.empty_like(v)
    np.multiply(v, v, out=t)
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_out(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's output 0.5 v (1 + t) of v and its _gelu_tanh t."""
    out = 0.5 * v
    out *= 1.0 + t
    return out


def _gelu_grad(v: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of v, given its _gelu_tanh t and the output gradient g:
    g * (0.5 (1 + t) + 0.5 v (1 - t t) dinner), dinner being
    _GELU_C (1 + 3 0.044715 v v), in three buffers like v."""
    dinner = np.multiply(v, 3.0 * 0.044715, out=np.empty_like(v))
    dinner *= v
    dinner += 1.0
    dinner *= _GELU_C
    one_minus_t2 = np.multiply(t, t, out=np.empty_like(v))
    np.subtract(1.0, one_minus_t2, out=one_minus_t2)
    local = np.multiply(v, 0.5, out=np.empty_like(v))
    local *= one_minus_t2
    local *= dinner
    np.add(t, 1.0, out=one_minus_t2)  # now 1 + t
    one_minus_t2 *= 0.5
    local += one_minus_t2
    local *= g
    return local


def gelu(x: Tensor) -> Tensor:
    """GELU via the tanh approximation."""
    v = x.data
    t = _gelu_tanh(v)

    def bw(g):
        return (_gelu_grad(v, t, g),)

    return _from_op(_gelu_out(v, t), (x,), bw)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """matmul(gelu(matmul(x, w1, b1)), w2, b2) as one op, with the bits of
    those three ops, forward and backward.

    It keeps x's rows, the pre-activation h and its tanh t, but not the
    GELU output, which only w2's gradient reads: the backward rebuilds it
    from h and t with the forward's operations.
    """
    if x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeError(f"mlp expects (..., m, k) @ (k, h) @ (h, n), got {x.shape}, {w1.shape} and {w2.shape}")
    if b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]:
        raise ShapeError(f"mlp biases {b1.shape} and {b2.shape} do not match widths {w1.shape[1]} and {w2.shape[1]}")
    x_shape, hidden, n = x.shape, w1.shape[1], w2.shape[1]
    x2d, w1_data, w2_data = x.data.reshape(-1, x_shape[-1]), w1.data, w2.data
    h = _product(x2d, w1_data).reshape(x_shape[:-1] + (hidden,))
    h += b1.data
    t = _gelu_tanh(h)

    def bw(g):
        # fc2's rule, then gelu's on the pre-activation, then fc1's
        g2d = g.reshape(-1, n)
        dw2 = _gelu_out(h, t).reshape(-1, hidden).T @ g2d
        dh = _gelu_grad(h, t, (g2d @ w2_data.T).reshape(h.shape))
        dh2d = dh.reshape(-1, hidden)
        dx = (dh2d @ w1_data.T).reshape(x_shape) if x.requires_grad else None
        return dx, x2d.T @ dh2d, _unbroadcast(dh, (hidden,)), dw2, _unbroadcast(g, (n,))

    out = _product(_gelu_out(h, t).reshape(-1, hidden), w2_data).reshape(x_shape[:-1] + (n,))
    out += b2.data
    return _from_op(out, (x, w1, b1, w2, b2), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, key_mask=None) -> Tensor:
    """Multi-head scaled dot-product attention over (B, T, d) operands.

    q is (B, Tq, d); k and v are (B, Tk, d). Head h reads the columns
    [h d/n_heads, (h+1) d/n_heads) of each operand and writes the same
    columns of the (B, Tq, d) output. key_mask, when given, is a (B, Tk)
    boolean array, True where a key may be attended; masked keys get
    exactly zero probability, so padding an item's keys changes its
    output only by round-off. The softmax probabilities are kept for
    the backward pass.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(f"attention expects (B, T, d) operands, got {q.shape}, {k.shape}, {v.shape}")
    batch, t_q, d = q.shape
    t_k = k.shape[1]
    if k.shape != (batch, t_k, d) or v.shape != k.shape:
        raise ShapeError(f"attention operands do not match: q {q.shape}, k {k.shape}, v {v.shape}")
    if n_heads < 1 or d % n_heads != 0:
        raise ContractError(f"attention width {d} not divisible into {n_heads} heads")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def heads(x: np.ndarray) -> np.ndarray:  # (B, T, d) -> (B, H, T, dh) view
        return x.reshape(batch, x.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scores = qh @ kh.transpose(0, 1, 3, 2)  # (B, H, Tq, Tk)
    scores *= scale
    if key_mask is not None:
        keep = np.asarray(key_mask, dtype=bool)
        if keep.shape != (batch, t_k):
            raise ShapeError(f"key_mask shape {keep.shape} != (B, Tk) = ({batch}, {t_k})")
        if not keep.any(axis=1).all():
            raise ContractError("key_mask hides every key of some item")
        np.copyto(scores, -np.inf, where=~keep[:, None, None, :])
    # the softmax, in the scores' buffer. Its row max is one reduce over a
    # key-major copy: a reduce over the short last axis pays a fixed cost
    # per row, and a max is exact in any order
    scores -= np.maximum.reduce(scores.transpose(3, 0, 1, 2).copy(), axis=0)[..., None]
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    probs = scores

    def merge(xh: np.ndarray) -> np.ndarray:  # (B, H, T, dh) -> (B, T, d)
        return xh.transpose(0, 2, 1, 3).reshape(batch, xh.shape[2], d)

    def bw(g):
        gh = heads(g)
        dv = probs.transpose(0, 1, 3, 2) @ gh
        ds = gh @ vh.transpose(0, 1, 3, 2)  # dp, the gradient of probs
        # ds = probs * (dp - (dp * probs).sum(-1)) * scale, built in dp's
        # buffer in that order; dp * probs is its one full-size temporary
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        np.multiply(probs, ds, out=ds)
        ds *= scale
        return merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh), merge(dv)

    return _from_op(merge(probs @ vh), (q, k, v), bw)


def _batch_rows(rows, n: int, distinct: bool) -> np.ndarray:
    idx = np.asarray(rows)
    # numpy reads a bool among ints as 0 or 1, so each item's type is checked too
    integers = idx.dtype.kind in "iu" and idx.ndim == 1 and not any(isinstance(r, (bool, np.bool_)) for r in rows)
    if not integers or idx.size == 0 or idx.min() < 0 or idx.max() >= n or distinct and len(set(idx.tolist())) != idx.size:
        kind = "distinct integer" if distinct else "integer"
        raise ContractError(f"rows must be {kind} indices in [0, {n}), got {rows!r}")
    return idx.astype(np.intp, copy=False)


def gather_rows(x: Tensor, rows) -> Tensor:
    """The items rows of x along the batch (first) axis, where an item may
    be taken more than once; its gradient is the sum over its copies."""
    idx = _batch_rows(rows, x.shape[0], distinct=False)

    def bw(g):
        grad = np.zeros(x.shape, dtype=np.float64)
        # np.add.at sums a repeated item's copies; assignment, about ten
        # times faster, is enough when each item is taken once
        if len(set(idx.tolist())) == idx.size:
            grad[idx] = g
        else:
            np.add.at(grad, idx, g)
        return (grad,)

    return _from_op(x.data[idx], (x,), bw)


def scatter_rows(x: Tensor, rows, base: Tensor) -> Tensor:
    """base with item rows[i] replaced by x[i] along the batch (first) axis.

    x's gradient gathers those rows of the output's, and base's is the
    output's with those rows zeroed.
    """
    idx = _batch_rows(rows, base.shape[0], distinct=True)
    if x.shape != (idx.size,) + base.shape[1:]:
        raise ShapeError(f"scatter_rows got {x.shape} for {idx.size} rows of {base.shape}")
    out = base.data.copy()
    out[idx] = x.data

    def bw(g):
        g_base = g.copy()
        g_base[idx] = 0.0
        return g_base, g[idx]

    return _from_op(out, (base, x), bw)


def reduce_mean(x: Tensor) -> Tensor:
    scale = 1.0 / x.size

    def bw(g):
        return (np.full(x.shape, float(g) * scale, dtype=np.float64),)

    return _from_op(np.asarray(x.data.mean()), (x,), bw)


# ---------------------------------------------------------------------------
# reverse pass


class ComputationTape:
    """Topologically ordered record of the ops reaching one output.

    nodes[i]'s parents always appear at indices < i, so a reverse sweep
    visits every node exactly once with its output gradient complete.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationTape":
        """The nodes reaching root, parents first; a node that an earlier
        backward swept is a ContractError, since its graph is gone."""
        order: list = []
        seen: set = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._done:
                raise ContractError(
                    "backward reached a tensor whose graph an earlier backward released; "
                    "rebuild the graph, e.g. a fresh model.condition, to differentiate again"
                )
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf.

    loss must be a single-element tensor attached to a non-empty graph.
    The sweep releases the graph as it passes it: once a node's rule has
    run, the node drops its .grad, its rule and its parent links and is
    marked swept, so a forward buffer is free as soon as the last rule
    that reads it has run. Afterwards only the leaves (tensors with no
    recorded op, such as parameters) hold a .grad, and the loss its
    .data. So a graph is single-use: a backward that reaches a swept
    node, through the same loss or through a tensor a new forward reused,
    raises before it changes any gradient.
    A leaf's first gradient is stored as its op's backward returned it,
    which may be a view shared with another tensor; a later one is added
    out of place. So a leaf's .grad is read-only: never change one in place.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = ComputationTape.trace(loss).nodes
    if loss._backward is None:
        raise ContractError("backward called on a tensor with no recorded ops")
    loss.grad = np.ones_like(loss.data)
    while nodes:
        node = nodes.pop()
        if node._backward is None:
            continue  # a leaf keeps its gradient
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                # out of place: add's backward hands both parents views of one array
                parent.grad = parent.grad + g
        node.grad = node._backward = None
        node._parents = ()
        node._done = True
