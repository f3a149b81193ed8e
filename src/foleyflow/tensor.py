"""Dense float64 tensors with tape-based reverse-mode autodiff.

The engine is deliberately small: exactly the ops a two-tower transformer
needs, all in float64 so numerical tolerances stay tight. Graphs are
dynamic and single-use; an op never mutates its operands' buffers.
Broadcasting covers leading-dimension expansion plus trailing parameter
vectors (a strict subset of general numpy broadcasting is relied upon by
callers, though the gradient rules handle the general case).
"""

from __future__ import annotations

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
    "concat_rows",
    "narrow",
    "transpose",
    "layer_norm",
    "softmax",
    "gelu",
    "reduce_sum",
    "reduce_mean",
    "backward",
]

_GELU_C = math.sqrt(2.0 / math.pi)


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
        return tuple(self.data.shape)

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

    def backward(self) -> None:
        backward(self)

    def sum(self) -> "Tensor":
        return reduce_sum(self)

    def mean(self) -> "Tensor":
        return reduce_mean(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _coerce(other))


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _from_op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data, dtype=np.float64)
    out.requires_grad = any(p.requires_grad for p in parents)
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g):
        return g @ b_data.T, a_data.T @ g

    return _from_op(a_data @ b_data, (a, b), bw)


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op} operands do not broadcast: {a.shape} vs {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _from_op(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "sub")

    def bw(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return _from_op(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")
    a_data, b_data = a.data, b.data

    def bw(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _from_op(a_data * b_data, (a, b), bw)


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


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the first axis; trailing dims must match exactly."""
    if a.ndim != b.ndim or a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"concat_rows needs matching trailing dims: {a.shape} vs {b.shape}")
    split = a.shape[0]

    def bw(g):
        return g[:split].copy(), g[split:].copy()

    return _from_op(np.concatenate([a.data, b.data], axis=0), (a, b), bw)


def narrow(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start, stop) of the last axis."""
    d = x.shape[-1]
    if not (0 <= start < stop <= d):
        raise ContractError(f"narrow range [{start}, {stop}) invalid for last dim {d}")

    def bw(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[..., start:stop] = g
        return (full,)

    return _from_op(x.data[..., start:stop].copy(), (x,), bw)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")

    def bw(g):
        return (g.T.copy(),)

    return _from_op(x.data.T, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Variance is the biased estimate over the last axis; eps = 1e-5 keeps
    zero-variance rows finite (they normalize to zero).
    """
    d = x.shape[-1]
    if gain.shape[-1] != d or bias.shape[-1] != d:
        raise ShapeError(f"layer_norm affine dims {gain.shape}/{bias.shape} do not match input {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gain_data, bias_data = gain.data, bias.data

    def bw(g):
        dgain = _unbroadcast(g * xhat, gain.shape)
        dbias = _unbroadcast(g, bias.shape)
        dxhat = g * gain_data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return _from_op(xhat * gain_data + bias_data, (x, gain, bias), bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for overflow safety."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _from_op(s, (x,), bw)


def gelu(x: Tensor) -> Tensor:
    """GELU via the tanh approximation."""
    v = x.data
    inner = _GELU_C * (v + 0.044715 * v**3)
    t = np.tanh(inner)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * v * v)
        local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
        return (g * local,)

    return _from_op(0.5 * v * (1.0 + t), (x,), bw)


def reduce_sum(x: Tensor) -> Tensor:
    def bw(g):
        # g has a single element but ndim may be 1 (outputs are >= 1-D)
        return (np.full(x.shape, float(np.asarray(g).sum()), dtype=np.float64),)

    return _from_op(np.asarray(x.data.sum()), (x,), bw)


def reduce_mean(x: Tensor) -> Tensor:
    scale = 1.0 / x.size

    def bw(g):
        return (np.full(x.shape, float(np.asarray(g).sum()) * scale, dtype=np.float64),)

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
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf.

    loss must be a single-element tensor attached to a non-empty graph.
    A graph is single-use: a second backward through the same loss raises.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad or loss._backward is None:
        raise ContractError("backward called on a tensor with no recorded ops")
    if loss._done:
        raise ContractError("backward already ran for this graph; rebuild it to differentiate again")
    tape = ComputationTape.trace(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._backward is None:
            continue
        if node.grad is None:
            # recorded but never contributed to the loss
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros(parent.shape, dtype=np.float64)
            parent.grad += g
    loss._done = True
