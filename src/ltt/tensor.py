"""Dense tensors with reverse-mode autodiff on a per-episode tape.

Every op is a plain function returning a new Tensor. When a Tape is active
and an input is grad-tracked, the result remembers its parents and a
backward closure; backward() walks the graph in reverse topological order and
frees it as it goes. Outside a tape (or under no_grad) ops are pure numpy forwards.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

GELU_K0 = 0.7978845608028654  # sqrt(2/pi)
GELU_K1 = 0.044715
LAYERNORM_EPS = 1e-5


class ShapeError(ValueError):
    pass


_tls = threading.local()


def _tape_stack() -> list:
    if not hasattr(_tls, "stack"):
        _tls.stack = []
    return _tls.stack


class Tape:
    """Records how many graph nodes were created while active.

    One tape per episode/step. The graph hangs off the tensors, not the tape,
    and backward() frees it as it walks it.
    """

    def __init__(self):
        self.num_nodes = 0

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


class no_grad:
    """Disable recording inside the block, even under an outer tape."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


def active_tape() -> Optional[Tape]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Optional[Callable] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _tracked(self) -> bool:
        return self.requires_grad or self._backward is not None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(p._tracked() for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        tape.num_nodes += 1
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad if grad.shape == shape else grad.reshape(shape)


def _check_same_dtype(op: str, a: Tensor, b: Tensor):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype("add", a, b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    need_a, need_b = a._tracked(), b._tracked()

    def backward(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(g, b.shape) if need_b else None)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype("mul", a, b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    need_a, need_b = a._tracked(), b._tracked()

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if need_a else None,
                _unbroadcast(g * a.data, b.shape) if need_b else None)

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data
    need_a, need_b = a._tracked(), b._tracked()

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if need_a else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if need_b else None
        return ga, gb

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w.T (+ b) as one node; w is stored (out, in), b is (out,)."""
    _check_same_dtype("linear", x, w)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: cannot apply weight {w.shape} to {x.shape}")
    if b is not None and (b.shape != w.shape[:1] or b.dtype != w.dtype):
        raise ShapeError(f"linear: bias {b.shape} {b.dtype} does not fit weight {w.shape}")
    data = x.data @ w.data.T
    if b is not None:
        data += b.data
    need_x, need_w, need_b = x._tracked(), w._tracked(), b is not None and b._tracked()

    def backward(g):
        gx = g @ w.data if need_x else None
        gw = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape[::-1]).T if need_w else None
        return gx, gw, _unbroadcast(g, b.shape) if need_b else None

    return _make(data, (x, w) if b is None else (x, w, b), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _make(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"concat: dtype mismatch {dt} vs {t.data.dtype}")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, tuple(tensors), backward)


def index_select(a: Tensor, indices, axis: int = 0) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise ShapeError(f"index_select: index out of range for axis {axis} of {a.shape}")
    data = np.take(a.data, idx, axis=axis)

    def backward(g):
        buf = np.zeros(a.shape, dtype=a.data.dtype)
        moved = np.moveaxis(buf, axis, 0)
        np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        return (buf,)

    return _make(data, (a,), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(f"slice: [{start}:{stop}] invalid for axis {axis} of {a.shape}")
    sl = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))
    data = a.data[sl].copy()

    def backward(g):
        buf = np.zeros(a.shape, dtype=a.data.dtype)
        buf[sl] = g
        return (buf,)

    return _make(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inv),)

    return _make(data, (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}")

    def backward(g):
        return (_unbroadcast(g, a.shape),)

    return _make(data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    # tanh approximation, fixed so outputs agree across implementations:
    # 0.5 * x * (1 + tanh(K0 * (x + K1 * x^3))), in place in this order
    x = a.data
    t = x * x
    t *= x
    t *= GELU_K1
    t += x
    t *= GELU_K0
    np.tanh(t, out=t)
    data = x * 0.5
    data *= t + 1.0

    def backward(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * K0 * (1 + 3 * K1 * x^2)), two buffers
        half = x * 0.5
        slope = np.multiply(t, t)
        np.subtract(1.0, slope, out=slope)
        half *= slope
        np.multiply(x, x, out=slope)
        slope *= 3.0 * GELU_K1
        slope += 1.0
        slope *= GELU_K0
        slope *= half
        dgdx = np.add(t, 1.0, out=half)
        dgdx *= 0.5
        dgdx += slope
        dgdx *= g
        return (dgdx,)

    return _make(data, (a,), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = LAYERNORM_EPS) -> Tensor:
    if not (a.shape[-1] == gamma.shape[-1] == beta.shape[-1]
            and a.dtype == gamma.dtype == beta.dtype):
        raise ShapeError(f"layer_norm: x {a.shape} {a.dtype} vs gamma {gamma.shape} "
                         f"{gamma.dtype}, beta {beta.shape} {beta.dtype}")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    buf = xhat * xhat  # variance as np.var takes it: squared deviations summed, / count
    var = buf.sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = np.multiply(xhat, gamma.data, out=buf)
    data += beta.data
    need_gamma, need_beta = gamma._tracked(), beta._tracked()

    def backward(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gamma
        dx = g * gamma.data
        tmp = dx * xhat
        xhat_dot = tmp.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, xhat_dot, out=tmp)
        dx *= inv
        lead = tuple(range(g.ndim - 1))
        dgamma = np.multiply(g, xhat, out=tmp).sum(axis=lead) if need_gamma else None
        return dx, dgamma, g.sum(axis=lead) if need_beta else None

    return _make(data, (a, gamma, beta), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    data = x - x.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        buf = g * data
        np.subtract(g, buf.sum(axis=axis, keepdims=True), out=buf)
        buf *= data
        return (buf,)

    return _make(data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    p = np.exp(data)

    def backward(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _make(data, (a,), backward)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    x = a.data
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    norm = np.maximum(norm, eps)
    data = x / norm
    y = data

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - y * dot) / norm,)

    return _make(data, (a,), backward)


def mse(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("mse", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} and {b.shape} differ")
    diff = a.data - b.data
    n = diff.size
    data = np.asarray((diff * diff).sum() / n, dtype=a.data.dtype)

    def backward(g):
        scale = 2.0 * float(g) / n
        return scale * diff, -scale * diff

    return _make(data, (a, b), backward)


def entropy(p: Tensor) -> Tensor:
    """Shannon entropy (natural log) of the whole tensor, with 0*ln 0 := 0."""
    x = p.data
    mask = x > 0
    logs = np.zeros_like(x)
    logs[mask] = np.log(x[mask])
    data = np.asarray(-(x * logs).sum(), dtype=x.dtype)

    def backward(g):
        grad = np.zeros_like(x)
        grad[mask] = -(logs[mask] + 1.0)
        return (float(g) * grad,)

    return _make(data, (p,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor):
    """Populate .grad on every tracked leaf reachable from `loss` and consume the
    graph: a node's grad, closure and parents are released once its closure has
    run, so activations are freed as the walk goes and a second walk raises."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._backward is None:
        raise ShapeError("backward: loss has no graph (untracked, or already walked)")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        closure, g_out, parents = node._backward, node.grad, node._parents
        if closure is None:  # a leaf keeps its .grad
            continue
        node.grad, node._backward, node._parents = None, None, ()
        if g_out is None:
            continue
        grads = closure(g_out)
        for parent, raw in zip(parents, grads):
            if raw is None or not parent._tracked():
                continue
            g = np.asarray(raw, dtype=parent.data.dtype)
            if g.shape != parent.shape:
                g = g.reshape(parent.shape)
            if parent.grad is not None:
                parent.grad += g
            elif g.base is None and g.flags.c_contiguous and sum(o is raw for o in grads) == 1:
                parent.grad = g  # a fresh C-ordered array handed to this parent alone
            else:
                parent.grad = g.copy()
