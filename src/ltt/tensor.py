"""Dense tensors with reverse-mode autodiff on a per-episode tape.

Every op is a plain function returning a new Tensor. When a Tape is open and
an input is grad-tracked, the result gets a graph node, kept on the tape in the
order made, whose closure holds only the arrays its gradient reads; backward()
replays the tape's nodes in reverse and frees them as it goes. Outside a tape
ops are pure numpy forwards.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Optional, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

GELU_K0 = 0.7978845608028654  # sqrt(2/pi)
GELU_K1 = 0.044715
LAYERNORM_EPS = 1e-5
L2_EPS = 1e-12  # floor of l2_normalize's norm
BLOCK = 1 << 16  # elements per block of gelu and of linear's weight gradient: their scratch size


class ShapeError(ValueError):
    pass


class Tape:
    """Records what was done while open: in `nodes` the graph nodes in the order
    made, and in `counts` what the image forward encoded (full/masked views and tokens).

    One tape per episode/step, and one open at a time. backward() replays the
    nodes in reverse; closing the tape spends every node left, so no graph
    spans or outlives its tape.
    """

    _open: Optional["Tape"] = None  # the one open tape

    def __init__(self):
        self.nodes: list[_Node] = []
        self.counts: Counter = Counter()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def __enter__(self) -> "Tape":
        if Tape._open is not None:
            raise RuntimeError("a tape is already open")
        Tape._open = self
        return self

    def __exit__(self, *exc):
        Tape._open = None
        for node in self.nodes:
            node.grad, node.backward, node.parents = None, None, ()
        return False


def active_tape() -> Optional[Tape]:
    return Tape._open


class _Node:
    """A recorded op: closure, parents and incoming gradient."""

    __slots__ = ("backward", "parents", "grad")

    def __init__(self, backward: Callable, parents: tuple):
        self.backward, self.parents, self.grad = backward, parents, None

    def _tracked(self) -> bool:
        return self.backward is not None  # a walked node, or one whose tape closed, is spent


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._node: Optional[_Node] = None

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
        return self.requires_grad or (self._node is not None and self._node._tracked())

    def _graph_ref(self):
        """What a node records for this input: its live node, itself as a leaf, or None."""
        if self._node is not None and self._node._tracked():
            return self._node
        return self if self.requires_grad else None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    out, tape = Tensor(data), Tape._open
    if tape is not None and any(p._tracked() for p in parents):
        out._node = _Node(backward, tuple(p._graph_ref() for p in parents))
        tape.nodes.append(out._node)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_same_dtype(op: str, a: Tensor, b: Tensor):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor | float) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype("add", a, b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    need_a, need_b = a._tracked(), b._tracked()
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype("mul", a, b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    need_a, need_b = a._tracked(), b._tracked()
    a_shape, b_shape = a.shape, b.shape
    a_data, b_data = (a.data if need_b else None), (b.data if need_a else None)

    def backward(g):
        return (_unbroadcast(g * b_data, a_shape) if need_a else None,
                _unbroadcast(g * a_data, b_shape) if need_b else None)

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("matmul", a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: need (m, n) @ (n, p), got {a.shape} @ {b.shape}")
    data = a.data @ b.data
    need_a, need_b = a._tracked(), b._tracked()
    a_data, b_data = (a.data if need_b else None), (b.data if need_a else None)

    def backward(g):
        return g @ b_data.T if need_a else None, a_data.T @ g if need_b else None

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
    x_data, w_data = (x.data if need_w else None), (w.data if need_x else None)
    b_shape = None if b is None else b.shape

    def backward(g):
        gx = g @ w_data if need_x else None
        gw = _weight_grad(x_data, g).T if need_w else None
        return gx, gw, _unbroadcast(g, b_shape) if need_b else None

    return _make(data, (x, w) if b is None else (x, w, b), backward)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Σ_b x_bᵀ g_b over the leading indices b of x (..., n, in) and g (..., n, out) with the
    bits of `(swapaxes(x) @ g).sum(leading axes)`, whose axis-0 sum adds slice after slice,
    but one batched product of a block of b at a time, after the running sum in slot 0."""
    if x.ndim == 2:
        return x.T @ g
    lead = math.prod(x.shape[:-2])  # not -1: a zero-width x or g has no size to infer it from
    x, g = np.swapaxes(x.reshape(lead, *x.shape[-2:]), 1, 2), g.reshape(lead, *g.shape[-2:])
    per = max(1, BLOCK // max(1, x.shape[1] * g.shape[2]))
    buf = np.zeros((min(per, len(x)) + 1, x.shape[1], g.shape[2]), x.dtype)
    for i in range(0, len(x), per):
        s, k = min(i, 1), min(per, len(x) - i)  # the first block has no running sum yet
        np.matmul(x[i:i + k], g[i:i + k], out=buf[s:s + k])
        buf[0] = buf[:s + k].sum(axis=0)
    return buf[0]


def mean(a: Tensor, axis: int) -> Tensor:
    data = a.data.mean(axis=axis)
    shape = a.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / shape[axis],)

    return _make(data, (a,), backward)


def tsum(a: Tensor) -> Tensor:  # of every element
    data = a.data.sum()
    shape = a.shape

    def backward(g):
        return (np.broadcast_to(g, shape).copy(),)

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
    shape, dtype = a.shape, a.dtype

    def backward(g):
        buf = np.zeros(shape, dtype=dtype)
        moved = np.moveaxis(buf, axis, 0)
        np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        return (buf,)

    return _make(data, (a,), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(f"slice: [{start}:{stop}] invalid for axis {axis} of {a.shape}")
    sl = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))
    data = a.data[sl].copy()
    shape, dtype = a.shape, a.dtype

    def backward(g):
        buf = np.zeros(shape, dtype=dtype)
        buf[sl] = g
        return (buf,)

    return _make(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    a_shape = a.shape

    def backward(g):
        return (g.reshape(a_shape),)

    return _make(data, (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}")
    a_shape = a.shape

    def backward(g):
        return (_unbroadcast(g, a_shape),)

    return _make(data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    # tanh approximation, fixed so outputs agree across implementations: 0.5 * x * (1 + t),
    # t = tanh(K0 * (x + K1 * x^3)), and for a tracked input the slope 0.5 * (1 + t) + 0.5 * x *
    # (1 - t^2) * K0 * (1 + 3 * K1 * x^2); in this order, in place, one block at a time
    x = a.data
    data = np.empty(x.shape, x.dtype)  # C order, so the flat views below write into it
    slope = np.empty(x.shape, x.dtype) if active_tape() is not None and a._tracked() else None
    xs, ds, ss = (None if y is None else y.reshape(-1) for y in (x, data, slope))
    t, u, v = (np.empty(min(BLOCK, x.size), x.dtype) for _ in range(3))
    for i in range(0, x.size, BLOCK):
        xb, db = xs[i:i + BLOCK], ds[i:i + BLOCK]
        tb, ub, vb = t[:xb.size], u[:xb.size], v[:xb.size]
        np.multiply(np.multiply(xb, xb, out=tb), xb, out=tb)
        tb *= GELU_K1
        tb += xb
        tb *= GELU_K0
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=ub)
        np.multiply(np.multiply(xb, 0.5, out=vb), ub, out=db)
        if ss is None:
            continue
        ub *= 0.5
        vb *= np.subtract(1.0, np.multiply(tb, tb, out=tb), out=tb)
        np.multiply(np.multiply(xb, xb, out=tb), 3.0 * GELU_K1, out=tb)
        tb += 1.0
        tb *= GELU_K0
        tb *= vb
        np.add(tb, ub, out=ss[i:i + BLOCK])

    def backward(g):
        # backward runs a closure once, so the slope can become the gradient
        return (np.multiply(slope, g, out=slope),)

    return _make(data, (a,), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
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
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= inv
    data = np.multiply(xhat, gamma.data, out=buf)
    data += beta.data
    need_gamma, need_beta = gamma._tracked(), beta._tracked()
    gamma_data = gamma.data

    def backward(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gamma
        dx = g * gamma_data
        tmp = dx * xhat
        xhat_dot = tmp.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, xhat_dot, out=tmp)
        dx *= inv
        lead = tuple(range(g.ndim - 1))
        dgamma = np.multiply(g, xhat, out=tmp).sum(axis=lead) if need_gamma else None
        return dx, dgamma, g.sum(axis=lead) if need_beta else None

    return _make(data, (a, gamma, beta), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = a.data
    data = x - x.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        return (_softmax_grad(g, data),)

    return _make(data, (a,), backward)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:  # into a fresh array
    buf = g * y
    np.subtract(g, buf.sum(axis=-1, keepdims=True), out=buf)
    buf *= y
    return buf


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """softmax(q k^T / sqrt(dh)) v over `num_heads` heads of (b, t, d) inputs, as one node."""
    if q.ndim != 3 or q.shape[2] % num_heads or len({(x.shape, x.dtype) for x in (q, k, v)}) > 1:
        raise ShapeError(f"attention: q, k, v {[(x.shape, str(x.dtype)) for x in (q, k, v)]} are "
                         f"not one (b, t, d) and dtype with d a multiple of {num_heads}")
    b, t, d = q.shape

    def merge(x: np.ndarray) -> np.ndarray:  # (b, h, t, dh) -> a fresh C-ordered (b, t, d)
        out = np.empty((b, t, d), x.dtype)
        out.reshape(b, t, num_heads, -1)[...] = x.transpose(0, 2, 1, 3)
        return out

    qh, kh, vh = (x.data.reshape(b, t, num_heads, -1).transpose(0, 2, 1, 3) for x in (q, k, v))
    scale = np.asarray(1.0 / np.sqrt(d // num_heads), dtype=q.dtype)
    att = qh @ np.swapaxes(kh, -1, -2)
    att *= scale
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    data = merge(att @ vh)
    need_q, need_k, need_v = q._tracked(), k._tracked(), v._tracked()
    qh, kh = (qh if need_k else None), (kh if need_q else None)  # a view holds its whole input
    vh = vh if need_q or need_k else None  # read only for the scores' gradient

    def backward(g):
        gh = np.ascontiguousarray(g.reshape(b, t, num_heads, -1).transpose(0, 2, 1, 3))
        gs = None if vh is None else _softmax_grad(gh @ np.swapaxes(vh, -1, -2), att) * scale
        return (merge(gs @ kh) if need_q else None,
                merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)) if need_k else None,
                merge(np.swapaxes(att, -1, -2) @ gh) if need_v else None)

    return _make(data, (q, k, v), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    p = np.exp(data)

    def backward(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _make(data, (a,), backward)


def l2_normalize(a: Tensor) -> Tensor:
    """Each row over the last axis divided by its norm, floored at L2_EPS."""
    x = a.data
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    norm = np.maximum(norm, L2_EPS)
    data = x / norm

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return ((g - data * dot) / norm,)

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
        grad = np.zeros_like(logs)
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
    """Populate .grad on every tracked leaf reachable from `loss` by replaying the
    open tape in reverse, which visits each node after every node that reads it.
    A node's grad, closure and parents are released once its closure has run, so
    the arrays it holds are freed as the walk goes and a second walk raises."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._node is None or not loss._node._tracked():
        raise ShapeError("backward: loss has no graph (untracked, or already walked)")

    loss._node.grad = np.ones_like(loss.data)
    for node in reversed(Tape._open.nodes):
        if node.grad is None:  # off this loss's path, or spent
            continue
        closure, g_out, parents = node.backward, node.grad, node.parents
        node.grad, node.backward, node.parents = None, None, ()
        grads = closure(g_out)
        for parent, raw in zip(parents, grads):
            if raw is None or parent is None or not parent._tracked():
                continue
            g = np.asarray(raw)  # a full reduction's gradient can be a numpy scalar
            if parent.grad is not None:
                parent.grad += g
            elif g.base is None and g.flags.c_contiguous and sum(o is raw for o in grads) == 1:
                parent.grad = g  # a fresh C-ordered array handed to this parent alone
            else:
                parent.grad = g.copy()
