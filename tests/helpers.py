"""Shared oracles: central finite differences, relative-error metrics, a
backward walk that copies every gradient and releases nothing, attention as
the numpy calls of the 13 ops it once was, gelu as plain expressions and the
MLP as the numpy calls of its 3 ops, the keep rows of masked views, the
per-crop view path (one 2-D bilinear gather per crop) that the batched
crop pass must match bit for bit, and checkpoints whose weights are off
their layout."""

from __future__ import annotations

import math

import numpy as np

from ltt.serial import read_checkpoint, write_checkpoint
from ltt.tensor import GELU_K0, GELU_K1, Tape, Tensor, active_tape, backward


def numeric_grad(loss_fn, leaf: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued closure wrt one leaf."""
    flat = leaf.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(leaf.data.shape)


def analytic_grad(loss_builder, leaves: list[Tensor]) -> list[np.ndarray]:
    for leaf in leaves:
        leaf.grad = None
        leaf.requires_grad = True
    with Tape():
        loss = loss_builder()
        backward(loss)
    return [leaf.grad.copy() for leaf in leaves]


def reference_backward(loss: Tensor):
    """The walk `backward` must match bit for bit: the open tape's nodes in
    reverse, but every first gradient is copied and the graph is kept whole.
    A node's parents are nodes, tracked leaf tensors or None for an untracked
    input."""
    loss._node.grad = np.ones_like(loss.data)
    for node in reversed(active_tape().nodes):
        if node.grad is None:  # off this loss's path
            continue
        grads = node.backward(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None or parent is None or not parent._tracked():
                continue
            g = np.asarray(g)
            if parent.grad is None:
                parent.grad = g.copy()
            else:
                parent.grad += g


def attention_reference(q, k, v, num_heads: int, g):
    """Output and (q, k, v) gradients, for output gradient g, of multi-head
    attention over (b, t, d) arrays, computed as the numpy calls of 4 reshapes,
    5 transposes, 2 batched matmuls, a scalar mul and a softmax that it once
    was: each gradient is computed from the operands those ops held, and each
    view a gradient op made is copied C-ordered, as the backward walk does."""
    b, t, d = q.shape
    dh = d // num_heads
    qh, kh, vh = (np.transpose(x.reshape(b, t, num_heads, dh), (0, 2, 1, 3)) for x in (q, k, v))
    kt = np.transpose(kh, (0, 1, 3, 2))
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    s = (qh @ kt) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    out = np.transpose(att @ vh, (0, 2, 1, 3)).reshape(b, t, d)

    def merge(x):  # the transpose and reshape back to (b, t, d), each gradient copied
        return np.transpose(x, (0, 2, 1, 3)).copy().reshape(b, t, d).copy()

    gctx = np.transpose(g.reshape(b, t, num_heads, dh), (0, 2, 1, 3)).copy()
    gatt = gctx @ np.swapaxes(vh, -1, -2)
    gv = np.swapaxes(att, -1, -2) @ gctx
    gs = att * (gatt - (gatt * att).sum(axis=-1, keepdims=True)) * scale
    gq = gs @ np.swapaxes(kt, -1, -2)
    gkt = np.swapaxes(qh, -1, -2) @ gs
    return out, [merge(gq), merge(np.transpose(gkt, (0, 1, 3, 2)).copy()), merge(gv)]


def gelu_expr(x, g):
    """gelu's tanh approximation of x and, for output gradient g, [g * slope], each
    from one plain expression."""
    t_ = np.tanh(GELU_K0 * (x + GELU_K1 * (x * x * x)))
    d_inner = GELU_K0 * (1.0 + 3.0 * GELU_K1 * (x * x))
    dgdx = 0.5 * (1.0 + t_) + 0.5 * x * (1.0 - t_ * t_) * d_inner
    return 0.5 * x * (1.0 + t_), [g * dgdx]


def mlp_reference(x, w1, b1, w2, b2, g):
    """Output and (x, w1, b1, w2, b2) gradients, for output gradient g, of
    gelu(x w1ᵀ + b1) w2ᵀ + b2 over a (..., d) x, computed as the numpy calls of the
    linear, gelu and linear ops it once was, gelu as `gelu_expr`: each gradient from
    the operands those ops held."""
    lead = tuple(range(x.ndim - 1))

    def weight_grad(inp, gout):  # Σ over the leading indices of inpᵀ gout, as (out, in)
        stack = np.swapaxes(inp, -1, -2) @ gout
        return stack.sum(axis=tuple(range(stack.ndim - 2))).T

    u = x @ w1.T
    u += b1
    a, (gu,) = gelu_expr(u, g @ w2)
    y = a @ w2.T
    y += b2
    return y, [gu @ w1, weight_grad(x, gu), gu.sum(axis=lead), weight_grad(a, g),
               g.sum(axis=lead)]


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(loss_builder, leaves: list[Tensor], h: float = 1e-5,
                    tol: float = 1e-4) -> float:
    """Compare analytic grads against finite differences for every leaf."""
    analytic = analytic_grad(loss_builder, leaves)

    def value():
        return float(loss_builder().data)

    worst = 0.0
    for leaf, ag in zip(leaves, analytic):
        ng = numeric_grad(value, leaf, h=h)
        worst = max(worst, max_rel_err(ag, ng))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e} >= {tol}"
    return worst


def keep_rows(num_patches: int, masks) -> np.ndarray:
    """(B, K) `keep` for encode_image_batch: row b holds the class token and
    every patch that masks[b] does not drop."""
    return np.stack([np.concatenate([[0], 1 + np.setdiff1d(np.arange(num_patches), m)])
                     for m in masks]).astype(np.int64)


def resize_reference(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(C,h,w) -> (C,out_h,out_w), half-pixel-center bilinear, one 2-D gather."""
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    a = img[:, y0[:, None], x0[None, :]]
    b = img[:, y0[:, None], x1[None, :]]
    cc = img[:, y1[:, None], x0[None, :]]
    d = img[:, y1[:, None], x1[None, :]]
    top = a * (1 - wx) + b * wx
    bot = cc * (1 - wx) + d * wx
    return (top * (1 - wy) + bot * wy).astype(img.dtype)


def crop_reference(img: np.ndarray, rng: np.random.Generator, out_size: int,
                   area_range=(0.3, 1.0)) -> np.ndarray:
    """One crop of one (C,H,W) image: up to 10 box draws (area fraction, then
    aspect in [3/4, 4/3], then top and left), the full image if none fits,
    a resize, then a flip drawn with probability 1/2."""
    h, w = img.shape[1:]
    top, left, ch, cw = 0, 0, h, w
    for _ in range(10):
        area = rng.uniform(*area_range) * h * w
        aspect = rng.uniform(3.0 / 4.0, 4.0 / 3.0)
        bw = int(round(np.sqrt(area * aspect)))
        bh = int(round(np.sqrt(area / aspect)))
        if 1 <= bh <= h and 1 <= bw <= w:
            top = int(rng.integers(0, h - bh + 1))
            left = int(rng.integers(0, w - bw + 1))
            ch, cw = bh, bw
            break
    crop = resize_reference(img[:, top:top + ch, left:left + cw], out_size, out_size)
    if rng.random() < 0.5:
        crop = crop[:, :, ::-1]
    return crop


# case -> (the tensor the load error must name, an edit of the checkpoint's
# arrays); each edit keeps meta.config valid and moves one weight off the layout
BROKEN_CHECKPOINTS = {
    "missing": ("img.layers.1.attn.wq", lambda a, n: a.pop(n)),
    "narrow": ("img.layers.1.attn.wk", lambda a, n: a.update({n: a[n][:, :3]})),
    "extra": ("img.extra", lambda a, n: a.update({n: np.zeros(3, np.float32)})),
    "float64": ("img.layers.0.mlp.w1", lambda a, n: a.update({n: a[n].astype(np.float64)})),
    "short_vocab": ("txt.tok", lambda a, n: a.update({n: a[n][:-1]})),
}


def break_checkpoint(src, dst, case: str) -> str:
    """Write the checkpoint at `src` to `dst`, broken as `case`; return the
    name of the tensor the break is in."""
    name, edit = BROKEN_CHECKPOINTS[case]
    arrays = read_checkpoint(src)
    edit(arrays, name)
    write_checkpoint(dst, arrays)
    return name
