import tracemalloc
import weakref

import numpy as np
import pytest

from ltt import tensor as T
from ltt.tensor import ShapeError, Tape, Tensor, backward

from helpers import attention_reference, check_gradients, reference_backward

F64 = np.float64


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=F64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward oracles


def test_softmax_symmetry():
    out = T.softmax(t([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_l2_normalize_345():
    out = T.l2_normalize(t([3.0, 4.0]))
    assert np.allclose(out.data, [0.6, 0.8], atol=1e-15)


def test_mse_hand_oracle():
    # ((1-1)^2 + (2-4)^2) / 2 = 2
    out = T.mse(t([1.0, 2.0]), t([1.0, 4.0]))
    assert out.item() == pytest.approx(2.0, abs=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = t(rng.normal(0, 3, size=(4,)))
        p = T.softmax(x).data
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0) and np.all(p < 1)


def test_entropy_zero_terms():
    p = t([1.0, 0.0, 0.0])
    assert T.entropy(p).item() == 0.0
    uniform = t([0.25] * 4)
    assert T.entropy(uniform).item() == pytest.approx(np.log(4), abs=1e-12)


def test_layer_norm_moments():
    rng = np.random.default_rng(1)
    x = t(rng.normal(2.0, 5.0, size=(3, 8)))
    g = t(np.ones(8))
    b = t(np.zeros(8))
    y = T.layer_norm(x, g, b).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_finite_outputs_on_moderate_inputs():
    rng = np.random.default_rng(2)
    x = t(rng.uniform(-1e3, 1e3, size=(4, 6)))
    g = t(np.ones(6))
    b = t(np.zeros(6))
    for out in (T.softmax(x), T.log_softmax(x), T.gelu(x),
                T.l2_normalize(x), T.layer_norm(x, g, b)):
        assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(T.l2_normalize(t(np.zeros(5))).data))


# ---------------------------------------------------------------------------
# simple backward oracles


def test_square_gradient():
    x = t(3.0, grad=True)
    with Tape():
        loss = T.mul(x, x)
        backward(loss)
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_sum_of_softmax_has_zero_gradient():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(5,)), grad=True)
    with Tape():
        loss = T.tsum(T.softmax(x))
        backward(loss)
    assert np.allclose(x.grad, 0.0, atol=1e-12)


def test_backward_requires_scalar():
    x = t([1.0, 2.0], grad=True)
    with Tape():
        y = T.mul(x, x)
        with pytest.raises(ShapeError):
            backward(y)


def test_backward_deterministic():
    rng = np.random.default_rng(4)
    xv = rng.normal(size=(4, 4))
    grads = []
    for _ in range(2):
        x = t(xv, grad=True)
        with Tape():
            loss = T.tsum(T.mul(T.softmax(T.gelu(x)), x))
            backward(loss)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_no_recording_outside_tape():
    x = t([1.0, 2.0], grad=True)
    y = T.mul(x, x)
    assert y._node is None
    with Tape() as tape:
        T.mul(x, x)
        assert tape.num_nodes == 1


@pytest.mark.parametrize("bias", [True, False])
def test_linear_matches_matmul_of_transposed_weight_bitexact(bias):
    rng = np.random.default_rng(17)
    x, w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
               for s in [(4, 17, 64), (48, 64), (48,)])
    g = Tensor(rng.normal(size=(4, 17, 48)).astype(np.float32))
    with Tape():
        y = T.linear(x, w, b if bias else None)
        backward(T.tsum(T.mul(y, g)))  # y's gradient is g, bit for bit
    # the numpy calls of matmul(x, transpose(w)) and add(., b), the ops every
    # weight product ran before linear existed
    xd, wd, gd = x.data, w.data, g.data
    old = [xd @ wd.T + b.data if bias else xd @ wd.T, gd @ wd,
           (np.swapaxes(xd, -1, -2) @ gd).sum(axis=0).T, gd.sum(axis=(0, 1)) if bias else None]
    for a, c in zip([y.data, x.grad, w.grad, b.grad], old):
        assert (a is None and c is None) or np.array_equal(a, c)


# ---------------------------------------------------------------------------
# in-place kernels: bit-equal to the plain expressions, computed out of place


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


def gelu_expr(x, g):
    t_ = np.tanh(T.GELU_K0 * (x + T.GELU_K1 * (x * x * x)))
    d_inner = T.GELU_K0 * (1.0 + 3.0 * T.GELU_K1 * (x * x))
    dgdx = 0.5 * (1.0 + t_) + 0.5 * x * (1.0 - t_ * t_) * d_inner
    return 0.5 * x * (1.0 + t_), [g * dgdx]


def layer_norm_expr(x, gamma, beta, g):
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + T.LAYERNORM_EPS)
    xhat = (x - mu) * inv
    dxhat = g * gamma
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    lead = tuple(range(g.ndim - 1))
    return xhat * gamma + beta, [dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


def softmax_expr(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p, [p * (g - (g * p).sum(axis=-1, keepdims=True))]


KERNELS = {"gelu": (T.gelu, gelu_expr, 0), "layer_norm": (T.layer_norm, layer_norm_expr, 2),
           "softmax": (T.softmax, softmax_expr, 0)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_match_plain_expressions_bitexact(name, dtype):
    op, expr, num_params = KERNELS[name]
    rng = np.random.default_rng(21)
    for shape, scale in [((64, 17, 64), 1.0), ((6, 4, 17, 17), 8.0), ((3, 8), 30.0)]:
        params = [rng.normal(1, 0.5, shape[-1]), rng.normal(0, 0.5, shape[-1])][:num_params]
        arrays = [a.astype(dtype) for a in [rng.normal(0, scale, shape), *params]]
        g = rng.normal(size=shape).astype(dtype)
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Tape():
            y = op(*leaves)
            backward(T.tsum(T.mul(y, Tensor(g))))  # y.grad is g, bit for bit
        want_y, want_grads = expr(*arrays, g)
        assert same_bits(y.data, want_y)
        for leaf, want in zip(leaves, want_grads):
            assert same_bits(leaf.grad, want)


@pytest.mark.parametrize("tracked", [True, False])
@pytest.mark.parametrize("size", [T.BLOCK - 1, T.BLOCK, T.BLOCK + 1, 2 * T.BLOCK + 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True])
def test_gelu_slope_blocks_keep_the_bits_of_the_plain_expression(transposed, dtype, size,
                                                                  tracked):
    rng = np.random.default_rng(size)
    # transposed: a (2, size) Fortran-ordered input, whose temporaries follow its memory order
    x = rng.normal(0, 3.0, (size, 2) if transposed else size).astype(dtype)
    x = x.T if transposed else x
    g = rng.normal(size=x.shape).astype(dtype)
    leaf = Tensor(x.copy(order="K"), requires_grad=tracked)
    assert leaf.data.flags.c_contiguous != transposed
    with Tape():
        y = T.gelu(leaf)
        assert (y._node is not None) == tracked
        if tracked:
            backward(T.tsum(T.mul(y, Tensor(g))))
    want_y, (want_grad,) = gelu_expr(x, g)
    assert same_bits(y.data, want_y)
    assert same_bits(leaf.grad, want_grad) if tracked else leaf.grad is None


def gelu_two_pass(x):
    """gelu's value and slope from a full-size tanh, the slope formed out of place:
    the reference that the one-pass blocked kernel matches bit for bit."""
    x = x.reshape(-1)
    t_ = x * x
    t_ *= x
    t_ *= T.GELU_K1
    t_ += x
    t_ *= T.GELU_K0
    np.tanh(t_, out=t_)
    y = x * 0.5
    y *= t_ + 1.0
    half = x * 0.5 * (1.0 - t_ * t_)
    slope = (x * x * (3.0 * T.GELU_K1) + 1.0) * T.GELU_K0 * half + (t_ + 1.0) * 0.5
    return y, slope


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, transposed", [
    ((), False), ((0,), False), ((0, 3), False), ((7,), False),
    ((3, T.BLOCK // 2 + 5), False),  # 1.5 blocks and a few elements
    ((64, 17, 256), False), ((T.BLOCK + 9, 2), True)], ids=str)
def test_gelu_keeps_the_bits_of_the_two_pass_kernel(shape, transposed, dtype):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(0, 3.0, shape[::-1] if transposed else shape).astype(dtype)
    x = x.T if transposed else x  # a Fortran-ordered input
    g = rng.normal(size=x.shape).astype(dtype)
    leaf = Tensor(x.copy(order="K"), requires_grad=True)
    assert leaf.data.flags.c_contiguous != transposed
    with Tape():
        y = T.gelu(leaf)
        backward(T.tsum(T.mul(y, Tensor(g))))  # y's gradient is g, bit for bit
    want_y, want_slope = gelu_two_pass(np.ascontiguousarray(x))
    assert same_bits(y.data, want_y.reshape(shape)) and type(y.data) is np.ndarray
    assert same_bits(leaf.grad, (want_slope * g.reshape(-1)).reshape(shape))
    assert same_bits(T.gelu(Tensor(x)).data, y.data)  # no tape: the value alone


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, out", [
    ((5, 64), 48),  # 2-D: one product
    ((1, 9, 8), 5), ((3, 17, 64), 256),  # fewer products than one block
    ((37, 17, 64), 64),  # 16 per block: two blocks and 5
    ((64, 17, 64), 256),  # 4 per block: exactly 16 blocks
    ((2, 3, 17, 64), 256),  # 4-D: 6 products, a block and a half
    ((3, 4, 300), 256)], ids=str)  # in * out above the budget: one product per block
def test_linear_weight_gradient_keeps_the_bits_of_one_summed_stack(x_shape, out, dtype):
    rng = np.random.default_rng(x_shape[-1] + out)
    x = Tensor(rng.normal(size=x_shape).astype(dtype))
    w = Tensor(rng.normal(size=(out, x_shape[-1])).astype(dtype), requires_grad=True)
    g = rng.normal(size=(*x_shape[:-1], out)).astype(dtype)
    with Tape():
        backward(T.tsum(T.mul(T.linear(x, w), Tensor(g))))  # the product's gradient is g
    want = T._unbroadcast(np.swapaxes(x.data, -1, -2) @ g, (x_shape[-1], out)).T
    assert same_bits(w.grad, want)


@pytest.mark.parametrize("x_shape, w_shape", [((2, 3, 0), (4, 0)), ((2, 3, 4), (0, 4))],
                         ids=str)
def test_linear_weight_gradient_of_a_zero_width_product_is_empty(x_shape, w_shape):
    x = Tensor(np.ones(x_shape, np.float32))
    w = Tensor(np.ones(w_shape, np.float32), requires_grad=True)
    with Tape():
        backward(T.tsum(T.linear(x, w)))
    assert w.grad.shape == w_shape and w.grad.dtype == np.float32


def test_linear_weight_gradient_allocates_less_than_the_stack_of_products():
    rng = np.random.default_rng(47)
    x = Tensor(rng.normal(size=(64, 17, 64)).astype(np.float32))
    w = Tensor(rng.normal(size=(256, 64)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(64, 17, 256)).astype(np.float32)
    with Tape():  # closing the tape spends its nodes
        y = T.linear(x, w)
        tracemalloc.start()
        try:
            _, gw = y._node.backward(g)[:2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert gw.shape == (256, 64)
    assert peak < 64 * 64 * 256 * 4  # one (64, 64, 256) float32 stack of x_bᵀ g_b


def test_frozen_parents_get_no_gradient_and_tracked_ones_keep_their_bits():
    rng = np.random.default_rng(23)
    shapes = {"x": (4, 17, 32), "w": (24, 32), "b": (24,), "gamma": (24,), "beta": (24,),
              "c": (24,)}
    values = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}

    def run(frozen):
        leaves = {k: Tensor(v.copy(), requires_grad=k not in frozen) for k, v in values.items()}
        with Tape():
            nodes = [T.linear(leaves["x"], leaves["w"], leaves["b"])]
            nodes.append(T.layer_norm(nodes[-1], leaves["gamma"], leaves["beta"]))
            nodes.append(T.mul(T.gelu(nodes[-1]), leaves["c"]))
            nodes.append(T.add(nodes[-1], leaves["c"]))
            nodes.append(T.mul(nodes[-1], 0.5))  # a scalar constant
            for out in nodes:  # each closure skips exactly its untracked parents
                grads = out._node.backward(np.ones_like(out.data))
                assert [g is not None for g in grads] == [p is not None and p._tracked()
                                                          for p in out._node.parents]
            backward(T.tsum(nodes[-1]))
        return {k: leaf.grad for k, leaf in leaves.items()}

    full = run(frozen=())
    part = run(frozen=("b", "gamma", "beta", "c"))
    for k in shapes:
        assert part[k] is None if k in ("b", "gamma", "beta", "c") else same_bits(part[k], full[k])
        assert full[k] is not None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tracked", ["qkv", "qk", "qv", "kv", "q", "k", "v"])
def test_attention_matches_the_op_composition_bitexact(tracked, dtype):
    rng = np.random.default_rng(43)
    for shape, num_heads in [((8, 17, 64), 4), ((3, 5, 6), 2)]:
        arrays = [rng.normal(0, 1, shape).astype(dtype) for _ in "qkv"]
        g = rng.normal(size=shape).astype(dtype)
        leaves = [Tensor(a.copy(), requires_grad=m in tracked) for m, a in zip("qkv", arrays)]
        with Tape():
            y = T.attention(*leaves, num_heads)
            # the closure computes a gradient for the tracked inputs only; it
            # holds the probabilities, the scale and the head views it reads:
            # q's for k's gradient, k's for q's, v's for either
            assert [a is not None for a in y._node.backward(g.copy())] == [
                m in tracked for m in "qkv"]
            held = [c.cell_contents for c in y._node.backward.__closure__
                    if isinstance(c.cell_contents, np.ndarray)]
            b, t, d = shape
            assert sorted(a.shape for a in held if a.base is None) == [(), (b, num_heads, t, t)]
            reads = {"q": "k" in tracked, "k": "q" in tracked,
                     "v": "q" in tracked or "k" in tracked}
            assert ({id(a.base) for a in held if a.base is not None}
                    == {id(leaf.data) for m, leaf in zip("qkv", leaves) if reads[m]})
            backward(T.tsum(T.mul(y, Tensor(g))))  # y's gradient is g, bit for bit
        want_y, want_grads = attention_reference(*arrays, num_heads, g)
        assert same_bits(y.data, want_y)
        for m, leaf, want in zip("qkv", leaves, want_grads):
            assert same_bits(leaf.grad, want) if m in tracked else leaf.grad is None


# ---------------------------------------------------------------------------
# backward consumes its graph


def graph_nodes(loss: Tensor) -> list:
    """Every node and tracked leaf reachable from the loss's node."""
    nodes, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            if not isinstance(node, Tensor):
                stack.extend(node.parents)
    return nodes


def test_backward_frees_interior_nodes_and_a_second_walk_raises():
    rng = np.random.default_rng(29)
    x, w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
               for s in [(3, 5, 8), (6, 8), (6,)])
    with Tape():
        h = T.gelu(T.linear(x, w, b))
        loss = T.tsum(T.mul(T.softmax(h), T.add(h, h)))
        nodes = graph_nodes(loss)
        interior = [n for n in nodes if not isinstance(n, Tensor)]
        assert all(n.backward is not None for n in interior)
        assert {id(n) for n in nodes if isinstance(n, Tensor)} == {id(x), id(w), id(b)}
        backward(loss)
        first = {name: leaf.grad.copy() for name, leaf in zip("xwb", (x, w, b))}
        assert len(interior) == 6
        for node in interior:
            assert node.grad is None and node.backward is None and node.parents == ()
        assert not loss._tracked() and not h._tracked()  # a walked node counts as untracked
        for leaf in (x, w, b):
            assert leaf.grad is not None
        with pytest.raises(ShapeError, match=r"no graph \(untracked, or already walked\)"):
            backward(loss)
    for name, leaf in zip("xwb", (x, w, b)):
        assert same_bits(leaf.grad, first[name])


def test_forward_frees_the_arrays_backward_does_not_read(monkeypatch):
    from ltt.encoder import TextConfig, VitConfig, _block, param_layout

    # attention trains, the MLP and the norms are frozen, as under LoRA
    rng = np.random.default_rng(41)
    weights = {n: Tensor(rng.normal(0, 0.02, s).astype(np.float32),
                         requires_grad=".attn." in n)
               for n, s, _ in param_layout(VitConfig(), TextConfig(vocab_size=4))
               if n.startswith(("img.layers.0.", "img.layers.1."))}
    x = Tensor(rng.normal(size=(8, 17, 64)).astype(np.float32))
    freed = {"add": [], "frozen_linear_input": []}
    held = []  # per attention node: its closure's own arrays, and whether its views are q, k, v
    add, attention, linear = T.add, T.attention, T.linear

    def traced_add(a, b):
        out = add(a, b)
        freed["add"].append(weakref.ref(out.data))
        return out

    def traced_attention(q, k, v, num_heads):
        out = attention(q, k, v, num_heads)
        cells = [c.cell_contents for c in out._node.backward.__closure__
                 if isinstance(c.cell_contents, np.ndarray)]
        bases = {id(a.base) for a in cells if a.base is not None}
        held.append((sorted(a.shape for a in cells if a.base is None),
                     bases == {id(x.data) for x in (q, k, v)}))
        return out

    def traced_linear(h, w, b=None):
        if not w.requires_grad:
            freed["frozen_linear_input"].append(weakref.ref(h.data))
        return linear(h, w, b)

    monkeypatch.setattr(T, "add", traced_add)
    monkeypatch.setattr(T, "attention", traced_attention)
    monkeypatch.setattr(T, "linear", traced_linear)
    with Tape():
        h = x
        for i in range(2):
            h = _block(h, weights, f"img.layers.{i}", num_heads=4)
        loss = T.tsum(T.mul(h, h))
        last = freed["add"].pop()  # the block output, which h still holds
        # per block: two residual adds and the MLP's two inputs
        assert [len(refs) for refs in freed.values()] == [3, 4]
        for kind, refs in freed.items():
            assert all(ref() is None for ref in refs), kind
        # the attention node keeps the probabilities, the scale and a head view of
        # each tracked input, but no scores or per-head context array
        assert held == [([(), (8, 4, 17, 17)], True)] * 2
        assert last() is h.data
        assert loss._tracked()  # the graph is alive, and still walks
        backward(loss)
    assert all(w.grad is not None for n, w in weights.items() if ".attn." in n)


def test_backward_rejects_a_loss_without_graph():
    x = t(2.0, grad=True)
    with pytest.raises(ShapeError, match="no graph"):
        backward(T.mul(x, x))  # built outside a tape
    with Tape(), pytest.raises(ShapeError, match="no graph"):
        backward(x)


def test_one_tape_is_open_at_a_time_and_closing_it_ends_its_graph():
    x = t([1.0, 2.0], grad=True)
    with Tape() as tape:
        with pytest.raises(RuntimeError, match="already open"), Tape():
            pass
        assert T.active_tape() is tape  # the open tape stays open and keeps recording
        loss = T.tsum(T.mul(x, x))
        assert tape.num_nodes == 2
    assert T.active_tape() is None and tape.num_nodes == 2
    assert all(n.backward is None and n.parents == () for n in tape.nodes)
    with pytest.raises(ShapeError, match="no graph"):
        backward(loss)
    with Tape(), pytest.raises(ShapeError, match="no graph"):  # nor on the next tape
        backward(loss)
    assert x.grad is None


def transpose(a: Tensor) -> Tensor:
    """A 2-D transpose built from numpy calls as an op: its closure hands back a
    transposed view, which backward must copy and not adopt."""
    def backward(g):
        return (g.T,)

    return T._make(a.data.T, (a,), backward)


# op -> leaf shapes; between them the closures hand their parents views, one
# array twice and fresh arrays, and backward may adopt only the fresh ones
ALIASING = {
    "add_same_leaf": (lambda x: T.add(x, x), [(4, 6)]),
    "add_equal_shapes": (lambda a, b: T.add(a, b), [(4, 6), (4, 6)]),
    "add_broadcast": (lambda a, b: T.add(a, b), [(4, 6), (6,)]),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(4, 2), (4, 4)]),
    "reshape_transpose": (lambda a: transpose(T.reshape(a, (6, 4))), [(4, 3, 2)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, 2), [(2, 3, 4)] * 3),
    "linear": (lambda x, w, b: T.linear(x, w, b), [(2, 4, 5), (6, 5), (6,)]),
    "mul_same_leaf": (lambda x: T.mul(x, x), [(4, 6)]),
}


@pytest.mark.parametrize("name", sorted(ALIASING))
def test_adopted_gradients_match_a_walk_that_copies_every_gradient(name):
    op, shapes = ALIASING[name]
    rng = np.random.default_rng(31)
    values = [rng.normal(size=s).astype(np.float32) for s in shapes]
    extra = [rng.normal(size=s).astype(np.float32) for s in shapes]

    def run(walk):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        with Tape():
            y = op(*leaves)
            # y reaches the loss twice and every leaf once more on its own, so
            # an adopted array is accumulated into after it was handed over
            half = Tensor(np.full(y.shape, 0.5, np.float32))
            loss = T.tsum(T.mul(T.add(T.gelu(y), T.mul(y, y)), half))
            for leaf, c in zip(leaves, extra):
                loss = T.add(loss, T.tsum(T.mul(leaf, Tensor(c))))
            walk(loss)
        return [leaf.grad for leaf in leaves]

    for got, want in zip(run(backward), run(reference_backward)):
        assert same_bits(got, want)


def test_backward_holds_no_more_than_the_leaf_gradients():
    from ltt.encoder import TextConfig, VitConfig, _block, param_layout

    rng = np.random.default_rng(37)
    layout = param_layout(VitConfig(), TextConfig(vocab_size=4))
    weights = {n: Tensor(rng.normal(0, 0.02, s).astype(np.float32), requires_grad=True)
               for n, s, _ in layout if n.startswith(("img.layers.0.", "img.layers.1."))}
    x = Tensor(rng.normal(size=(64, 17, 64)).astype(np.float32))

    def build_loss() -> Tensor:
        h = x
        for i in range(2):
            h = _block(h, weights, f"img.layers.{i}", num_heads=4)
        return T.tsum(T.mul(h, h))

    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            loss = build_loss()
            backward(loss)
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    grad_bytes = sum(w.grad.nbytes for w in weights.values())
    assert len(weights) == 32 and grad_bytes > 0
    assert held <= grad_bytes + 2**20, (held, grad_bytes)


# ---------------------------------------------------------------------------
# per-primitive gradient checks against central finite differences

CASES = {
    "add": (lambda a, b: T.add(a, b), [(2, 3), (2, 3)]),
    "add_broadcast": (lambda a, b: T.add(a, b), [(2, 3), (3,)]),
    "mul": (lambda a, b: T.mul(a, b), [(2, 3), (2, 3)]),
    "mul_broadcast": (lambda a, b: T.mul(a, b), [(2, 3), (1, 3)]),
    "matmul": (lambda a, b: T.matmul(a, b), [(2, 3), (3, 4)]),
    "linear": (lambda x, w, b: T.linear(x, w, b), [(2, 3, 4), (5, 4), (5,)]),
    "linear_no_bias": (lambda x, w: T.linear(x, w), [(3, 4), (2, 4)]),
    "mean_axis": (lambda a: T.mean(a, axis=0), [(3, 4)]),
    "sum": (lambda a: T.tsum(a), [(3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=0), [(2, 3), (1, 3)]),
    "index_select": (lambda a: T.index_select(a, [2, 0, 2], axis=0), [(3, 4)]),
    "slice": (lambda a: T.slice_axis(a, 1, 1, 3), [(2, 4)]),
    "reshape_transpose": (lambda a: transpose(T.reshape(a, (2, 6))), [(3, 4)]),
    "broadcast_to": (lambda a: T.broadcast_to(a, (4, 2, 3)), [(1, 2, 3)]),
    "gelu": (lambda a: T.gelu(a), [(3, 4)]),
    "layer_norm": (lambda a, g, b: T.layer_norm(a, g, b), [(3, 4), (4,), (4,)]),
    "softmax": (lambda a: T.softmax(a), [(3, 4)]),
    "log_softmax": (lambda a: T.log_softmax(a, axis=-1), [(3, 4)]),
    "l2_normalize": (lambda a: T.l2_normalize(a), [(3, 4)]),
    "exp": (lambda a: T.exp(a), [(3, 4)]),
    "mse": (lambda a, b: T.mse(a, b), [(3, 4), (3, 4)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, 2), [(2, 3, 4)] * 3),
    "entropy": (None, [(6,)]),  # built below: needs a positive distribution
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradcheck_primitive(name):
    import zlib
    op, shapes = CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(100):
        if name == "entropy":
            raw = rng.uniform(0.05, 1.0, size=shapes[0])
            leaves = [t(raw / raw.sum(), grad=True)]
            builder = lambda leaves=leaves: T.entropy(leaves[0])
        else:
            leaves = [t(rng.normal(0, 1, size=s), grad=True) for s in shapes]
            out_shape = op(*[Tensor(l.data) for l in leaves]).shape
            w = Tensor(rng.normal(size=out_shape).astype(F64))
            builder = lambda op=op, leaves=leaves, w=w: T.tsum(T.mul(op(*leaves), w))
        worst = max(worst, check_gradients(builder, leaves))
    assert worst < 1e-4


# 0-d operands: a tracked 0-d scale, a full reduction, a 0-d input
ZERO_D = {
    "mul_0d_scale": (lambda a, s: T.mul(a, s), [(3, 4), ()]),
    "sum_all": (lambda a: T.tsum(a), [(3, 4)]),
    "exp_0d": (lambda a: T.exp(a), [()]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted({**CASES, **ZERO_D}))
def test_closures_hand_each_parent_a_gradient_of_its_shape_and_dtype(name, dtype, monkeypatch):
    # backward wraps what a closure returns with np.asarray and neither casts nor reshapes it
    op, shapes = {**CASES, **ZERO_D}[name]
    op = op or T.entropy
    made, make = {}, T._make  # node id -> the tensor it was recorded for

    def recording_make(data, parents, closure):
        out = make(data, parents, closure)
        made[id(out._node)] = out
        return out

    monkeypatch.setattr(T, "_make", recording_make)
    rng = np.random.default_rng(5)
    leaves = [Tensor(rng.uniform(0.05, 1.0, s).astype(dtype), requires_grad=True)
              for s in shapes]
    with Tape():  # closing the tape spends its nodes
        op(*leaves)
        assert None not in (out._node for out in made.values())
        for out in made.values():
            grads = out._node.backward(rng.normal(size=out.shape).astype(dtype))
            for parent, g in zip(out._node.parents, grads):
                want = parent if isinstance(parent, Tensor) else made[id(parent)]
                assert isinstance(g, (np.ndarray, np.generic)), (type(g), want.shape)
                assert (g.shape, g.dtype) == (want.shape, want.dtype)


# ---------------------------------------------------------------------------
# shape errors name the op


def test_shape_error_messages():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="matmul"):  # two matrices only
        T.matmul(t(np.ones((2, 2, 3))), t(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="attention"):  # 6 columns do not split into 4 heads
        T.attention(*(t(np.ones((2, 3, 6))) for _ in "qkv"), 4)
    with pytest.raises(ShapeError, match="attention"):
        T.attention(t(np.ones((2, 3, 8))), t(np.ones((2, 3, 8))), t(np.ones((2, 4, 8))), 4)
    with pytest.raises(ShapeError, match="linear"):
        T.linear(t(np.ones((2, 3))), t(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="linear"):
        T.linear(t(np.ones((2, 3))), t(np.ones((2, 3))), t(np.ones(3)))
    with pytest.raises(ShapeError, match="mse"):
        T.mse(t(np.ones(3)), t(np.ones(4)))
    with pytest.raises(ShapeError, match="add"):
        T.add(t(np.ones((2, 3))), t(np.ones((4,))))
    with pytest.raises(ShapeError, match="index_select"):
        T.index_select(t(np.ones((2, 2))), [5], axis=0)
