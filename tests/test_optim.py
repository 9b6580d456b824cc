import numpy as np
import pytest

from ltt.optim import BETA1, BETA2, EPS, AdamW
from ltt.tensor import Tensor


def make_param(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


def adamw_reference(w, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scalar re-implementation of the update recurrence."""
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w = w - lr * (mhat / (np.sqrt(vhat) + eps)) - lr * wd * w
    return w


def test_single_step_hand_value():
    p = make_param(1.0)
    p.grad = np.asarray(1.0)
    opt = AdamW({"w": p}, lr=0.001, wd=0.2)
    assert opt.t == 0
    opt.step()
    assert opt.t == 1
    # m_hat = v_hat = 1 after bias correction, so w ~ 1 - lr - lr*wd
    assert p.data == pytest.approx(0.998800, abs=1e-6)
    assert p.data == pytest.approx(adamw_reference(1.0, [1.0], 0.001, 0.2), abs=1e-15)


def test_zero_grad_zero_decay_is_identity():
    p = make_param(3.5)
    p.grad = np.asarray(0.0)
    opt = AdamW({"w": p}, lr=0.01, wd=0.0)
    opt.step()
    assert p.data == pytest.approx(3.5, abs=0.0)


def test_pure_decoupled_decay():
    p = make_param(2.0)
    p.grad = np.asarray(0.0)
    opt = AdamW({"w": p}, lr=0.001, wd=0.2)
    opt.step()
    assert p.data == pytest.approx(2.0 * (1 - 0.0002), abs=1e-15)


def test_matches_reference_over_random_sequence():
    rng = np.random.default_rng(11)
    grads = rng.normal(size=20)
    p = make_param(0.7)
    opt = AdamW({"w": p}, lr=0.01, wd=0.05)
    for g in grads:
        p.grad = np.asarray(g)
        opt.step()
    ref = adamw_reference(0.7, grads, 0.01, 0.05)
    assert abs(float(p.data) - ref) < 1e-12


def test_elementwise_matches_reference():
    rng = np.random.default_rng(12)
    w0 = rng.normal(size=(3, 4))
    seq = [rng.normal(size=(3, 4)) for _ in range(5)]
    p = make_param(w0.copy())
    opt = AdamW({"m": p}, lr=0.002, wd=0.1)
    for g in seq:
        p.grad = g
        opt.step()
    for i in range(3):
        for j in range(4):
            ref = adamw_reference(w0[i, j], [g[i, j] for g in seq], 0.002, 0.1)
            assert abs(p.data[i, j] - ref) < 1e-12


def test_missing_gradient_raises():
    opt = AdamW({"w": make_param(1.0)})
    with pytest.raises(ValueError, match="'w' has no gradient"):
        opt.step()
    assert opt.t == 0


def test_a_frozen_tensor_fails_the_first_step_naming_it():
    # backward never writes a gradient to a frozen tensor, so owning one is an error
    frozen = Tensor(np.asarray(5.0))
    live = make_param(1.0)
    live.grad = np.asarray(1.0)
    opt = AdamW({"live": live, "frozen": frozen}, lr=0.1)
    with pytest.raises(ValueError, match="'frozen' has no gradient"):
        opt.step()
    assert float(frozen.data) == 5.0 and float(live.data) == 1.0 and opt.t == 0


def test_a_step_releases_every_gradient_it_applied_and_a_second_raises():
    a, b, other = make_param(1.0), make_param([2.0, 3.0]), make_param(4.0)
    for t in (a, b, other):
        t.grad = np.ones_like(t.data)
    opt = AdamW({"a": a, "b": b})
    opt.step()
    assert a.grad is None and b.grad is None
    assert other.grad is not None  # not owned, so not touched
    after = [a.data.copy(), b.data.copy()]
    # with no backward in between, the next step has nothing to apply
    with pytest.raises(ValueError, match="'a' has no gradient"):
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(t.data, w) for t, w in zip((a, b), after))


def test_moments_are_zeros_from_construction():
    params = {"w": make_param(np.ones((2, 3))),
              "b": Tensor(np.ones(4, dtype=np.float32), requires_grad=True)}
    opt = AdamW(params)
    for moments in (opt.m, opt.v):
        assert list(moments) == ["w", "b"]
        for name, p in params.items():
            m = moments[name]
            assert m.shape == p.shape and m.dtype == p.dtype and not m.any()


def test_moments_persist_across_steps():
    p = make_param(np.zeros((2, 3)))
    opt = AdamW({"w": p}, lr=0.01)
    m = opt.m["w"]
    p.grad = np.ones((2, 3))
    opt.step()
    assert opt.m["w"] is m and np.array_equal(m, np.full((2, 3), 1.0 - 0.9))
    p.grad = np.ones((2, 3))
    opt.step()
    assert opt.m["w"] is m and opt.t == 2
    assert np.allclose(m, np.full((2, 3), 0.9 * 0.1 + 0.1))


@pytest.mark.parametrize("kwargs", [{"lr": float("nan")}, {"lr": -1.0}, {"lr": float("inf")},
                                    {"wd": float("nan")}, {"wd": -0.1}])
def test_rejects_bad_lr_and_wd(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        AdamW({"w": Tensor(np.zeros(2), requires_grad=True)}, **kwargs)


@pytest.mark.parametrize("shape", [(), (256, 64)])  # the 0-d logit scale, an MLP weight
def test_step_keeps_the_bits_of_the_out_of_place_update(shape):
    rng = np.random.default_rng(13)
    w = rng.normal(size=shape).astype(np.float32)
    p = Tensor(w.copy(), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.01, wd=0.1)
    m = v = np.zeros_like(w)
    for t in range(1, 4):
        g = np.asarray(rng.normal(size=shape), dtype=np.float32)
        p.grad, before = g, p.data
        opt.step()
        # the update written out of place, one temporary per operation
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        mhat, vhat = m / (1.0 - BETA1**t), v / (1.0 - BETA2**t)
        w = w - 0.01 * (mhat / (np.sqrt(vhat) + EPS)) - 0.01 * 0.1 * w
        assert type(p.data) is np.ndarray and p.data.shape == shape and p.data.dtype == w.dtype
        assert p.data.tobytes() == np.asarray(w).tobytes()
        assert not np.shares_memory(p.data, before)  # a fresh array, not the old weight
