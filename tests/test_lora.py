import dataclasses
import json

import numpy as np
import pytest

from ltt import tensor as T
from ltt.lora import (AdaptedEncoder, LoraAdapter, LoraConfig, base_weight_hash,
                      trainable_parameter_count)
from ltt.optim import AdamW
from ltt.pretrain import lora_pretrain
from ltt.serial import config_from_json, read_checkpoint, write_checkpoint
from ltt.tensor import Tape, Tensor, backward


def rand_image(rng, size=32):
    return rng.uniform(0, 1, size=(3, size, size)).astype(np.float32)


def test_identity_at_init_100_images(tiny_model):
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=4, scale=2.0),
                             np.random.default_rng(9))
    rng = np.random.default_rng(10)
    for _ in range(100):
        img = rand_image(rng)
        base_cls, _ = tiny_model.encode_image_batch(img[None])
        ad_cls, _ = adapted.encode_image_batch(img[None])
        assert np.max(np.abs(ad_cls.data - base_cls.data)) == 0.0


def test_zero_scale_annihilates_trained_adapters(tiny_model):
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=4, scale=0.0),
                             np.random.default_rng(11))
    rng = np.random.default_rng(12)
    for ad in adapted.adapters.values():
        ad.b.data = rng.normal(size=ad.b.data.shape).astype(np.float32)
    img = rand_image(rng)
    base_cls, _ = tiny_model.encode_image_batch(img[None])
    ad_cls, _ = adapted.encode_image_batch(img[None])
    assert np.max(np.abs(ad_cls.data - base_cls.data)) == 0.0


def test_adapter_forward_hand_example():
    # d=2, r=1, W0=I, x=[1,0], A=[1,0], B=[1;1], scale 2 -> h = [3, 2]
    ad = LoraAdapter(d1=2, d2=2, rank=1, scale=2.0, dtype=np.float64)
    ad.a.data = np.array([[1.0, 0.0]])
    ad.b.data = np.array([[1.0], [1.0]])
    x = Tensor(np.array([[1.0, 0.0]]))
    w0 = Tensor(np.eye(2))
    h = T.linear(x, T.add(w0, ad.delta()))
    assert np.allclose(h.data, [[3.0, 2.0]], atol=1e-12)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_merged_projection_matches_two_branch_oracle(dtype, tol):
    # (W + gamma B A) x + b against W x + b + gamma B (A x), with nonzero B:
    # the forward and the gradients of A, B and x
    rng = np.random.default_rng(30)
    d1, d2, rank, scale = 6, 8, 3, 2.5
    ad = LoraAdapter(d1=d1, d2=d2, rank=rank, scale=scale, dtype=dtype)
    ad.init_weights(rng)
    ad.b.data = rng.normal(0, 0.5, size=(d1, rank)).astype(dtype)
    w = Tensor(rng.normal(0, 0.5, size=(d1, d2)).astype(dtype))
    bias = Tensor(rng.normal(0, 0.5, size=d1).astype(dtype))
    x = Tensor(rng.normal(size=(4, 5, d2)).astype(dtype), requires_grad=True)
    upstream = Tensor(rng.normal(size=(4, 5, d1)).astype(dtype))

    def run(project):
        for t in (ad.a, ad.b, x):
            t.grad = None
        with Tape():
            y = project()
            backward(T.tsum(T.mul(y, upstream)))
        return [y.data, ad.a.grad, ad.b.grad, x.grad]

    merged = run(lambda: T.linear(x, T.add(w, ad.delta()), bias))
    two_branch = run(lambda: T.add(T.linear(x, w, bias), T.mul(
        T.linear(T.linear(x, ad.a), ad.b), float(scale))))
    for name, got, want in zip(("y", "dA", "dB", "dx"), merged, two_branch):
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max(),
                                   err_msg=name)


def test_zero_b_adapted_forward_is_bit_identical_to_base(tiny_model):
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=4, scale=12.0, layers=(1, 2)),
                             np.random.default_rng(31))
    rng = np.random.default_rng(32)
    views = rng.uniform(0, 1, size=(64, 3, 32, 32)).astype(np.float32)
    base_cls, base_tok = tiny_model.encode_image_batch(views)
    cls, tok = adapted.encode_image_batch(views)
    assert np.array_equal(cls.data, base_cls.data)
    assert np.array_equal(tok.data, base_tok.data)
    with Tape() as tape:
        cls, tok = adapted.encode_image_batch(views)
    assert tape.num_nodes > 0
    assert np.array_equal(cls.data, base_cls.data)
    assert np.array_equal(tok.data, base_tok.data)


def test_reset_restores_base_behaviour(tiny_model):
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=4), np.random.default_rng(13))
    rng = np.random.default_rng(14)
    img = rand_image(rng)
    before, _ = adapted.encode_image_batch(img[None])
    # simulate an episode update
    for ad in adapted.adapters.values():
        ad.b.data = rng.normal(0, 0.05, size=ad.b.data.shape).astype(np.float32)
    during, _ = adapted.encode_image_batch(img[None])
    assert not np.array_equal(before.data, during.data)
    adapted.reset(np.random.default_rng(99))
    after, _ = adapted.encode_image_batch(img[None])
    assert np.array_equal(before.data, after.data)
    # idempotent with respect to the model output
    adapted.reset(np.random.default_rng(100))
    again, _ = adapted.encode_image_batch(img[None])
    assert np.array_equal(after.data, again.data)


def test_reset_never_touches_base_weights(tiny_model):
    h0 = base_weight_hash(tiny_model)
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=2), np.random.default_rng(15))
    for i in range(5):
        adapted.reset(np.random.default_rng(i))
    assert base_weight_hash(tiny_model) == h0


def test_gradient_reaches_b_after_one_step(tiny_model):
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=2, scale=2.0),
                             np.random.default_rng(16))
    img = rand_image(np.random.default_rng(17))
    opt = AdamW(adapted.trainables, lr=0.01)
    with Tape():
        cls, _ = adapted.encode_image_batch(img[None])
        loss = T.mse(cls, Tensor(np.zeros_like(cls.data)))
        backward(loss)
    opt.step()
    b_entries = [ad.b.data for ad in adapted.adapters.values()]
    assert any(np.any(b != 0) for b in b_entries)


def test_lora_pretrain_leaves_no_gradient_behind(tiny_model):
    rng = np.random.default_rng(18)
    pairs = [(rand_image(rng), c) for c in ("a red circle", "a blue square",
                                            "a green triangle")] * 2
    encoder, losses = lora_pretrain(tiny_model, pairs, 2, np.random.default_rng(19),
                                    LoraConfig(rank=2), lr=0.01, batch_size=4)
    assert len(losses) == 4  # two batches, of 4 and 2 pairs, per epoch
    assert [n for n, t in encoder.trainables.items() if t.grad is not None] == []
    assert not any(t.requires_grad or t.grad is not None for t in tiny_model.params.values())


def test_trainable_parameter_count_hand_values():
    assert trainable_parameter_count(
        LoraConfig(rank=16, matrices=("k", "v", "q", "o"), layers=(11, 12)),
        embed_dim=768, num_layers=12) == 196_608
    assert trainable_parameter_count(
        LoraConfig(rank=4, matrices=("v",), layers=(1,)),
        embed_dim=64, num_layers=4) == 512
    assert trainable_parameter_count(
        LoraConfig(rank=1, matrices=("v",), layers=(1,)),
        embed_dim=64, num_layers=4) == 128


def test_count_matches_runtime_enumeration(tiny_model):
    for cfg in (LoraConfig(rank=2, matrices=("v",), layers=(1,)),
                LoraConfig(rank=4, matrices=("q", "v"), layers=(1, 2)),
                LoraConfig(rank=8, matrices=("q", "k", "v", "o"))):
        adapted = AdaptedEncoder(tiny_model, cfg, np.random.default_rng(0))
        formula = trainable_parameter_count(cfg, tiny_model.vit.embed_dim,
                                            tiny_model.vit.num_layers)
        assert adapted.trainable_count() == formula


def test_config_validation(tiny_model):
    with pytest.raises(ValueError, match="rank"):
        LoraConfig(rank=0)
    for scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale must be finite and >= 0"):
            LoraConfig(scale=scale)
    with pytest.raises(ValueError, match="matrix tag"):
        LoraConfig(matrices=("z",))
    with pytest.raises(ValueError, match="duplicate matrix tag"):
        config_from_json(LoraConfig, {"matrices": ["q", "q"], "rank": 2})
    with pytest.raises(ValueError, match="layer index"):
        AdaptedEncoder(tiny_model, LoraConfig(layers=(7,)), np.random.default_rng(0))
    with pytest.raises(ValueError, match="exceeds"):
        AdaptedEncoder(tiny_model, LoraConfig(rank=64), np.random.default_rng(0))


def test_config_json_round_trip():
    cfg = LoraConfig(rank=16, scale=2.0, matrices=("q", "k", "v", "o"), layers=(3, 4))
    obj = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert obj == {"rank": 16, "scale": 2.0, "matrices": ["q", "k", "v", "o"],
                   "layers": [3, 4]}
    assert config_from_json(LoraConfig, obj) == cfg


def test_config_json_missing_keys_take_defaults():
    assert config_from_json(LoraConfig, {}) == LoraConfig()
    assert config_from_json(LoraConfig, {"rank": 4}) == LoraConfig(rank=4)


def test_kaiming_uniform_bound(tiny_model):
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=8), np.random.default_rng(20))
    bound = 1.0 / np.sqrt(tiny_model.vit.embed_dim)
    for ad in adapted.adapters.values():
        assert np.all(np.abs(ad.a.data) <= bound)
        assert np.all(ad.b.data == 0.0)
        assert np.any(ad.a.data != 0.0)


def test_adapter_checkpoint_round_trip(tiny_model, tmp_path):
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=2), np.random.default_rng(21))
    rng = np.random.default_rng(22)
    for ad in adapted.adapters.values():
        ad.b.data = rng.normal(0, 0.1, size=ad.b.data.shape).astype(np.float32)
    adapted.set_baseline_from_current()
    path = tmp_path / "adapters.lttw"
    adapted.save_adapters(path)

    fresh = AdaptedEncoder(tiny_model, LoraConfig(rank=2), np.random.default_rng(23))
    fresh.load_adapters(path)
    img = rand_image(np.random.default_rng(24))
    a, _ = adapted.encode_image_batch(img[None])
    b, _ = fresh.encode_image_batch(img[None])
    assert np.array_equal(a.data, b.data)
    # reset returns to the loaded baseline, not to zero
    fresh.reset(np.random.default_rng(25))
    c, _ = fresh.encode_image_batch(img[None])
    assert np.array_equal(b.data, c.data)


@pytest.mark.parametrize("edit", ["b_shape", "scale", "matrices", "no_meta", "extra"])
def test_adapter_checkpoint_checked_before_loading(tiny_model, tmp_path, edit):
    path = tmp_path / "adapters.lttw"
    AdaptedEncoder(tiny_model, LoraConfig(rank=2), np.random.default_rng(21)).save_adapters(path)
    arrays = read_checkpoint(path)
    last = sorted(arrays)[-2]  # the last adapter's B, just before meta.lora
    if edit == "b_shape":
        arrays[last] = arrays[last][:, :1]
    elif edit == "scale":
        arrays["meta.lora"][1] = 2.0
    elif edit == "matrices":
        arrays["meta.lora"][2] = 2.0
    elif edit == "no_meta":
        del arrays["meta.lora"]
    else:  # an entry the run has no adapter for
        arrays["bogus"] = np.full(5, np.nan, np.float32)
    write_checkpoint(path, arrays)
    fresh = AdaptedEncoder(tiny_model, LoraConfig(rank=2), np.random.default_rng(23))
    before = [t.data.copy() for t in fresh.trainables.values()]
    named = {"b_shape": "lora_b", "extra": "unexpected entry 'bogus'"}.get(edit, "rank")
    with pytest.raises(ValueError, match=named):
        fresh.load_adapters(path)
    assert all(np.array_equal(t.data, q) for t, q in zip(fresh.trainables.values(), before))
    assert fresh.baseline is None
