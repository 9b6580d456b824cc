import dataclasses
import math
import re

import numpy as np
import pytest

from ltt import encoder, tensor as T
from ltt.encoder import (ClipModel, TextConfig, TextFeatureTable, VitConfig,
                         build_text_table, classify_batch, contrastive_loss)
from ltt.lora import AdaptedEncoder, LoraConfig
from ltt.serial import config_from_json, read_checkpoint, write_checkpoint
from ltt.tensor import Tensor
from ltt.views import sample_mask

from helpers import BROKEN_CHECKPOINTS, break_checkpoint, keep_rows


def rand_image(rng, size=32):
    return rng.uniform(0, 1, size=(3, size, size)).astype(np.float32)


# ---------------------------------------------------------------------------
# image encoder


def test_patch_count_and_sequence_length(tiny_model):
    assert tiny_model.vit.num_patches == 16  # 32/8 squared
    rng = np.random.default_rng(0)
    cls, toks = tiny_model.encode_image_batch(rand_image(rng)[None])
    assert cls.shape == (1, tiny_model.vit.out_dim)
    assert toks.shape == (1, 16, tiny_model.vit.out_dim)


def test_mask_drops_tokens(tiny_model):
    rng = np.random.default_rng(1)
    img = rand_image(rng)
    # ratio 0.5 on P=16: 8 dropped, class token + 8 patches remain
    dropped = list(range(8))
    _, toks = tiny_model.encode_image_batch(img[None], keep=keep_rows(16, [dropped]))
    assert toks.shape[1] == 8


def test_encode_image_deterministic(tiny_model):
    rng = np.random.default_rng(2)
    img = rand_image(rng)
    a, _ = tiny_model.encode_image_batch(img[None])
    b, _ = tiny_model.encode_image_batch(img[None])
    assert np.array_equal(a.data, b.data)


def test_empty_mask_matches_no_mask_bitexact(tiny_model):
    rng = np.random.default_rng(3)
    img = rand_image(rng)
    a, ta = tiny_model.encode_image_batch(img[None])
    b, tb = tiny_model.encode_image_batch(img[None], keep=keep_rows(16, [[]]))
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(ta.data, tb.data)


def test_image_shape_and_mask_errors(tiny_model):
    with pytest.raises(ValueError, match="shape"):
        tiny_model.encode_image_batch(np.zeros((1, 3, 16, 16), np.float32))
    with pytest.raises(ValueError, match="keep"):  # patch 16 of 16 is token 17 of 17
        tiny_model.encode_image_batch(np.zeros((1, 3, 32, 32), np.float32), keep=[[0, 17]])


def test_batch_matches_single(tiny_model):
    rng = np.random.default_rng(4)
    imgs = np.stack([rand_image(rng) for _ in range(3)])
    cls_b, toks_b = tiny_model.encode_image_batch(imgs)
    for i in range(3):
        cls_s, _ = tiny_model.encode_image_batch(imgs[i][None])
        assert np.allclose(cls_b.data[i], cls_s.data[0], atol=1e-5)


def test_batched_keep_rows_match_single_masked_views(tiny_model):
    rng = np.random.default_rng(5)
    adapted = AdaptedEncoder(tiny_model, LoraConfig(rank=2), rng)
    for ad in adapted.adapters.values():
        ad.b.data = rng.normal(0, 0.1, ad.b.data.shape).astype(np.float32)
    imgs = np.stack([rand_image(rng) for _ in range(4)])
    masks = [sample_mask(16, 0.5, rng) for _ in range(4)]
    keep = keep_rows(16, masks)
    cls_b, toks_b = adapted.encode_image_batch(imgs, keep=keep)
    assert toks_b.shape == (4, 8, tiny_model.vit.out_dim)
    for j in range(4):
        cls_s, toks_s = adapted.encode_image_batch(imgs[j][None], keep=keep[j][None])
        assert np.array_equal(cls_b.data[j], cls_s.data[0])
        assert np.array_equal(toks_b.data[j], toks_s.data[0])


def test_weights_map_matches_a_model_holding_those_weights(tiny_model):
    rng = np.random.default_rng(6)
    imgs = np.stack([rand_image(rng) for _ in range(3)])
    name = "img.layers.1.attn.wv"
    t = Tensor(rng.normal(0, 0.1, tiny_model.params[name].shape).astype(np.float32))
    params = dict(tiny_model.params)
    before = {n: p.data.copy() for n, p in params.items()}
    cls, tok = tiny_model.encode_image_batch(imgs, weights={name: t})
    copy = ClipModel(tiny_model.vit, tiny_model.txt, tiny_model.vocab, {**before, name: t.data})
    want_cls, want_tok = copy.encode_image_batch(imgs)
    assert np.array_equal(cls.data, want_cls.data) and np.array_equal(tok.data, want_tok.data)
    assert not np.array_equal(cls.data, tiny_model.encode_image_batch(imgs)[0].data)
    assert tiny_model.params == params  # the same Tensor objects, none added or swapped
    assert all(np.array_equal(p.data, before[n]) for n, p in tiny_model.params.items())


def test_keep_shape_and_range_errors(tiny_model):
    imgs = np.zeros((2, 3, 32, 32), np.float32)
    with pytest.raises(ValueError, match="keep"):
        tiny_model.encode_image_batch(imgs, keep=[[0, 1, 2]])  # one row for two images
    with pytest.raises(ValueError, match="keep"):
        tiny_model.encode_image_batch(imgs, keep=[[0, 17], [0, 1]])  # 1 + P = 17 tokens
    with pytest.raises(ValueError, match="keep"):
        tiny_model.encode_image_batch(imgs, keep=[0, 1])


def test_a_forward_counts_what_it_encoded_on_the_open_tape_only(tiny_model):
    rng = np.random.default_rng(6)
    imgs = np.stack([rand_image(rng) for _ in range(3)])
    keep = keep_rows(16, [list(range(8)), [1, 3, 5, 7, 9, 11, 13, 15], list(range(8, 16))])
    full = {"full_views": 3, "full_tokens": 3 * (1 + 16)}
    with T.Tape() as tape:
        tiny_model.encode_image_batch(imgs)
        assert tape.counts == full
        tiny_model.encode_image_batch(imgs, keep=keep)
        assert tape.counts == {**full, "masked_views": 3, "masked_tokens": keep.size}
        with pytest.raises(RuntimeError, match="already open"), T.Tape():  # one at a time
            pass
    assert keep.size == 3 * 9
    assert tape.counts == {**full, "masked_views": 3, "masked_tokens": 27}
    tiny_model.encode_image_batch(imgs)  # no tape open
    assert tape.counts == {**full, "masked_views": 3, "masked_tokens": 27}


# ---------------------------------------------------------------------------
# text encoder


def test_encode_text_deterministic_and_width(tiny_model):
    ids = tiny_model.vocab.encode("a photo of a red circle")
    a = tiny_model.encode_text_batch([ids])
    b = tiny_model.encode_text_batch([ids])
    assert np.array_equal(a.data, b.data)
    assert a.shape == (1, tiny_model.txt.out_dim)
    short = tiny_model.encode_text_batch([tiny_model.vocab.encode("red")])
    assert short.shape == (1, tiny_model.txt.out_dim)


def test_distinct_captions_distinct_vectors(tiny_model):
    a = tiny_model.encode_text_batch([tiny_model.vocab.encode("a red circle")])
    b = tiny_model.encode_text_batch([tiny_model.vocab.encode("a blue square")])
    assert not np.allclose(a.data, b.data)


def test_text_errors(tiny_model):
    with pytest.raises(ValueError, match="unknown token"):
        tiny_model.vocab.encode("a purple dinosaur")
    with pytest.raises(ValueError, match="unknown token id"):
        tiny_model.encode_text_batch([[0, 9999, 1]])
    with pytest.raises(ValueError, match="context"):
        tiny_model.encode_text_batch([[0] * 40])


# ---------------------------------------------------------------------------
# classification


def orth_table(de=8):
    rows = np.zeros((2, de), dtype=np.float32)
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    return TextFeatureTable(["one", "two"], rows)


def test_classify_hand_softmax():
    table = orth_table()
    v = np.zeros(8, dtype=np.float32)
    v[0] = 1.0
    probs = classify_batch(Tensor(v[None]), table, tau=1.0).data[0]
    assert probs == pytest.approx([0.7311, 0.2689], abs=1e-4)


def test_classify_identical_rows_symmetric():
    rows = np.zeros((2, 4), dtype=np.float32)
    rows[:, 0] = 1.0
    table = TextFeatureTable(["a", "b"], rows)
    v = np.random.default_rng(0).normal(size=4).astype(np.float32)
    probs = classify_batch(Tensor(v[None]), table, tau=0.5).data[0]
    assert probs == pytest.approx([0.5, 0.5], abs=1e-6)


def test_classify_sharpens_at_low_temperature():
    table = orth_table()
    v = np.zeros(8, dtype=np.float32)
    v[0] = 1.0
    probs = classify_batch(Tensor(v[None]), table, tau=0.01).data[0]
    assert probs[0] > 0.999


def test_classify_probability_simplex():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(6, 16))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    table32 = TextFeatureTable([f"c{i}" for i in range(6)], rows.astype(np.float32))
    for _ in range(1000):
        v32 = rng.normal(size=16).astype(np.float32)
        p32 = classify_batch(Tensor(v32[None]), table32, tau=0.07).data
        assert abs(float(p32.sum()) - 1.0) < 1e-6
        p64 = classify_batch(Tensor(v32[None].astype(np.float64)),
                             TextFeatureTable(table32.class_names, rows.astype(np.float64)),
                             tau=0.07).data
        assert abs(float(p64.sum()) - 1.0) < 1e-12


def test_classify_argmax_invariant_to_temperature():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(5, 12))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    table = TextFeatureTable([f"c{i}" for i in range(5)], rows.astype(np.float32))
    for _ in range(50):
        v = Tensor(rng.normal(size=(1, 12)).astype(np.float32))
        a = int(np.argmax(classify_batch(v, table, tau=1.0).data))
        b = int(np.argmax(classify_batch(v, table, tau=0.05).data))
        assert a == b


def test_classify_rejects_bad_inputs():
    table = orth_table()
    with pytest.raises(ValueError, match="positive"):
        classify_batch(Tensor(np.ones((1, 8), np.float32)), table, tau=0.0)
    with pytest.raises(ValueError, match="2 classes"):
        TextFeatureTable(["only"], np.ones((1, 4), np.float32))


# ---------------------------------------------------------------------------
# text table


def test_single_template_is_normalized_encoding(tiny_model):
    table = build_text_table(tiny_model, ["red circle", "blue square"],
                             ["a photo of a {class}"])
    emb = tiny_model.encode_text_batch([tiny_model.vocab.encode("a photo of a red circle")]).data[0]
    expected = emb / np.linalg.norm(emb)
    assert np.allclose(table.features[0], expected, atol=1e-6)


def test_duplicate_templates_idempotent(tiny_model):
    one = build_text_table(tiny_model, ["red circle", "blue square"],
                           ["a photo of a {class}"])
    two = build_text_table(tiny_model, ["red circle", "blue square"],
                           ["a photo of a {class}", "a photo of a {class}"])
    assert np.allclose(one.features, two.features, atol=1e-6)


def test_ensemble_matches_numpy_oracle(tiny_model):
    templates = ["a photo of a {class}", "a sketch of a {class}"]
    names = ["red circle", "blue square", "green triangle"]
    table = build_text_table(tiny_model, names, templates)
    for i, name in enumerate(names):
        accs = []
        for tmpl in templates:
            e = tiny_model.encode_text_batch(
                [tiny_model.vocab.encode(tmpl.replace("{class}", name))]).data[0].astype(np.float64)
            accs.append(e / np.linalg.norm(e))
        avg = np.mean(accs, axis=0)
        expected = avg / np.linalg.norm(avg)
        assert np.allclose(table.features[i], expected, atol=1e-6)
        assert abs(np.linalg.norm(table.features[i]) - 1.0) < 1e-6


def test_table_rows_unit_norm_any_template_count(tiny_model):
    for templates in (["a {class}"], ["a {class}", "the {class}", "a photo of a {class}"]):
        table = build_text_table(tiny_model, ["red circle", "blue square"], templates)
        assert np.allclose(np.linalg.norm(table.features, axis=1), 1.0, atol=1e-6)


def test_table_template_errors(tiny_model):
    with pytest.raises(ValueError, match="template"):
        build_text_table(tiny_model, ["red circle", "blue square"], [])
    with pytest.raises(ValueError, match="slot"):
        build_text_table(tiny_model, ["red circle", "blue square"], ["a photo"])


# ---------------------------------------------------------------------------
# contrastive loss


def test_contrastive_single_pair_is_zero():
    v = np.ones((1, 4), dtype=np.float64) / 2.0
    loss = contrastive_loss(Tensor(v), Tensor(v.copy()), 1.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_contrastive_orthogonal_pairs_hand_value():
    embs = np.eye(2, 4, dtype=np.float64)
    loss = contrastive_loss(Tensor(embs), Tensor(embs.copy()), 1.0)
    assert loss.item() == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)


def test_contrastive_permutation_symmetry():
    rng = np.random.default_rng(7)
    img = rng.normal(size=(5, 8))
    img /= np.linalg.norm(img, axis=1, keepdims=True)
    txt = rng.normal(size=(5, 8))
    txt /= np.linalg.norm(txt, axis=1, keepdims=True)
    base = contrastive_loss(Tensor(img), Tensor(txt), 2.0).item()
    perm = rng.permutation(5)
    shuffled = contrastive_loss(Tensor(img[perm]), Tensor(txt[perm]), 2.0).item()
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_contrastive_batch_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        contrastive_loss(Tensor(np.ones((2, 4), np.float32)),
                         Tensor(np.ones((3, 4), np.float32)), 1.0)


# ---------------------------------------------------------------------------
# persistence


def test_checkpoint_round_trip_preserves_outputs(tiny_model, tmp_path):
    path = tmp_path / "model.lttw"
    tiny_model.save(path)
    back = ClipModel.load(path)
    assert back.vit == tiny_model.vit
    assert back.vocab.words == tiny_model.vocab.words
    rng = np.random.default_rng(8)
    img = rand_image(rng)
    a, _ = tiny_model.encode_image_batch(img[None])
    b, _ = back.encode_image_batch(img[None])
    assert np.array_equal(a.data, b.data)
    ids = tiny_model.vocab.encode("a photo of a blue square")
    assert np.array_equal(tiny_model.encode_text_batch([ids]).data,
                          back.encode_text_batch([ids]).data)
    assert back.tau == pytest.approx(tiny_model.tau, rel=1e-6)


def test_towers_of_different_out_dim_are_rejected(tiny_model):
    # meta.config holds one out_dim, so such a model could not load what it saved
    txt = dataclasses.replace(tiny_model.txt, out_dim=16)
    with pytest.raises(ValueError, match="image out_dim 32 != text out_dim 16"):
        ClipModel.create(tiny_model.vit, txt, tiny_model.vocab)


@pytest.mark.parametrize("meta", [np.arange(5.0), np.array([1.0] + [np.inf] * 11)],
                         ids=["short", "inf"])
def test_load_rejects_malformed_meta_config(tiny_model, tmp_path, meta):
    path = tmp_path / "model.lttw"
    tiny_model.save(path)
    arrays = read_checkpoint(path)
    arrays["meta.config"] = meta.astype(np.float32)
    write_checkpoint(path, arrays)
    with pytest.raises(ValueError, match="meta.config"):
        ClipModel.load(path)


@pytest.mark.parametrize("case", sorted(BROKEN_CHECKPOINTS))
def test_load_rejects_weights_off_the_layout(tiny_model, tmp_path, case):
    tiny_model.save(tmp_path / "model.lttw")
    name = break_checkpoint(tmp_path / "model.lttw", tmp_path / "broken.lttw", case)
    with pytest.raises(ValueError) as err:
        ClipModel.load(tmp_path / "broken.lttw")
    assert f"checkpoint {tmp_path / 'broken.lttw'}: " in str(err.value)
    assert repr(name) in str(err.value)


def test_load_builds_a_claimed_layout_only_up_to_its_first_missing_weight(
        tiny_model, tmp_path, monkeypatch):
    tiny_model.save(tmp_path / "model.lttw")
    arrays = read_checkpoint(tmp_path / "model.lttw")
    arrays["meta.config"][10] = 10**4  # text num_layers; the weights hold 2
    write_checkpoint(tmp_path / "claimed.lttw", arrays)
    produced, layout = [], encoder.param_layout

    def counted_layout(vit, txt):
        for entry in layout(vit, txt):
            produced.append(entry[0])
            yield entry

    monkeypatch.setattr(encoder, "param_layout", counted_layout)
    with pytest.raises(ValueError, match="missing weight 'txt.layers.2.ln1.g'"):
        ClipModel.load(tmp_path / "claimed.lttw")
    names = list(arrays)
    assert produced == names[:names.index("txt.ln_f.g")] + ["txt.layers.2.ln1.g"]


def test_layout_is_every_weight_in_record_order(tiny_model, tmp_path):
    layout = list(encoder.param_layout(tiny_model.vit, tiny_model.txt))
    assert [(n, s) for n, s, _ in layout] == [(n, p.shape) for n, p in tiny_model.params.items()]
    tiny_model.save(tmp_path / "model.lttw")
    names = [n for n, _, _ in layout] + ["meta.config", "meta.vocab"]
    assert list(read_checkpoint(tmp_path / "model.lttw")) == names
    for name, _, (kind, value) in layout:
        if kind == "fill":
            assert (tiny_model.params[name].data == np.float32(value)).all(), name


@pytest.mark.parametrize("cls, kw", [
    (VitConfig, {"patch_size": 0}), (VitConfig, {"num_heads": -4}),
    (VitConfig, {"image_size": 0}), (VitConfig, {"mlp_ratio": float("nan")}),
    (TextConfig, {"vocab_size": 5, "width": 0}), (TextConfig, {"vocab_size": 5, "num_heads": 0}),
    (TextConfig, {"vocab_size": 5, "context": -1}), (TextConfig, {"vocab_size": 0})])
def test_configs_reject_non_positive_sizes(cls, kw):
    with pytest.raises(ValueError, match="must be > 0"):
        cls(**kw)


@pytest.mark.parametrize("embed_dim, ratio", [(64, 0.01), (64, 1 / 64 - 1e-9), (4, 0.2)])
def test_vit_config_rejects_an_mlp_with_no_hidden_units(embed_dim, ratio):
    obj = {"embed_dim": embed_dim, "num_heads": 4, "mlp_ratio": ratio}
    with pytest.raises(ValueError, match=re.escape(
            f"mlp_ratio {ratio} gives the MLP int({embed_dim} * {ratio}) = 0 hidden units")):
        config_from_json(VitConfig, obj)
    # the smallest ratio that gives one hidden unit builds
    assert config_from_json(VitConfig, {**obj, "mlp_ratio": 1 / embed_dim}).mlp_ratio > 0


def test_image_tower_parameter_bound_is_exact(tiny_model, monkeypatch):
    count = sum(p.data.size for n, p in tiny_model.params.items() if n.startswith("img."))
    monkeypatch.setattr(encoder, "MAX_IMAGE_PARAMS", count)
    VitConfig(**dataclasses.asdict(tiny_model.vit))
    monkeypatch.setattr(encoder, "MAX_IMAGE_PARAMS", count - 1)
    with pytest.raises(ValueError, match=f"has {count} image-tower parameters"):
        VitConfig(**dataclasses.asdict(tiny_model.vit))

