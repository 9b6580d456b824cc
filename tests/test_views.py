import numpy as np
import pytest

from helpers import crop_reference, resize_reference
from ltt import views
from ltt.views import (CROP_AREA_RANGE, _bilinear, make_views, normalize, random_resized_crop,
                       resize_bilinear, sample_mask)

MEAN = np.array([0.5, 0.5, 0.5], dtype=np.float32)
STD = np.array([0.25, 0.25, 0.25], dtype=np.float32)


def rand_image(seed=0, size=32):
    return np.random.default_rng(seed).uniform(0, 1, size=(3, size, size)).astype(np.float32)


def test_single_view_is_original():
    img = rand_image(1)
    views = make_views(img, 1, np.random.default_rng(0), MEAN, STD, 32)
    assert views.shape == (1, 3, 32, 32)
    assert np.allclose(views[0], normalize(img, MEAN, STD), atol=0)


def test_view_zero_deterministic_and_normalized():
    img = rand_image(2)
    a = make_views(img, 8, np.random.default_rng(5), MEAN, STD, 32)
    expected = (img - MEAN[:, None, None]) / STD[:, None, None]
    assert np.allclose(a[0], expected, atol=1e-6)


def test_fixed_seed_batches_bit_identical():
    img = rand_image(3)
    a = make_views(img, 64, np.random.default_rng(7), MEAN, STD, 32)
    b = make_views(img, 64, np.random.default_rng(7), MEAN, STD, 32)
    assert np.array_equal(a, b)


def test_crops_differ_from_original():
    # over 10 seeds, the 63 augmented views differ pairwise from view 0
    img = rand_image(4)
    for seed in range(10):
        views = make_views(img, 64, np.random.default_rng(seed), MEAN, STD, 32)
        base_sum = views[0].sum()
        diffs = [abs(float(views[i].sum() - base_sum)) > 1e-6
                 for i in range(1, 64)]
        assert np.mean(diffs) > 0.95


def test_views_validate_inputs():
    with pytest.raises(ValueError, match="at least one view"):
        make_views(rand_image(5), 0, np.random.default_rng(0), MEAN, STD, 32)
    with pytest.raises(ValueError, match="3,H,W"):
        make_views(np.zeros((32, 32)), 4, np.random.default_rng(0), MEAN, STD, 32)


def test_resize_bilinear_identity_and_shrink():
    img = rand_image(6)
    assert np.array_equal(resize_bilinear(img, 32, 32), img)
    half = resize_bilinear(img, 16, 16)
    assert half.shape == (3, 16, 16)
    assert half.min() >= img.min() - 1e-6 and half.max() <= img.max() + 1e-6


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


@pytest.mark.parametrize("size", [20, 32, 48])
@pytest.mark.parametrize("area_range", [CROP_AREA_RANGE, (0.5, 1.0), (1.5, 2.0)],
                         ids=["views", "pretrain", "fallback"])
def test_batched_crops_match_per_crop_reference(size, area_range):
    # (1.5, 2.0) never fits, so every crop falls back to the full image
    src = np.random.default_rng(size).uniform(0, 1, (40, 3, size, size)).astype(np.float32)
    src[::4, :, ::3] = -0.0  # signed zeros survive crops of the output size
    ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    ref = np.stack([crop_reference(im, ref_rng, 32, area_range) for im in src])
    assert_same_bits(random_resized_crop(src, rng, 32, area_range), ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_bilinear_boxes_match_reference():
    img = np.random.default_rng(3).uniform(-1, 1, (3, 48, 48)).astype(np.float32)
    img[:, 9] = -0.0
    # output-sized, full, non-square, one-pixel-wide and single-pixel boxes
    boxes = [(5, 7, 32, 32), (0, 0, 48, 48), (3, 1, 10, 25), (40, 0, 8, 48),
             (0, 47, 48, 1), (47, 47, 1, 1), (16, 16, 32, 32), (9, 2, 33, 31)]
    flips = np.arange(len(boxes)) % 3 == 1
    got = _bilinear(np.broadcast_to(img, (len(boxes), 3, 48, 48)), np.array(boxes), 32, 32,
                    flips)
    for (top, left, h, w), flip, crop in zip(boxes, flips, got):
        ref = resize_reference(img[:, top:top + h, left:left + w], 32, 32)
        assert_same_bits(crop, ref[:, :, ::-1] if flip else ref)


@pytest.mark.parametrize("size", [20, 32, 48])
def test_resize_bilinear_matches_reference(size):
    img = rand_image(size, size)
    for out_h, out_w in ((32, 32), (16, 24), (5, 40), (size, size)):
        assert_same_bits(resize_bilinear(img, out_h, out_w), resize_reference(img, out_h, out_w))


@pytest.mark.parametrize("size", [20, 32, 48])
def test_make_views_match_per_crop_reference(size, monkeypatch):
    calls = []

    def counted(imgs, *args):
        calls.append(imgs.shape)
        return random_resized_crop(imgs, *args)

    monkeypatch.setattr(views, "random_resized_crop", counted)
    img = rand_image(size + 1, size)
    got = make_views(img, 64, np.random.default_rng(2), MEAN, STD, 32)
    assert calls == [(63, 3, size, size)]  # one crop call per episode
    rng = np.random.default_rng(2)
    ref = [resize_reference(img, 32, 32)] + [crop_reference(img, rng, 32) for _ in range(63)]
    assert_same_bits(got, np.stack([normalize(v, MEAN, STD) for v in ref]))


# ---------------------------------------------------------------------------
# masks


def test_mask_cardinalities():
    rng = np.random.default_rng(8)
    assert sample_mask(196, 0.5, rng).size == 98
    assert sample_mask(16, 0.0, rng).size == 0
    assert sample_mask(16, 0.75, rng).size == 12


def test_mask_indices_distinct_and_in_range():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        idx = sample_mask(16, 0.75, rng)
        assert idx.size == 12
        assert np.all(np.diff(idx) > 0)  # sorted and distinct
        assert idx.min() >= 0
        assert idx.max() < 16


def test_mask_cardinality_grid():
    rng = np.random.default_rng(10)
    for p in range(1, 257):
        for ratio in (0.25, 0.5, 0.75):
            assert sample_mask(p, ratio, rng).size == int(np.floor(ratio * p))


def test_mask_uniformity():
    rng = np.random.default_rng(11)
    hits = np.zeros(16)
    draws = 10_000
    for _ in range(draws):
        hits[sample_mask(16, 0.5, rng)] += 1
    freq = hits / draws
    assert np.all(np.abs(freq - 0.5) <= 0.02)


def test_mask_validation():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="ratio"):
        sample_mask(16, 1.0, rng)
    with pytest.raises(ValueError, match="ratio"):
        sample_mask(16, -0.1, rng)
    with pytest.raises(ValueError, match="patch"):
        sample_mask(0, 0.5, rng)
