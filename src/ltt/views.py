"""Augmented views of a single test instance, plus patch-mask sampling.

View 0 is always the deterministic original (resized to model input and
normalized); the rest are random resized crops with optional horizontal
flip. Everything is a pure function of (inputs, rng).
"""

from __future__ import annotations

import numpy as np

CROP_AREA_RANGE = (0.3, 1.0)
CROP_ASPECT_RANGE = (3.0 / 4.0, 4.0 / 3.0)
FLIP_PROB = 0.5
MAX_CROP_TRIES = 10


def sample_mask(num_patches: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted patch indices to drop: a uniform sample without replacement of
    exactly floor(ratio * P) of them."""
    if num_patches < 1:
        raise ValueError(f"need at least one patch, got {num_patches}")
    if not (0.0 <= ratio < 1.0):
        raise ValueError(f"mask ratio must be in [0, 1), got {ratio}")
    m = int(np.floor(ratio * num_patches))
    idx = rng.choice(num_patches, size=m, replace=False) if m else np.empty(0, dtype=np.int64)
    return np.sort(idx.astype(np.int64))


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(C,h,w) -> (C,out_h,out_w), half-pixel-center bilinear."""
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


def normalize(img: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return ((img - mean[:, None, None]) / std[:, None, None]).astype(np.float32)


def _random_crop_box(h: int, w: int, rng: np.random.Generator,
                     area_range=CROP_AREA_RANGE):
    for _ in range(MAX_CROP_TRIES):
        area = rng.uniform(*area_range) * h * w
        aspect = rng.uniform(*CROP_ASPECT_RANGE)
        cw = int(round(np.sqrt(area * aspect)))
        ch = int(round(np.sqrt(area / aspect)))
        if 1 <= ch <= h and 1 <= cw <= w:
            top = int(rng.integers(0, h - ch + 1))
            left = int(rng.integers(0, w - cw + 1))
            return top, left, ch, cw
    return 0, 0, h, w  # fall back to the full (center) crop


def random_resized_crop(img: np.ndarray, rng: np.random.Generator, out_size: int,
                        area_range=CROP_AREA_RANGE) -> np.ndarray:
    """One crop-resize-flip draw; shared by view generation and pretraining."""
    h, w = img.shape[1:]
    top, left, ch, cw = _random_crop_box(h, w, rng, area_range)
    crop = resize_bilinear(img[:, top:top + ch, left:left + cw], out_size, out_size)
    if rng.random() < FLIP_PROB:
        crop = crop[:, :, ::-1]
    return crop


def make_views(image: np.ndarray, n: int, rng: np.random.Generator,
               mean: np.ndarray, std: np.ndarray, out_size: int) -> np.ndarray:
    """(N, 3, S, S) normalized views of one instance: the original plus N-1
    random resized crops."""
    if n < 1:
        raise ValueError(f"need at least one view, got {n}")
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3,H,W) image, got {img.shape}")
    views = np.empty((n, 3, out_size, out_size), dtype=np.float32)
    views[0] = normalize(resize_bilinear(img, out_size, out_size), mean, std)
    for i in range(1, n):
        views[i] = normalize(random_resized_crop(img, rng, out_size), mean, std)
    return views
