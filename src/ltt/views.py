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
CROP_BLOCK = 16  # crops resampled per pass: the pass's float64 temporaries stay this size


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


def _bilinear(imgs: np.ndarray, boxes: np.ndarray, out_h: int, out_w: int,
              flips: np.ndarray) -> np.ndarray:
    """(n,C,H,W) -> (n,C,out_h,out_w): box (top, left, h, w) of image i, resampled
    half-pixel-center bilinear, mirrored left-right where flips[i]. An x pass
    over each source's rows, then a y pass, take a direct 2-D gather's float64
    terms one for one, so each crop is bit-identical to resizing it alone. A crop
    already of the output size samples i1 = i0: each pixel x gives x*1 + x*0 = x."""
    same = ((boxes[:, 2] == out_h) & (boxes[:, 3] == out_w))[:, None]
    k = np.arange(len(boxes))[:, None]
    a = imgs.transpose(0, 3, 1, 2)  # (n, W, C, H): each pass gathers axis 1
    for start, size, n_out, rev in ((boxes[:, 1:2], boxes[:, 3:], out_w, flips),
                                    (boxes[:, :1], boxes[:, 2:3], out_h, np.zeros_like(flips))):
        pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (size / n_out) - 0.5
        pos = np.clip(pos, 0.0, size - 1.0)
        i0 = np.floor(pos).astype(np.int64)
        i1 = np.where(same, i0, np.minimum(i0 + 1, size - 1)) + start
        wt = (pos - i0)[:, :, None, None]
        i0 += start
        for t in (i0, i1, wt):
            t[rev] = t[rev, ::-1]
        a = (a[k, i0] * (1 - wt) + a[k, i1] * wt).transpose(0, 3, 2, 1)
    return a.transpose(0, 2, 3, 1).astype(imgs.dtype, order="C")


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(C,h,w) -> (C,out_h,out_w), half-pixel-center bilinear."""
    _, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    return _bilinear(img[None], np.array([[0, 0, h, w]]), out_h, out_w,
                     np.zeros(1, dtype=bool))[0]


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


def random_resized_crop(imgs: np.ndarray, rng: np.random.Generator, out_size: int,
                        area_range=CROP_AREA_RANGE) -> np.ndarray:
    """(n,C,H,W) -> (n,C,S,S): one crop-resize-flip draw per image, shared by
    view generation and pretraining. Draws box then flip, image by image, then
    resamples the crops CROP_BLOCK at a time; each crop is computed on its own."""
    n, c, h, w = imgs.shape
    boxes = np.empty((n, 4), dtype=np.int64)
    flips = np.empty(n, dtype=bool)
    for i in range(n):
        boxes[i] = _random_crop_box(h, w, rng, area_range)
        flips[i] = rng.random() < FLIP_PROB
    out = np.empty((n, c, out_size, out_size), imgs.dtype)
    for i in range(0, n, CROP_BLOCK):
        blk = slice(i, i + CROP_BLOCK)
        out[blk] = _bilinear(imgs[blk], boxes[blk], out_size, out_size, flips[blk])
    return out


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
    if n > 1:
        crops = random_resized_crop(np.broadcast_to(img, (n - 1, *img.shape)), rng, out_size)
        views[1:] = normalize(crops, mean, std)
    return views
