"""Synthetic shapes-and-colors benchmark with controlled distribution shifts.

Classes are (color, shape) pairs drawn on procedurally textured
backgrounds, so crops and patch masks destroy or preserve class evidence
nontrivially. Shift kinds corrupt the clean test split at a severity in
1..5; severity 0 or kind "none" is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import check_positive
from .serial import read_tensor, write_tensor
from .views import resize_bilinear

SHAPES = ("circle", "square", "triangle", "cross", "ring")
COLORS = {
    "red": (0.85, 0.18, 0.15),
    "green": (0.18, 0.72, 0.25),
    "blue": (0.20, 0.32, 0.85),
    "yellow": (0.88, 0.82, 0.16),
    "purple": (0.60, 0.22, 0.72),
}
SHIFT_KINDS = ("none", "gaussian_noise", "blur", "color_shift", "occlusion")
DEFAULT_SHIFTS = ("gaussian_noise", "blur", "color_shift", "occlusion")

# extra words kept in the vocabulary so prompt ensembles stay in-vocab
TEMPLATE_WORDS = ("a", "photo", "of", "the", "sketch", "drawing", "picture",
                  "image", "small", "large", "bright", "blurry")


@dataclass
class SyntheticShiftSpec:
    num_classes: int = 10
    train_per_class: int = 500
    test_per_class: int = 20
    image_size: int = 32
    shift_kinds: tuple = DEFAULT_SHIFTS
    severity: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need K >= 2 classes, got {self.num_classes}")
        if self.num_classes > len(SHAPES) * len(COLORS):
            raise ValueError(f"at most {len(SHAPES) * len(COLORS)} classes supported")
        check_positive(self, "train_per_class", "test_per_class", "image_size")
        self.shift_kinds = tuple(self.shift_kinds)
        for k in self.shift_kinds:
            if k not in SHIFT_KINDS:
                raise ValueError(f"unknown shift kind {k!r}")
        if not (0 <= self.severity <= 5):
            raise ValueError(f"severity must be in 0..5, got {self.severity}")


def class_definitions(k: int) -> list[tuple[str, str]]:
    """Deterministic (color, shape) pairs; shapes and colors repeat across
    classes so neither attribute alone identifies a class."""
    colors = list(COLORS)
    out = []
    for i in range(k):
        shape = SHAPES[i % len(SHAPES)]
        color = colors[(i + i // len(SHAPES)) % len(colors)]
        out.append((color, shape))
    return out


@dataclass
class DatasetManifest:
    class_names: list[str]
    normalization: dict
    items: list[dict] = field(default_factory=list)

    def validate(self, root: Path | None = None):
        norm = self.normalization if isinstance(self.normalization, dict) else {}
        for key in ("mean", "std"):
            try:  # as float32, the dtype pretrain hands them to the model in
                with np.errstate(over="ignore"):
                    v = np.asarray(norm.get(key), dtype=np.float32)
            except (TypeError, ValueError, OverflowError):
                v = np.asarray(np.nan)
            if v.shape != (3,) or not np.isfinite(v).all() or (key == "std" and not (v > 0).all()):
                raise ValueError(f"manifest normalization.{key} must hold 3 finite numbers"
                                 f"{', each > 0' if key == 'std' else ''}, got {norm.get(key)!r}")
        names = self.class_names
        if not (isinstance(names, list) and len(names) >= 2
                and all(isinstance(c, str) for c in names)):
            raise ValueError(f"manifest class_names must be a list of >= 2 strings, got {names!r}")
        if not isinstance(self.items, list):
            raise ValueError(f"manifest items must be a list, got {type(self.items).__name__}")
        first: dict = {}
        for i, it in enumerate(self.items):
            if not isinstance(it, dict):
                raise ValueError(f"manifest item {i} must be an object, got {it!r}")
            for key, kind in (("id", str), ("path", str), ("split", str), ("label", int)):
                if type(it.get(key)) is not kind:  # so a bool is not a label
                    raise ValueError(f"manifest item {i} {key!r} must be {kind.__name__}, "
                                     f"got {it.get(key)!r}")
            if first.setdefault(it["id"], i) != i:
                raise ValueError(f"duplicate id {it['id']!r} at items {first[it['id']]} and {i}")
            if not (0 <= it["label"] < len(names)):
                raise ValueError(f"manifest item {i} label {it['label']} not in [0, {len(names)})")
            if root is not None and not (root / it["path"]).exists():
                raise ValueError(f"missing tensor file {it['path']}")

    def splits(self) -> list[str]:
        seen = []
        for it in self.items:
            if it["split"] not in seen:
                seen.append(it["split"])
        return seen

    def items_for_split(self, split: str) -> list[dict]:
        return [it for it in self.items if it["split"] == split]

    def to_json(self) -> dict:
        return {"class_names": self.class_names, "normalization": self.normalization,
                "items": self.items}

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        with open(path) as f:
            try:
                obj = json.load(f)
                if not isinstance(obj, dict):
                    raise ValueError("manifest must hold a JSON object")
                man = cls(obj.get("class_names"), obj.get("normalization"), obj.get("items"))
                man.validate()
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from e
        return man


# ---------------------------------------------------------------------------
# rendering


def _background(size: int, rng: np.random.Generator) -> np.ndarray:
    # low-frequency textured backdrop, muted so shape colors stay dominant
    low = rng.uniform(0.25, 0.75, size=(3, 4, 4)).astype(np.float32)
    bg = resize_bilinear(low, size, size)
    bg = 0.55 * bg + 0.45 * bg.mean(axis=0, keepdims=True)
    bg += rng.normal(0.0, 0.02, size=bg.shape).astype(np.float32)
    return np.clip(bg, 0.0, 1.0)


def _shape_mask(shape: str, size: int, rng: np.random.Generator) -> np.ndarray:
    cx = rng.uniform(0.38, 0.62) * size
    cy = rng.uniform(0.38, 0.62) * size
    r = rng.uniform(0.20, 0.32) * size
    theta = rng.uniform(-0.45, 0.45)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dx, dy = xx - cx, yy - cy
    # rotate coordinates for orientation jitter
    rx = np.cos(theta) * dx + np.sin(theta) * dy
    ry = -np.sin(theta) * dx + np.cos(theta) * dy
    if shape == "circle":
        return dx * dx + dy * dy <= r * r
    if shape == "square":
        return np.maximum(np.abs(rx), np.abs(ry)) <= 0.85 * r
    if shape == "ring":
        d2 = dx * dx + dy * dy
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    if shape == "cross":
        arm = 0.38 * r
        return ((np.abs(rx) <= arm) & (np.abs(ry) <= r)) | \
               ((np.abs(ry) <= arm) & (np.abs(rx) <= r))
    if shape == "triangle":
        # half-plane test against the three edges of an isoceles triangle
        v = np.array([[0.0, -r], [-0.95 * r, 0.72 * r], [0.95 * r, 0.72 * r]])
        inside = np.ones((size, size), dtype=bool)
        for i in range(3):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % 3]
            cross = (x2 - x1) * (ry - y1) - (y2 - y1) * (rx - x1)
            inside &= cross >= 0
        return inside
    raise ValueError(f"unknown shape {shape!r}")


def render_instance(color: str, shape: str, size: int,
                    rng: np.random.Generator) -> np.ndarray:
    img = _background(size, rng)
    mask = _shape_mask(shape, size, rng)
    tint = np.asarray(COLORS[color], dtype=np.float32) * rng.uniform(0.85, 1.1)
    fill = tint[:, None, None] + rng.normal(0.0, 0.025, size=(3, size, size)).astype(np.float32)
    img = np.where(mask[None, :, :], fill, img)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


# ---------------------------------------------------------------------------
# shifts


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(2.5 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return (k / k.sum()).astype(np.float32)


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    k = _gaussian_kernel(sigma)
    radius = len(k) // 2
    for axis in (1, 2):
        pad = [(0, 0), (0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(img, pad, mode="edge")
        out = np.zeros_like(img)
        for i, w in enumerate(k):
            sl = [slice(None)] * 3
            sl[axis] = slice(i, i + img.shape[axis])
            out += w * padded[tuple(sl)]
        img = out
    return img


def apply_shift(img: np.ndarray, kind: str, severity: int,
                rng: np.random.Generator) -> np.ndarray:
    if kind == "none" or severity == 0:
        return img.copy()
    if kind == "gaussian_noise":
        out = img + rng.normal(0.0, 0.05 * severity, size=img.shape).astype(np.float32)
    elif kind == "blur":
        out = _blur(img, 1.4 * severity)
    elif kind == "color_shift":
        alpha = 0.07 * severity
        rolled = np.roll(img, 1, axis=0)
        out = (1.0 - alpha) * img + alpha * rolled
        out = out * rng.uniform(0.82, 1.12, size=(3, 1, 1)).astype(np.float32)
    elif kind == "occlusion":
        out = img.copy()
        side = int(round((0.10 + 0.09 * severity) * img.shape[1]))
        size = img.shape[1]
        top = int(rng.integers(0, size - side + 1))
        left = int(rng.integers(0, size - side + 1))
        patch = rng.uniform(0.35, 0.65)
        out[:, top:top + side, left:left + side] = patch
    else:
        raise ValueError(f"unknown shift kind {kind!r}")
    return np.clip(out, 0.0, 1.0).astype(np.float32)


# ---------------------------------------------------------------------------
# generation


def _item_rng(seed: int, split_code: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, split_code, index]))


def vocabulary_words(class_names: list[str]) -> list[str]:
    words = set(TEMPLATE_WORDS)
    for name in class_names:
        words.update(name.lower().split())
    return sorted(words)


def generate(spec: SyntheticShiftSpec, out_dir) -> DatasetManifest:
    """Render train/test splits plus one shifted test split per shift kind."""
    out = Path(out_dir)
    tensors = out / "tensors"
    tensors.mkdir(parents=True, exist_ok=True)
    defs = class_definitions(spec.num_classes)
    class_names = [f"{color} {shape}" for color, shape in defs]

    items: list[dict] = []
    train_pixels = np.zeros(3, dtype=np.float64)
    train_sq = np.zeros(3, dtype=np.float64)
    count = 0

    def emit(split: str, iid: str, img: np.ndarray, label: int):
        rel = f"tensors/{iid}.lttf"
        write_tensor(out / rel, img)
        items.append({"id": iid, "path": rel, "label": label,
                      "caption": f"a photo of a {class_names[label]}", "split": split})

    test_images: list[np.ndarray] = []
    test_labels: list[int] = []
    for label in range(spec.num_classes):
        color, shape = defs[label]
        for j in range(spec.train_per_class):
            rng = _item_rng(spec.seed, 1, label * spec.train_per_class + j)
            img = render_instance(color, shape, spec.image_size, rng)
            emit("train", f"train_{label:02d}_{j:05d}", img, label)
            train_pixels += img.reshape(3, -1).mean(axis=1)
            train_sq += (img.reshape(3, -1) ** 2).mean(axis=1)
            count += 1
        for j in range(spec.test_per_class):
            rng = _item_rng(spec.seed, 2, label * spec.test_per_class + j)
            img = render_instance(color, shape, spec.image_size, rng)
            emit("test", f"test_{label:02d}_{j:05d}", img, label)
            test_images.append(img)
            test_labels.append(label)

    for kind in spec.shift_kinds:
        for i, (img, label) in enumerate(zip(test_images, test_labels)):
            rng = _item_rng(spec.seed, 3 + SHIFT_KINDS.index(kind), i)
            shifted = apply_shift(img, kind, spec.severity, rng)
            emit(f"test_{kind}", f"test_{kind}_{i:05d}", shifted, label)

    mean = train_pixels / count
    var = train_sq / count - mean**2
    std = np.sqrt(np.maximum(var, 1e-8))
    manifest = DatasetManifest(
        class_names=class_names,
        normalization={"mean": [float(x) for x in mean], "std": [float(x) for x in std]},
        items=items)
    manifest.validate(out)
    manifest.save(out / "manifest.json")
    return manifest


def _read_image(root: Path, item: dict) -> np.ndarray:
    # a NaN pixel would otherwise reach the episode and poison the run's ECE
    img = read_tensor(root / item["path"])
    if not np.isfinite(img).all():
        raise ValueError(f"item {item['id']!r} has non-finite pixels")
    return img


@dataclass
class Instance:
    id: str
    image: np.ndarray  # raw (3,S,S) in [0,1]
    label: int | None = None


def load_split(data_dir, split: str, manifest: DatasetManifest | None = None) -> list[Instance]:
    root = Path(data_dir)
    manifest = manifest or DatasetManifest.load(root / "manifest.json")
    rows = manifest.items_for_split(split)
    if not rows:
        raise ValueError(f"no items in split {split!r} (have {manifest.splits()})")
    return [Instance(it["id"], _read_image(root, it), it["label"]) for it in rows]


def load_pairs(data_dir, split: str = "train", manifest=None) -> list[tuple[np.ndarray, str]]:
    root = Path(data_dir)
    manifest = manifest or DatasetManifest.load(root / "manifest.json")
    rows = manifest.items_for_split(split)
    for it in rows:  # only training needs captions, so validate leaves them out
        if not isinstance(it.get("caption"), str):
            raise ValueError(f"item {it['id']!r} has no string caption")
    return [(_read_image(root, it), it["caption"]) for it in rows]
