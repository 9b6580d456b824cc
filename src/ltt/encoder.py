"""Miniature CLIP-style dual encoder.

Image side: pre-norm ViT over 8x8 patches with a class token; all output
tokens are projected into the shared embedding space. Text side: a small
transformer over whitespace tokens from a closed vocabulary; the feature is
the end-of-sequence position. Cosine-similarity classification against a
precomputed table of class text embeddings, temperature-scaled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import tensor as T
from .serial import read_checkpoint, read_text_table, write_checkpoint, write_text_table
from .tensor import Tensor

META_VERSION = 1
LOGIT_SCALE_INIT = math.log(100.0)  # 1/tau starts at the clamp; softer inits
LOGIT_SCALE_MAX = math.log(100.0)   # weaken the learned features at this scale
MAX_IMAGE_PARAMS = 10**8  # 400 MB as float32; the default image tower has 217,664


def check_positive(cfg, *names: str):
    for name in names:
        if not getattr(cfg, name) > 0:  # also rejects NaN
            raise ValueError(f"{type(cfg).__name__}.{name} must be > 0, got {getattr(cfg, name)}")


@dataclass
class VitConfig:
    image_size: int = 32
    patch_size: int = 8
    embed_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0
    out_dim: int = 64

    def __post_init__(self):
        check_positive(self, "image_size", "patch_size", "embed_dim", "num_heads",
                       "mlp_ratio", "out_dim")
        if self.embed_dim > sys.float_info.max / self.mlp_ratio:  # no overflow on a huge int
            raise ValueError(f"VitConfig.embed_dim * mlp_ratio must be finite, got "
                             f"{self.embed_dim} * {self.mlp_ratio}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by {self.num_heads} heads")
        if self.num_layers < 2:
            raise ValueError("need num_layers >= 2")
        d, h = self.embed_dim, int(self.embed_dim * self.mlp_ratio)
        if h < 1:
            raise ValueError(f"VitConfig.mlp_ratio {self.mlp_ratio} gives the MLP "
                             f"int({d} * {self.mlp_ratio}) = 0 hidden units, need >= 1")
        n = (d * (self.patch_dim + self.num_patches + 5 + self.out_dim)  # every img.* weight
             + self.num_layers * (4 * d * d + 2 * h * d + h + 9 * d))
        if n > MAX_IMAGE_PARAMS:
            raise ValueError(f"{self} has {n} image-tower parameters, more than {MAX_IMAGE_PARAMS}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size * self.patch_size


@dataclass
class TextConfig:
    vocab_size: int
    context: int = 16
    width: int = 64
    num_layers: int = 2
    num_heads: int = 4
    out_dim: int = 64

    def __post_init__(self):
        check_positive(self, "vocab_size", "context", "width", "num_heads", "out_dim")
        if self.width % self.num_heads != 0:
            raise ValueError(f"width {self.width} not divisible by {self.num_heads} heads")


@dataclass
class TextFeatureTable:
    class_names: list[str]
    features: np.ndarray  # K x D_e, unit-norm rows

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise ValueError("need at least 2 classes")
        if self.features.shape[0] != len(self.class_names):
            raise ValueError("row count does not match class names")
        norms = np.linalg.norm(self.features, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-5):
            raise ValueError("table rows must be L2-normalized")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def save(self, path):
        write_text_table(path, self.class_names, self.features)

    @classmethod
    def load(cls, path) -> "TextFeatureTable":
        names, rows = read_text_table(path)
        return cls(names, rows)


class Vocab:
    """Whitespace tokenizer over a closed word list. ids 0/1 are bos/eos."""

    BOS = 0
    EOS = 1

    def __init__(self, words: list[str]):
        self.words = sorted(set(w.lower() for w in words))
        self.index = {w: i + 2 for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words) + 2

    def encode(self, text: str) -> list[int]:
        ids = [self.BOS]
        for w in text.lower().split():
            if w not in self.index:
                raise ValueError(f"unknown token {w!r}")
            ids.append(self.index[w])
        ids.append(self.EOS)
        return ids


def param_layout(vit: VitConfig, txt: TextConfig) -> Iterator[tuple[str, tuple, tuple]]:
    """Every weight of a model as (name, shape, init) in record order, which is
    also the draw order, one block at a time as it is read. init is ("normal",
    std) for a N(0, std^2) draw or ("fill", value) for a constant."""
    w, one, zero = ("normal", 0.02), ("fill", 1.0), ("fill", 0.0)

    def block(prefix: str, d: int, h: int) -> list:
        out = [(f"{prefix}.ln1.g", (d,), one), (f"{prefix}.ln1.b", (d,), zero)]
        for m in "qkvo":
            out += [(f"{prefix}.attn.w{m}", (d, d), w), (f"{prefix}.attn.b{m}", (d,), zero)]
        return out + [(f"{prefix}.ln2.g", (d,), one), (f"{prefix}.ln2.b", (d,), zero),
                      (f"{prefix}.mlp.w1", (h, d), w), (f"{prefix}.mlp.b1", (h,), zero),
                      (f"{prefix}.mlp.w2", (d, h), w), (f"{prefix}.mlp.b2", (d,), zero)]

    d, dt = vit.embed_dim, txt.width
    yield from [("img.patch.w", (d, vit.patch_dim), w), ("img.patch.b", (d,), zero),
                ("img.cls", (d,), w), ("img.pos", (1 + vit.num_patches, d), ("normal", 0.01))]
    for i in range(vit.num_layers):
        yield from block(f"img.layers.{i}", d, int(d * vit.mlp_ratio))
    yield from [("img.ln_f.g", (d,), one), ("img.ln_f.b", (d,), zero),
                ("img.proj", (vit.out_dim, d), w),
                ("txt.tok", (txt.vocab_size, dt), w),
                ("txt.pos", (txt.context, dt), ("normal", 0.01))]
    for i in range(txt.num_layers):
        yield from block(f"txt.layers.{i}", dt, 4 * dt)
    yield from [("txt.ln_f.g", (dt,), one), ("txt.ln_f.b", (dt,), zero),
                ("txt.proj", (txt.out_dim, dt), w),
                ("logit_scale", (), ("fill", LOGIT_SCALE_INIT)),
                ("norm.mean", (3,), zero), ("norm.std", (3,), one)]


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """(B, T, D) and (B, K) indices -> (B, K, D), row b holding x[b, idx[b]]."""
    b, t, d = x.shape
    flat = (np.arange(b)[:, None] * t + idx).reshape(-1)
    return T.reshape(T.index_select(T.reshape(x, (b * t, d)), flat, axis=0),
                     (b, idx.shape[1], d))


def _block(x: Tensor, p: dict, prefix: str, num_heads: int) -> Tensor:
    h = T.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    # made v, k, q because backward replays the tape in reverse: h's gradient then adds q's
    # share, k's, then v's, the order that fixes its bits
    v, k, q = (T.linear(h, p[f"{prefix}.attn.w{m}"], p[f"{prefix}.attn.b{m}"]) for m in "vkq")
    x = T.add(x, T.linear(T.attention(q, k, v, num_heads), p[f"{prefix}.attn.wo"],
                          p[f"{prefix}.attn.bo"]))

    h = T.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    return T.add(x, T.mlp(h, *(p[f"{prefix}.mlp.{n}"] for n in ("w1", "b1", "w2", "b2"))))


class ClipModel:
    """Frozen-by-default dual encoder. All weights live in a flat name->Tensor map
    that holds exactly `param_layout(vit, txt)`, in that order and one dtype;
    a weight trains exactly when its requires_grad is set."""

    def __init__(self, vit: VitConfig, txt: TextConfig, vocab: Vocab,
                 arrays: dict[str, np.ndarray]):
        if vit.out_dim != txt.out_dim:  # meta.config stores one out_dim for both towers
            raise ValueError(f"image out_dim {vit.out_dim} != text out_dim {txt.out_dim}: "
                             f"both towers project into one embedding space")
        self.vit = vit
        self.txt = txt
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}
        for name, shape, _ in param_layout(vit, txt):  # a claimed layout ends at its first gap
            if name not in arrays:
                raise ValueError(f"missing weight {name!r}")
            arr, dtype = arrays[name], arrays["img.patch.w"].dtype  # every weight has the first's
            if arr.shape != shape or arr.dtype != dtype:
                raise ValueError(f"weight {name!r} is {arr.dtype} {arr.shape}, "
                                 f"expected {dtype} {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"weight {name!r} holds a non-finite value")
            self.params[name] = Tensor(arr)
        extra = next((n for n in arrays if n not in self.params), None)
        if extra is not None:
            raise ValueError(f"unexpected weight {extra!r}")

    # -- construction / persistence -------------------------------------

    @classmethod
    def create(cls, vit: VitConfig, txt: TextConfig, vocab: Vocab,
               seed: int = 0, dtype=np.float32) -> "ClipModel":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1717]))
        arrays = {name: rng.normal(0.0, v, size=shape).astype(dtype) if kind == "normal"
                  else np.full(shape, v, dtype=dtype)
                  for name, shape, (kind, v) in param_layout(vit, txt)}
        return cls(vit, txt, vocab, arrays)

    def save(self, path):
        arrays = {name: p.data for name, p in self.params.items()}
        dt = self.dtype
        arrays["meta.config"] = np.asarray(
            [META_VERSION, self.vit.image_size, self.vit.patch_size, self.vit.embed_dim,
             self.vit.num_layers, self.vit.num_heads, self.vit.mlp_ratio, self.vit.out_dim,
             self.txt.context, self.txt.width, self.txt.num_layers, self.txt.num_heads],
            dtype=dt)
        vocab_blob = "\n".join(self.vocab.words).encode("utf-8")
        arrays["meta.vocab"] = np.frombuffer(vocab_blob, dtype=np.uint8).astype(dt)
        write_checkpoint(path, arrays)

    @classmethod
    def load(cls, path) -> "ClipModel":
        arrays = read_checkpoint(path)
        if "meta.config" not in arrays or "meta.vocab" not in arrays:
            raise ValueError(f"checkpoint {path} is missing meta entries")
        cfg = arrays.pop("meta.config")
        if cfg.shape != (12,) or not np.isfinite(cfg).all():
            raise ValueError(f"checkpoint meta.config must hold 12 finite numbers, got {cfg}")
        if int(cfg[0]) != META_VERSION:
            raise ValueError(f"unsupported checkpoint meta version {cfg[0]}")
        vocab_blob = arrays.pop("meta.vocab").astype(np.uint8).tobytes().decode("utf-8")
        vocab = Vocab(vocab_blob.split("\n")) if vocab_blob else Vocab([])
        vit = VitConfig(image_size=int(cfg[1]), patch_size=int(cfg[2]), embed_dim=int(cfg[3]),
                        num_layers=int(cfg[4]), num_heads=int(cfg[5]), mlp_ratio=float(cfg[6]),
                        out_dim=int(cfg[7]))
        txt = TextConfig(vocab_size=len(vocab), context=int(cfg[8]), width=int(cfg[9]),
                         num_layers=int(cfg[10]), num_heads=int(cfg[11]), out_dim=int(cfg[7]))
        try:
            return cls(vit, txt, vocab, arrays)
        except ValueError as e:
            raise ValueError(f"checkpoint {path}: {e}") from None

    # -- basic accessors --------------------------------------------------

    @property
    def dtype(self):
        return self.params["img.patch.w"].data.dtype

    @property
    def tau(self) -> float:
        # stored as ln(1/tau), CLIP convention
        return float(np.exp(-self.params["logit_scale"].data))

    @property
    def norm_mean(self) -> np.ndarray:
        return self.params["norm.mean"].data

    @property
    def norm_std(self) -> np.ndarray:
        return self.params["norm.std"].data

    def set_normalization(self, mean: np.ndarray, std: np.ndarray):
        dt = self.dtype
        self.params["norm.mean"].data = np.asarray(mean, dtype=dt)
        self.params["norm.std"].data = np.asarray(std, dtype=dt)

    def clamp_logit_scale(self):
        s = self.params["logit_scale"]
        s.data = np.minimum(s.data, np.asarray(LOGIT_SCALE_MAX, dtype=s.data.dtype))

    # -- forward ----------------------------------------------------------

    def patchify(self, images: np.ndarray) -> np.ndarray:
        """(B,3,H,W) -> (B, P, 3*p*p), row-major patch order."""
        p = self.vit.patch_size
        b, c, hh, ww = images.shape
        g = hh // p
        x = images.reshape(b, c, g, p, g, p)
        x = x.transpose(0, 2, 4, 1, 3, 5)
        return np.ascontiguousarray(x.reshape(b, g * g, c * p * p), dtype=self.dtype)

    def encode_image_batch(self, images, keep=None, weights=None) -> tuple[Tensor, Tensor]:
        """Forward of a batch. Returns (cls B x D_e, tokens B x (K-1) x D_e).

        keep, when given, is a (B, K) int array of the tokens each row keeps:
        0 is the class token and 1 + j is patch j. Positions are added before
        the gather. Without it every row keeps all 1 + P tokens.

        weights, when given, maps parameter names to tensors used in place of
        the model's own; the model's weights are only read.
        """
        imgs = np.asarray(images, dtype=self.dtype)
        s = self.vit.image_size
        if imgs.ndim != 4 or imgs.shape[1:] != (3, s, s):
            raise ValueError(f"expected images of shape (*,3,{s},{s}), got {imgs.shape}")
        b = imgs.shape[0]
        d = self.vit.embed_dim
        p = {**self.params, **weights} if weights else self.params
        x = T.linear(Tensor(self.patchify(imgs)), p["img.patch.w"], p["img.patch.b"])
        cls = T.broadcast_to(T.reshape(p["img.cls"], (1, 1, d)), (b, 1, d))
        x = T.concat([cls, x], axis=1)
        x = T.add(x, p["img.pos"])
        if keep is not None:
            n = x.shape[1]
            keep = np.asarray(keep, dtype=np.int64)
            if (keep.ndim != 2 or keep.shape[0] != b
                    or keep.min(initial=0) < 0 or keep.max(initial=0) >= n):
                raise ValueError(f"keep must be a ({b}, K) array of token indices in [0, {n})")
            x = gather_rows(x, keep)
        for i in range(self.vit.num_layers):
            x = _block(x, p, f"img.layers.{i}", self.vit.num_heads)
        x = T.layer_norm(x, p["img.ln_f.g"], p["img.ln_f.b"])
        x = T.linear(x, p["img.proj"])
        cls_out = T.reshape(T.slice_axis(x, 1, 0, 1), (b, self.vit.out_dim))
        tok_out = T.slice_axis(x, 1, 1, x.shape[1])
        tape = T.active_tape()
        if tape is not None:  # what this forward encoded, which the episode reports
            kind = "full" if keep is None else "masked"
            tape.counts[f"{kind}_views"] += b
            tape.counts[f"{kind}_tokens"] += b * x.shape[1]
        return cls_out, tok_out

    def encode_text_batch(self, sequences: list[list[int]]) -> Tensor:
        """Batch of equal-length token sequences -> (B, D_e)."""
        lengths = {len(s) for s in sequences}
        if len(lengths) != 1:
            raise ValueError(f"batched sequences must share a length, got {sorted(lengths)}")
        L = lengths.pop()
        ids = [int(i) for s in sequences for i in s]
        if any(i < 0 or i >= self.txt.vocab_size for i in ids):
            raise ValueError(f"unknown token id in {ids}")
        if L > self.txt.context:
            raise ValueError(f"sequence length {L} exceeds context {self.txt.context}")
        b = len(sequences)
        p = self.params
        x = T.index_select(p["txt.tok"], ids, axis=0)
        x = T.reshape(x, (b, L, self.txt.width))
        x = T.add(x, T.slice_axis(p["txt.pos"], 0, 0, L))
        for i in range(self.txt.num_layers):
            x = _block(x, p, f"txt.layers.{i}", self.txt.num_heads)
        x = T.layer_norm(x, p["txt.ln_f.g"], p["txt.ln_f.b"])
        eos = T.reshape(T.slice_axis(x, 1, L - 1, L), (b, self.txt.width))
        return T.linear(eos, p["txt.proj"])


# ---------------------------------------------------------------------------
# classification and losses


def classify_batch(class_embs: Tensor, table: TextFeatureTable, tau: float) -> Tensor:
    """softmax over classes of cos(t_i, v)/tau, rows of `class_embs` as v."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    feats = Tensor(np.asarray(table.features, dtype=class_embs.data.dtype))
    v = T.l2_normalize(class_embs)
    cos = T.linear(v, feats)
    return T.softmax(T.mul(cos, 1.0 / tau))


def build_text_table(model: ClipModel, class_names: list[str],
                     templates: list[str]) -> TextFeatureTable:
    """Ensemble: encode each filled template, normalize, average, renormalize."""
    if not templates:
        raise ValueError("need at least one prompt template")
    for t in templates:
        if "{class}" not in t:
            raise ValueError(f"template {t!r} has no {{class}} slot")
    rows = np.zeros((len(class_names), model.vit.out_dim), dtype=np.float32)
    for i, name in enumerate(class_names):
        acc = np.zeros(model.vit.out_dim, dtype=np.float64)
        for tmpl in templates:
            ids = model.vocab.encode(tmpl.replace("{class}", name))
            emb = model.encode_text_batch([ids]).data[0].astype(np.float64)
            acc += emb / np.linalg.norm(emb)
        acc /= len(templates)
        rows[i] = (acc / np.linalg.norm(acc)).astype(np.float32)
    return TextFeatureTable(list(class_names), rows)


def contrastive_loss(image_embs: Tensor, text_embs: Tensor, scale) -> Tensor:
    """Symmetric InfoNCE over a batch of matched (image, text) rows.

    `scale` is 1/tau, either a float or a scalar Tensor (learnable).
    Rows are expected to be L2-normalized.
    """
    if image_embs.shape != text_embs.shape:
        raise ValueError(f"batch mismatch: {image_embs.shape} vs {text_embs.shape}")
    b = image_embs.shape[0]
    logits = T.mul(T.linear(image_embs, text_embs), scale)
    eye = Tensor(np.eye(b, dtype=image_embs.data.dtype))
    row = T.tsum(T.mul(T.log_softmax(logits, axis=1), eye))
    col = T.tsum(T.mul(T.log_softmax(logits, axis=0), eye))
    return T.mul(T.add(row, col), -0.5 / b)
