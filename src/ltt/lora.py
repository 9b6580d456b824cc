"""Low-rank adapters on the image encoder's attention projections.

Adapted forward: h = (W0 + gamma * B A) x, the delta merged in weight space,
with A ~ Kaiming-uniform (bound 1/sqrt(d2)) and B = 0 at init, so W0 + 0 is
W0 bit for bit and a fresh adapter is an exact identity. W0 is never written.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import ClipModel
from .serial import read_checkpoint, write_checkpoint
from .tensor import Tensor

MATRIX_TAGS = ("q", "k", "v", "o")


@dataclass
class LoraConfig:
    rank: int = 16
    scale: float = 12.0  # the distribution-shift setting; fine-grained-style tasks want ~2
    matrices: tuple = ("q", "k", "v", "o")
    layers: tuple = ()  # 1-based layer indices; empty means the last two

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 0 <= self.scale < math.inf:  # also rejects NaN
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        self.matrices = tuple(self.matrices)
        self.layers = tuple(self.layers)
        for i in self.layers:
            if type(i) is not int:  # bool is an int subclass, but not a layer index
                raise ValueError(f"layer indices must be ints, got {i!r}")
        if not self.matrices:
            raise ValueError("target matrices must be non-empty")
        for m in self.matrices:
            if m not in MATRIX_TAGS:
                raise ValueError(f"unknown matrix tag {m!r} (expected one of {MATRIX_TAGS})")
        if len(set(self.matrices)) != len(self.matrices):
            raise ValueError(f"duplicate matrix tag in {list(self.matrices)}")

    def resolved_layers(self, num_layers: int) -> tuple:
        layers = self.layers or (num_layers - 1, num_layers)
        for i in layers:
            if not (1 <= i <= num_layers):
                raise ValueError(f"layer index {i} out of range 1..{num_layers}")
        return tuple(sorted(set(layers)))


class LoraAdapter:
    """One (A, B) pair whose delta gamma * B A is added to a frozen projection weight."""

    def __init__(self, d1: int, d2: int, rank: int, scale: float, dtype):
        self.scale = scale
        self.d2 = d2
        self.a = Tensor(np.zeros((rank, d2), dtype=dtype), requires_grad=True)
        self.b = Tensor(np.zeros((d1, rank), dtype=dtype), requires_grad=True)

    def init_weights(self, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(self.d2)
        self.a.data = rng.uniform(-bound, bound, size=self.a.shape).astype(self.a.dtype)
        self.b.data = np.zeros_like(self.b.data)

    def delta(self) -> Tensor:
        # gamma * B A, the (d1, d2) weight delta of the adapted projection
        return T.mul(T.matmul(self.b, self.a), float(self.scale))


class AdaptedEncoder:
    """Frozen base model plus episode-local LoRA adapters.

    `adapters` maps each adapted base weight's name to its adapter in sorted
    (layer, tag) order, which is the A draw order. `trainables` names every
    A and B tensor in that order, A before B, which is the record order of a
    saved adapter checkpoint.
    """

    def __init__(self, model: ClipModel, config: LoraConfig, rng: np.random.Generator):
        self.model = model
        self.config = config
        d = model.vit.embed_dim
        if config.rank > d // 2:
            raise ValueError(f"rank {config.rank} exceeds min(d1,d2)/2 = {d // 2}")
        self.adapters: dict[str, LoraAdapter] = {}
        self.trainables: dict[str, Tensor] = {}
        for li in config.resolved_layers(model.vit.num_layers):
            for m in sorted(config.matrices):
                base = f"img.layers.{li - 1}.attn.w{m}"
                ad = self.adapters[base] = LoraAdapter(d, d, config.rank, config.scale,
                                                       model.dtype)
                self.trainables[f"{base}.lora_a"] = ad.a
                self.trainables[f"{base}.lora_b"] = ad.b
        self.baseline: dict[str, np.ndarray] | None = None
        self.reset(rng)

    def encode_image_batch(self, images, keep=None):
        p = self.model.params
        return self.model.encode_image_batch(
            images, keep, {name: T.add(p[name], ad.delta()) for name, ad in self.adapters.items()})

    def trainable_count(self) -> int:
        return sum(t.data.size for t in self.trainables.values())

    def reset(self, rng: np.random.Generator | None):
        """Return to the pre-episode state: B=0 with a fresh A draw, or the
        loaded pre-initialized adapter weights when those were installed."""
        if self.baseline is None:
            for ad in self.adapters.values():
                ad.init_weights(rng)
        else:
            for name, t in self.trainables.items():
                t.data = self.baseline[name].copy()

    def set_baseline_from_current(self):
        self.baseline = {name: t.data.copy() for name, t in self.trainables.items()}

    def _meta(self) -> np.ndarray:
        return np.asarray([self.config.rank, self.config.scale,
                           len(self.config.matrices), len(self.adapters)], dtype=np.float32)

    def save_adapters(self, path):
        arrays = {name: t.data for name, t in self.trainables.items()}
        arrays["meta.lora"] = self._meta()
        write_checkpoint(path, arrays)

    def load_adapters(self, path):
        """Install adapter weights from `path` as the episode baseline, after
        checking every entry against this encoder's LoraConfig."""
        arrays = read_checkpoint(path)
        meta = arrays.pop("meta.lora", None)
        if meta is None or not np.array_equal(meta, self._meta()):
            raise ValueError(f"adapter checkpoint {path} holds (rank, scale, matrices, adapters) "
                             f"{None if meta is None else meta.tolist()}, "
                             f"the run has {self._meta().tolist()}")
        for name, t in self.trainables.items():
            if name not in arrays:
                raise ValueError(f"adapter checkpoint missing {name!r}")
            if arrays[name].shape != t.shape:
                raise ValueError(f"adapter {name!r} has shape {arrays[name].shape}, "
                                 f"expected {t.shape}")
            with np.errstate(over="ignore"):  # a float64 beyond float32 range casts to inf
                arrays[name] = arrays[name].astype(t.dtype)
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"adapter {name!r} in {path} holds a non-finite value")
        extra = next((n for n in arrays if n not in self.trainables), None)
        if extra is not None:
            raise ValueError(f"adapter checkpoint has unexpected entry {extra!r}")
        self.baseline = {name: arrays[name] for name in self.trainables}
        self.reset(None)


def trainable_parameter_count(config: LoraConfig, embed_dim: int, num_layers: int) -> int:
    layers = config.resolved_layers(num_layers)
    return len(layers) * len(config.matrices) * 2 * config.rank * embed_dim


def base_weight_hash(model: ClipModel) -> str:
    """sha256 over every base parameter, in name order."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(model.params[name].data).tobytes())
    return h.hexdigest()
