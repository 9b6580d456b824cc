"""Joint contrastive pretraining of the dual encoder on the synthetic set,
contrastive pre-initialization of the image adapters, and precomputation of
the class text-feature table."""

from __future__ import annotations

import ctypes
import math
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import DatasetManifest, load_pairs, vocabulary_words
from .encoder import (ClipModel, TextConfig, TextFeatureTable, VitConfig, Vocab,
                      build_text_table, contrastive_loss)
from .lora import AdaptedEncoder, LoraConfig
from .optim import AdamW
from .tensor import Tape, Tensor, backward
from .views import normalize, random_resized_crop, resize_bilinear

PRETRAIN_CROP_RANGE = (0.5, 1.0)  # milder than test-time crops: shapes are localized
PRETRAIN_LR = 1e-3
PRETRAIN_WD = 0.1
LORA_PRETRAIN_WD = 0.05


def keep_freed_memory():
    """Keep freed memory in the heap (glibc; a no-op elsewhere): each episode or step
    frees and reallocates tens of MB, and a trimmed heap faults every page in again."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt and mallopt(-3, 1 << 25):  # M_MMAP_THRESHOLD: arrays below 32 MB use the heap
        mallopt(-1, 1 << 28)  # M_TRIM_THRESHOLD: hand back the heap top only past 256 MB


def _encode_captions(model: ClipModel, caption_ids: list[list[int]]):
    """Normalized embeddings for all captions, batched by shared length."""
    by_len: dict[int, list[int]] = {}
    for i, ids in enumerate(caption_ids):
        by_len.setdefault(len(ids), []).append(i)
    chunks = []
    order: list[int] = []
    for length in sorted(by_len):
        group = by_len[length]
        chunks.append(model.encode_text_batch([caption_ids[i] for i in group]))
        order.extend(group)
    stacked = T.concat(chunks, axis=0) if len(chunks) > 1 else chunks[0]
    inverse = np.argsort(order)
    return T.l2_normalize(T.index_select(stacked, inverse, axis=0))


def pretrain(data_dir, vit_cfg: VitConfig | None = None, epochs: int = 30,
             seed: int = 0, batch_size: int = 64) -> tuple[ClipModel, list[float]]:
    """Train image and text encoders with the symmetric contrastive loss.

    Cosine-decayed lr; decoupled decay applies to weight matrices only.
    The image side sees random resized crops and flips, so test-time crop
    views stay in-distribution. Returns the trained (frozen) model and the
    per-step loss trace.
    """
    keep_freed_memory()
    root = Path(data_dir)
    manifest = DatasetManifest.load(root / "manifest.json")
    pairs = load_pairs(root, manifest)
    if not pairs:
        raise ValueError("train split is empty")
    if batch_size > len(pairs):
        raise ValueError(f"batch size {batch_size} larger than dataset ({len(pairs)})")
    if len({img.shape for img, _ in pairs}) > 1:  # each batch is cropped as one stack
        raise ValueError("training images differ in size; pretraining needs one size")

    vit_cfg = vit_cfg or VitConfig()
    vocab = Vocab(vocabulary_words(manifest.class_names))
    txt_cfg = TextConfig(vocab_size=len(vocab), out_dim=vit_cfg.out_dim)
    model = ClipModel.create(vit_cfg, txt_cfg, vocab, seed=seed)
    mean = np.asarray(manifest.normalization["mean"], dtype=np.float32)
    std = np.asarray(manifest.normalization["std"], dtype=np.float32)
    model.set_normalization(mean, std)

    captions = sorted({c for _, c in pairs})
    caption_ids = [vocab.encode(c) for c in captions]
    cap_index = {c: i for i, c in enumerate(captions)}
    pair_caption = np.array([cap_index[c] for _, c in pairs])
    raw_images = [np.asarray(img, dtype=np.float32) for img, _ in pairs]

    trainables = {name: t for name, t in model.params.items()
                  if name not in ("norm.mean", "norm.std")}
    for t in trainables.values():
        t.requires_grad = True
    opt_w = AdamW({name: t for name, t in trainables.items() if t.ndim >= 2},
                  PRETRAIN_LR, PRETRAIN_WD)
    opt_b = AdamW({name: t for name, t in trainables.items() if t.ndim < 2}, PRETRAIN_LR, 0.0)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7261]))
    n = len(pairs)
    steps_per_epoch = max(1, n // batch_size)
    total_steps = epochs * steps_per_epoch
    losses: list[float] = []
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            idx = order[b * batch_size:(b + 1) * batch_size]
            crops = random_resized_crop(np.stack([raw_images[i] for i in idx]), rng,
                                        vit_cfg.image_size, PRETRAIN_CROP_RANGE)
            batch_imgs = normalize(crops, mean, std)
            lr = PRETRAIN_LR * 0.5 * (1.0 + math.cos(math.pi * step / max(1, total_steps)))
            opt_w.lr = lr
            opt_b.lr = lr
            with Tape():
                cls, _ = model.encode_image_batch(batch_imgs)
                img_emb = T.l2_normalize(cls)
                txt_all = _encode_captions(model, caption_ids)
                txt_emb = T.index_select(txt_all, pair_caption[idx], axis=0)
                scale = T.exp(model.params["logit_scale"])
                loss = contrastive_loss(img_emb, txt_emb, scale)
                backward(loss)
            opt_w.step()
            opt_b.step()
            model.clamp_logit_scale()
            losses.append(float(loss.data))
            step += 1

    for t in trainables.values():
        t.requires_grad = False
    return model, losses


def lora_pretrain(model: ClipModel, pairs: list[tuple[np.ndarray, str]], epochs: int,
                  rng: np.random.Generator, lora_cfg: LoraConfig | None = None,
                  lr: float = 1e-4, batch_size: int = 64) -> tuple[AdaptedEncoder, list[float]]:
    """Contrastive pre-initialization of the adapter weights only.

    The base stays frozen; text features are precomputed since no text
    parameter trains. Returns the adapted encoder (baseline installed)
    and the per-batch loss trace.
    """
    if not pairs:
        raise ValueError("empty image-text pair set")
    encoder = AdaptedEncoder(model, lora_cfg or LoraConfig(), rng)
    scale = 1.0 / model.tau
    # one caption per forward, unlike _encode_captions: a batched row differs
    # in its last bits, and these rows fix the bits of the adapter checkpoint
    caption_feats = {}
    for _, caption in pairs:
        if caption not in caption_feats:
            emb = model.encode_text_batch([model.vocab.encode(caption)])
            caption_feats[caption] = T.l2_normalize(emb).data[0]

    size = model.vit.image_size
    images = np.stack([normalize(resize_bilinear(img, size, size), model.norm_mean,
                                 model.norm_std) for img, _ in pairs])
    text_rows = np.stack([caption_feats[c] for _, c in pairs])

    def batch_loss(idx: np.ndarray) -> Tensor:
        cls, _ = encoder.encode_image_batch(images[idx])
        return contrastive_loss(T.l2_normalize(cls), Tensor(text_rows[idx]), scale)

    opt = AdamW(encoder.trainables, lr, LORA_PRETRAIN_WD)
    losses: list[float] = []
    n = len(pairs)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if idx.size < 2:
                continue
            with Tape():
                loss = batch_loss(idx)
                backward(loss)
            if not np.isfinite(loss.data):
                raise ValueError(f"non-finite loss at adapter pretraining step {len(losses) + 1}")
            opt.step()
            losses.append(float(loss.data))
    # each step checks the loss it starts from; this checks the last update, on
    # the first batch of the last epoch, which a step trained on
    if losses and not np.isfinite(batch_loss(order[:batch_size]).data):
        raise ValueError(f"non-finite loss after adapter pretraining step {len(losses)}")
    encoder.set_baseline_from_current()
    return encoder, losses


def embed_text(checkpoint_path, class_names: list[str], templates: list[str],
               out_path) -> TextFeatureTable:
    """Build the ensemble text table from a checkpoint and write it as LTTC."""
    model = ClipModel.load(checkpoint_path)
    table = build_text_table(model, class_names, templates)
    table.save(out_path)
    return table
