"""Episodic test-time training: losses, confidence selection, the episode
loop and the stream runner over a split.

Each test instance gets its own rng derived from (seed, instance id), its
own adapter draw, a fresh optimizer, and a reset afterwards, so episodes
are independent and stream order cannot leak between instances.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import Instance
from .encoder import ClipModel, TextFeatureTable, classify_batch, gather_rows
from .lora import AdaptedEncoder, LoraConfig
from .metrics import ece as ece_metric, report_csv_rows, top1_accuracy
from .optim import AdamW
from .tensor import Tape, Tensor, backward, no_grad
from .views import make_views, sample_mask

MODES = ("zero_shot", "lora_ttt", "lora_ttt_m", "lora_ttt_a", "full_tune")
RECON_TARGETS = ("class_token", "visual_tokens")


@dataclass
class TttConfig:
    """Episode settings, one per run."""

    mode: str = "lora_ttt"
    lam_mem: float = 1.0
    lam_mae: float = 16.0
    cutoff: float = 0.1
    num_views: int = 64
    mask_ratio: float = 0.5
    recon_target: str = "class_token"
    steps: int = 1
    lr: float = 0.001
    wd: float = 0.2
    seed: int = 0
    lora: LoraConfig = field(default_factory=LoraConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (expected one of {MODES})")
        if self.recon_target not in RECON_TARGETS:
            raise ValueError(f"unknown recon target {self.recon_target!r}")
        if not (0.0 < self.cutoff <= 1.0):
            raise ValueError(f"cutoff must be in (0, 1], got {self.cutoff}")
        if self.mode == "zero_shot":  # the episode with one view and no step
            self.num_views, self.steps = 1, 0
        elif self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.num_views < 1:
            raise ValueError(f"num_views must be >= 1, got {self.num_views}")
        if not (0.0 <= self.mask_ratio < 1.0):
            raise ValueError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        for name in ("lr", "wd", "lam_mem", "lam_mae"):
            if not 0 <= getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        # single-loss variants pin the other weight to zero
        if self.mode == "lora_ttt_m":
            self.lam_mae = 0.0
        elif self.mode == "lora_ttt_a":
            self.lam_mem = 0.0
            if self.lam_mae == 0:
                raise ValueError("lora_ttt_a trains on the reconstruction loss alone, "
                                 "so lam_mae must be > 0")


@dataclass
class EpisodeResult:
    instance_id: str
    predicted: int
    probs: list
    label: int | None = None
    mem_loss: float | None = None
    mae_loss: float | None = None
    total_loss: float | None = None
    step_losses: list = field(default_factory=list)
    selected: list = field(default_factory=list)
    trainable_params: int = 0
    peak_tape_nodes: int = 0
    recorded_full_views: int = 0
    recorded_masked_views: int = 0
    recorded_tokens: int = 0
    masked_pass_tokens: int = 0
    wall_ms: float = 0.0

    def jsonl_record(self) -> dict:
        # deterministic fields only; timing stays out so reruns are byte-identical
        d = asdict(self)
        d.pop("wall_ms")
        return d


def entropy_np(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def select_confident(per_view_probs: np.ndarray, cutoff: float) -> list[int]:
    """Indices of the k = max(1, floor(cutoff*N)) lowest-entropy views,
    ties broken by ascending view index."""
    n = per_view_probs.shape[0]
    k = max(1, int(np.floor(cutoff * n)))
    ents = np.array([entropy_np(row) for row in per_view_probs])
    order = np.argsort(ents, kind="stable")
    return [int(i) for i in order[:k]]


def mem_loss(selected_probs: Tensor) -> Tensor:
    """Entropy of the mean distribution over the selected views."""
    if selected_probs.shape[0] < 1:
        raise ValueError("mem_loss: empty selection")
    return T.entropy(T.mean(selected_probs, axis=0))


def mae_loss(encoder, selected_views: np.ndarray, mask_ratio: float, recon_target: str,
             rng: np.random.Generator, *, unmasked: tuple | None = None,
             stats: dict | None = None) -> Tensor:
    """Reconstruction loss between masked and unmasked encodings.

    class_token: MSE of the projected class embeddings. visual_tokens: MSE
    over the token positions kept by the mask. One fresh mask per view; the
    k masked views go through the encoder as one batch. An `unmasked`
    (cls, tokens) pair handed in (tokens may be None for class_token) is the
    target as fixed data, the MAE stop-gradient. Without one the views are
    encoded here with the same adapters and gradients flow through both
    branches: the plain MSE of two encodings, which the gradient check uses.
    """
    k = selected_views.shape[0]
    if k < 1:
        raise ValueError("mae_loss: empty selection")
    p_total = encoder.model.vit.num_patches
    detach = unmasked is not None
    if not detach:
        unmasked = encoder.encode_image_batch(selected_views)
        if stats is not None:
            stats["full_views"] = stats.get("full_views", 0) + k
            stats["tokens"] = stats.get("tokens", 0) + k * (1 + p_total)
    # every mask drops floor(ratio*P) patches, so the k masked views form one
    # rectangular batch of K = 1 + kept tokens each
    masks = [sample_mask(p_total, mask_ratio, rng) for _ in range(k)]
    kept = np.stack([np.setdiff1d(np.arange(p_total), m) for m in masks])
    keep = np.concatenate([np.zeros((k, 1), dtype=np.int64), 1 + kept], axis=1)
    cls_m, tok_m = encoder.encode_image_batch(selected_views, keep=keep)
    if stats is not None:
        stats["masked_views"] = stats.get("masked_views", 0) + k
        stats["masked_tokens"] = stats.get("masked_tokens", 0) + keep.size
        stats["tokens"] = stats.get("tokens", 0) + keep.size
    if recon_target == "class_token":
        pred, target = cls_m, unmasked[0]
    else:
        pred, target = tok_m, gather_rows(unmasked[1], kept)
    if detach:
        target = target.detach()
    # every view has the same element count, so this is the mean of the per-view MSEs
    return T.mse(pred, target)


def total_loss(l_mem: Tensor, l_mae: Tensor, lam1: float, lam2: float) -> Tensor:
    """lam1 * L_MEM + lam2 * L_MAE."""
    return T.add(T.mul(l_mem, float(lam1)), T.mul(l_mae, float(lam2)))


class TunedEncoder:
    """Trains copies of the named model weights, which the forward reads in
    place of the model's; reset copies the model's values back. With no
    names it is the frozen model."""

    def __init__(self, model: ClipModel, names=()):
        self.model = model
        self.trainables = {name: Tensor(model.params[name].data.copy(), requires_grad=True)
                           for name in names}

    def encode_image_batch(self, images, keep=None):
        return self.model.encode_image_batch(images, keep, self.trainables)

    def trainable_count(self) -> int:
        return sum(t.data.size for t in self.trainables.values())

    def reset(self, rng=None):
        for name, t in self.trainables.items():
            t.data = self.model.params[name].data.copy()
            t.grad = None


def build_encoder_for_mode(model: ClipModel, cfg: TttConfig):
    if cfg.mode == "zero_shot":
        return TunedEncoder(model)
    if cfg.mode == "full_tune":
        n = model.vit.num_layers
        return TunedEncoder(model, [f"img.layers.{i}.attn.{t}" for i in (n - 2, n - 1)
                                    for t in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")])
    return AdaptedEncoder(model, cfg.lora, np.random.default_rng(cfg.seed))


def episode_rng(seed: int, instance_id: str) -> np.random.Generator:
    digest = hashlib.blake2b(instance_id.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(np.random.SeedSequence([seed, int.from_bytes(digest, "big")]))


def run_episode(instance: Instance, encoder, table: TextFeatureTable,
                cfg: TttConfig, rng: np.random.Generator) -> EpisodeResult:
    """One adapt-predict-reset episode; zero-shot is the one with one view and no step."""
    t0 = time.perf_counter()
    model = encoder.model
    p_total = model.vit.num_patches

    encoder.reset(rng)  # per-episode seeding: adapter state from this instance's stream
    views = make_views(instance.image, cfg.num_views, rng, model.norm_mean,
                       model.norm_std, model.vit.image_size)
    opt = AdamW(encoder.trainables, cfg.lr, cfg.wd)

    peak_nodes = 0
    stats: dict = {}
    step_losses: list = []
    selected: list[int] = []
    # lora_ttt_a selects on a no-grad forward and re-encodes its target on
    # the tape. The combined path takes its target from the tracked forward
    # as fixed data, as in MAE: with gradient on both sides, the rows the
    # entropy loss sharpens would be pulled toward their masked copies.
    combined = cfg.mode != "lora_ttt_a"
    for _ in range(cfg.steps):
        opt.zero_grad()
        with Tape() as tape:
            with nullcontext() if combined else no_grad():
                cls_all, tok_all = encoder.encode_image_batch(views)
                probs_t = classify_batch(cls_all, table, model.tau)
            selected = select_confident(probs_t.data, cfg.cutoff)
            l_mem = l_mae = None
            if combined:
                stats["full_views"] = stats.get("full_views", 0) + cfg.num_views
                stats["tokens"] = stats.get("tokens", 0) + cfg.num_views * (1 + p_total)
                l_mem = mem_loss(T.index_select(probs_t, selected, axis=0))
            if cfg.lam_mae > 0:
                unmasked = None
                if combined:
                    unmasked = (T.index_select(cls_all, selected, axis=0),
                                T.index_select(tok_all, selected, axis=0)
                                if cfg.recon_target == "visual_tokens" else None)
                l_mae = mae_loss(encoder, views[selected], cfg.mask_ratio,
                                 cfg.recon_target, rng, unmasked=unmasked, stats=stats)
            zero = Tensor(np.zeros((), dtype=(l_mae if l_mem is None else l_mem).dtype))
            loss = total_loss(zero if l_mem is None else l_mem,
                              zero if l_mae is None else l_mae, cfg.lam_mem, cfg.lam_mae)
            backward(loss)
        peak_nodes = max(peak_nodes, tape.num_nodes)
        step_losses.append([None if l_mem is None else float(l_mem.data),
                            None if l_mae is None else float(l_mae.data), float(loss.data)])
        opt.step()

    with no_grad():
        probs = classify_batch(encoder.encode_image_batch(views[:1])[0], table, model.tau).data[0]
    mem, mae, total = step_losses[-1] if step_losses else (None, None, None)
    result = EpisodeResult(
        instance_id=instance.id, predicted=int(np.argmax(probs)),
        probs=[float(x) for x in probs], label=instance.label,
        mem_loss=mem, mae_loss=mae, total_loss=total, step_losses=step_losses,
        selected=list(selected), trainable_params=encoder.trainable_count(),
        peak_tape_nodes=peak_nodes,
        recorded_full_views=stats.get("full_views", 0),
        recorded_masked_views=stats.get("masked_views", 0),
        recorded_tokens=stats.get("tokens", 0),
        masked_pass_tokens=stats.get("masked_tokens", 0))
    encoder.reset(rng)  # episodic contract: nothing survives the instance
    if not np.isfinite(probs).all():
        raise ValueError(f"instance {instance.id!r}: non-finite probabilities; the step diverged")
    result.wall_ms = (time.perf_counter() - t0) * 1000.0
    return result


@dataclass
class RunReport:
    mode: str
    dataset: str
    seed: int
    top1: float
    ece: float
    mean_mem_loss: float | None
    mean_mae_loss: float | None
    trainable_params: int
    median_episode_ms: float
    num_instances: int
    reset_events: int
    episodes: list  # the one field that report.json leaves out

    def report_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "episodes"}

    def write_outputs(self, outdir):
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as f:
            json.dump(self.report_json(), f, indent=2)
            f.write("\n")
        with open(out / "report.csv", "w") as f:
            f.write(report_csv_rows([self.report_json()]))
        with open(out / "episodes.jsonl", "w") as f:
            for ep in self.episodes:
                f.write(json.dumps(ep.jsonl_record()) + "\n")


def run_stream(items: list[Instance], model: ClipModel, table: TextFeatureTable,
               cfg: TttConfig, dataset_name: str = "test",
               adapters_path=None) -> RunReport:
    """Episodes over a split, each seeded by (seed, instance id)."""
    if not items:
        raise ValueError("empty dataset split")
    encoder = build_encoder_for_mode(model, cfg)
    if adapters_path is not None:
        if not isinstance(encoder, AdaptedEncoder):
            raise ValueError("adapter checkpoint requires a lora mode")
        encoder.load_adapters(adapters_path)
    episodes = [run_episode(item, encoder, table, cfg, episode_rng(cfg.seed, item.id))
                for item in items]

    labeled = [(ep.predicted, ep.label) for ep in episodes if ep.label is not None]
    top1 = top1_accuracy([p for p, _ in labeled], [l for _, l in labeled]) if labeled else 0.0
    confs = [max(ep.probs) for ep in episodes if ep.label is not None]
    correct = [ep.predicted == ep.label for ep in episodes if ep.label is not None]
    ece_val = ece_metric(confs, correct).ece if confs else 0.0
    mem_vals = [ep.mem_loss for ep in episodes if ep.mem_loss is not None]
    mae_vals = [ep.mae_loss for ep in episodes if ep.mae_loss is not None]
    return RunReport(
        mode=cfg.mode, dataset=dataset_name, seed=cfg.seed, top1=top1, ece=ece_val,
        mean_mem_loss=float(np.mean(mem_vals)) if mem_vals else None,
        mean_mae_loss=float(np.mean(mae_vals)) if mae_vals else None,
        trainable_params=episodes[0].trainable_params,
        median_episode_ms=float(np.median([ep.wall_ms for ep in episodes])),
        num_instances=len(episodes), reset_events=len(episodes) if cfg.steps else 0,
        episodes=episodes)

