"""Workloads: inputs made from the seed, the closed measurement loop, output
checks and the metrics.

One client drives the program through its public entry points, waiting for
each invocation before starting the next. Streams call `ltt.cli.main` with
`run`; pretraining calls `ltt.pretrain.pretrain`. A run alternates traced
and untraced invocations when tracing is asked for, so the tracing
overhead is measured over the same minutes of machine time.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ltt.cli
import ltt.pretrain
from ltt.data import SyntheticShiftSpec, generate, vocabulary_words
from ltt.encoder import ClipModel, TextConfig, VitConfig, Vocab, build_text_table
from ltt.lora import base_weight_hash, trainable_parameter_count
from ltt.ttt import TttConfig

from .probe import Recorder
from .stats import block_percentile, percentile, self_time, tail_percentile

NUM_CLASSES = 10
TEST_PER_CLASS = 6            # 60 instances per shifted split
STREAM_TRAIN_PER_CLASS = 2    # only feeds the normalization statistics
PRETRAIN_TRAIN_PER_CLASS = 64  # 640 images: 10 batch-64 steps per invocation
PRETRAIN_BATCH = 64
SPLITS = ("test_gaussian_noise", "test_blur", "test_color_shift", "test_occlusion")
TEMPLATE = "a photo of a {class}"
TAIL_BLOCK = 100              # p90 per block of 100 units: 10 samples beyond it
MIN_UNITS = 3 * TAIL_BLOCK    # so the p90 is a median over at least 3 blocks
MAX_SECONDS = 120.0           # stop early rather than overrun the time limit
PROB_SUM_TOL = 1e-5           # float32 softmax rows, summed in float64


@dataclass(frozen=True)
class Workload:
    cli_mode: str | None   # `ltt run --mode`; None for pretraining
    unit: str              # what the units of work are, plural
    items_per_unit: int    # instances (streams) or images (pretrain) per unit


WORKLOADS = {
    "ttt-lora": Workload("lora-ttt", "episodes", 1),
    "ttt-entropy": Workload("lora-ttt-m", "episodes", 1),
    "pretrain": Workload(None, "batches", PRETRAIN_BATCH),
}

END_TO_END = {  # name -> unit
    "episode_ms.p50": "ms", "episode_ms.p90": "ms",
    "step_ms.p50": "ms", "step_ms.p90": "ms",
    "throughput": "items/s", "setup_s": "s", "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, "ms" | "calls"), summed per unit of work
UNIT_SPANS = {
    "views.make_views.ms": ("views.make_views", "ms"),
    "views.random_resized_crop.ms": ("views.random_resized_crop", "ms"),
    "views.random_resized_crop.calls": ("views.random_resized_crop", "calls"),
    "encoder.encode_image_batch.taped.ms": ("encoder.ClipModel.encode_image_batch#taped", "ms"),
    "encoder.encode_image_batch.nograd.ms": ("encoder.ClipModel.encode_image_batch#nograd", "ms"),
    "encoder.encode_image.ms": ("encoder.ClipModel.encode_image", "ms"),
    "encoder.encode_image.calls": ("encoder.ClipModel.encode_image", "calls"),
    "encoder.classify_batch.ms": ("encoder.classify_batch", "ms"),
    "encoder.encode_text_batch.ms": ("encoder.ClipModel.encode_text_batch", "ms"),
    "encoder.contrastive_loss.ms": ("encoder.contrastive_loss", "ms"),
    "tensor.backward.ms": ("tensor.backward", "ms"),
    "lora.delta.ms": ("lora.LoraAdapter.delta", "ms"),
    "lora.delta.calls": ("lora.LoraAdapter.delta", "calls"),
    "lora.reset.ms": ("lora.AdaptedEncoder.reset", "ms"),
    "optim.adamw_step.ms": ("optim.AdamW.step", "ms"),
    "ttt.select_confident.ms": ("ttt.select_confident", "ms"),
    "ttt.mem_loss.ms": ("ttt.mem_loss", "ms"),
}
TENSOR_OPS = ("matmul", "gelu", "layer_norm", "softmax", "add", "index_select")
# self time: the span minus its child spans
SELF_SPANS = {"ttt.mae_loss.self_ms": "ttt.mae_loss", "ttt.episode.self_ms": "ttt.run_episode"}
# load and output costs, spread over the units of the invocations that paid them
INVOCATION_SPANS = {
    "serial.read_tensor.ms": ("serial.read_tensor", "ms"),
    "serial.read_tensor.calls": ("serial.read_tensor", "calls"),
    "serial.read_checkpoint.ms": ("serial.read_checkpoint", "ms"),
    "data.load_split.ms": ("data.load_split", "ms"),
    "ttt.write_outputs.ms": ("ttt.RunReport.write_outputs", "ms"),
}

PER_LAYER = {name: ("count" if kind == "calls" else "ms")
             for name, (_, kind) in {**UNIT_SPANS, **INVOCATION_SPANS}.items()}
PER_LAYER.update({f"tensor.{op}.{kind}": ("ms" if kind == "ms" else "count")
                  for op in (*TENSOR_OPS, "other") for kind in ("ms", "calls")})
PER_LAYER.update({
    "encoder.encode_image_batch.rows": "count",
    "tensor.tape_nodes": "count",
    "tensor.matmul.gflop": "GFLOP",
    "tensor.matmul.mbytes": "MB",
    "ttt.mae_loss.self_ms": "ms",
    "ttt.episode.self_ms": "ms",
    "ttt.useful_view_frac": "ratio",
    "ttt.masked_token_frac": "ratio",
    "ttt.episode_alloc_peak_mb": "MB",
    "trace.overhead_frac": "ratio",
})


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    data: Path
    ckpt: Path
    table: Path
    weight_hash: str


def make_inputs(work: Path, workload: Workload, seed: int) -> Inputs:
    """Synthetic splits, an untrained seeded checkpoint and a one-template
    text table. Per-episode cost does not depend on the weights."""
    per_class = STREAM_TRAIN_PER_CLASS if workload.cli_mode else PRETRAIN_TRAIN_PER_CLASS
    spec = SyntheticShiftSpec(num_classes=NUM_CLASSES, train_per_class=per_class,
                              test_per_class=TEST_PER_CLASS, seed=seed)
    manifest = generate(spec, work / "data")
    vocab = Vocab(vocabulary_words(manifest.class_names))
    model = ClipModel.create(VitConfig(), TextConfig(vocab_size=len(vocab)), vocab, seed=seed)
    model.set_normalization(manifest.normalization["mean"], manifest.normalization["std"])
    model.save(work / "model.lttw")
    build_text_table(model, manifest.class_names, [TEMPLATE]).save(work / "table.lttc")
    return Inputs(work / "data", work / "model.lttw", work / "table.lttc",
                  base_weight_hash(model))


# ---------------------------------------------------------------------------
# checks


def episode_ok(rec: dict, k: int, num_views: int, masked_views: int, params: int) -> bool:
    probs = rec["probs"]
    if not all(math.isfinite(p) for p in probs) or abs(math.fsum(probs) - 1.0) > PROB_SUM_TOL:
        return False
    if rec["predicted"] != max(range(len(probs)), key=probs.__getitem__):
        return False
    sel = rec["selected"]
    if len(sel) != k or len(set(sel)) != k or not all(0 <= s < num_views for s in sel):
        return False
    return (rec["recorded_full_views"] == num_views
            and rec["recorded_masked_views"] == masked_views
            and rec["trainable_params"] == params)


def check_run_outputs(out: Path, cfg: TttConfig) -> tuple[int, int, str]:
    """(attempted, failed, sha256 of episodes.jsonl) for one `ltt run`."""
    raw = (out / "episodes.jsonl").read_bytes()
    records = [json.loads(line) for line in raw.splitlines()]
    report = json.loads((out / "report.json").read_text())
    vit = VitConfig()
    k = max(1, math.floor(cfg.cutoff * cfg.num_views))
    masked = k if cfg.lam_mae > 0 else 0
    params = trainable_parameter_count(cfg.lora, vit.embed_dim, vit.num_layers)
    failed = sum(not episode_ok(r, k, cfg.num_views, masked, params) for r in records)
    top1 = sum(r["predicted"] == r["label"] for r in records) / max(1, len(records))
    if report["top1"] != top1 or report["num_instances"] != len(records):
        failed = len(records)
    return len(records), failed, hashlib.sha256(raw).hexdigest()


class DigestStore:
    """Output digests per (source, workload, seed, part), kept in the
    checkout so every run of a workload at one seed is compared."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.seen = json.loads(path.read_text()) if path.exists() else {}
        self.mismatches: list[str] = []

    def check(self, part: str, digest: str):
        key = f"{self.prefix}:{part}"
        if self.seen.setdefault(key, digest) != digest:
            self.mismatches.append(part)

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# the measurement loop


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    weights_changed: bool = False
    units_mismatch: bool = False


def _keep_going(rec: Recorder, started: float, seconds: float, trace: bool) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed >= MAX_SECONDS:
        return False
    if elapsed < seconds:
        return True
    if trace:
        return len({inv.traced for inv in rec.invocations}) < 2
    return sum(inv.units for inv in rec.invocations) < MIN_UNITS


def run_streams(workload: Workload, inputs: Inputs, seed: int, seconds: float,
                trace: bool, out: Path, digests: DigestStore) -> tuple[Recorder, Outcome]:
    cfg = TttConfig(mode=ltt.cli.CLI_MODES[workload.cli_mode], seed=seed)
    outcome = Outcome()

    def after_stream(args, report):
        outcome.weights_changed |= base_weight_hash(args[1]) != inputs.weight_hash

    def after_episode(args, result):
        rec.count("ttt.selected", len(result.selected))
        rec.count("ttt.full_views", result.recorded_full_views)
        rec.count("ttt.masked_tokens", result.masked_pass_tokens)
        rec.count("ttt.tokens", result.recorded_tokens)

    rec = Recorder("ttt.run_episode", "ttt.run_episode",
                   hooks={"ttt.run_stream": after_stream, "ttt.run_episode": after_episode})
    started = time.perf_counter()
    i = 0
    while _keep_going(rec, started, seconds, trace):
        split = SPLITS[i % len(SPLITS)]
        argv = ["run", "--ckpt", str(inputs.ckpt), "--table", str(inputs.table),
                "--data", str(inputs.data), "--mode", workload.cli_mode, "--split", split,
                "--seed", str(seed), "--out", str(out)]
        rec.begin_invocation(traced=trace and i % 2 == 1)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = ltt.cli.main(argv)
        finally:
            rec.end_invocation()
        if rc != 0:
            raise RuntimeError(f"ltt {' '.join(argv)} exited with {rc}")
        attempted, failed, digest = check_run_outputs(out, cfg)
        outcome.attempted += attempted
        outcome.failed += failed
        outcome.units_mismatch |= attempted != rec.invocations[-1].units
        digests.check(split, digest)
        i += 1
    return rec, outcome


def run_pretrain(inputs: Inputs, seed: int, seconds: float, trace: bool,
                 digests: DigestStore) -> tuple[Recorder, Outcome]:
    # a unit is one batch: from its first crop to the logit-scale clamp ending its step
    rec = Recorder("views.random_resized_crop", "encoder.ClipModel.clamp_logit_scale")
    outcome = Outcome()
    started = time.perf_counter()
    i = 0
    while _keep_going(rec, started, seconds, trace):
        rec.begin_invocation(traced=trace and i % 2 == 1)
        try:
            _, losses = ltt.pretrain.pretrain(inputs.data, VitConfig(), epochs=1, seed=seed,
                                              batch_size=PRETRAIN_BATCH)
        finally:
            rec.end_invocation()
        outcome.attempted += len(losses)
        outcome.failed += sum(not math.isfinite(x) for x in losses)
        outcome.units_mismatch |= len(losses) != rec.invocations[-1].units
        digests.check("losses", hashlib.sha256(repr(losses).encode()).hexdigest())
        i += 1
    return rec, outcome


# ---------------------------------------------------------------------------
# metrics


def _units(rec: Recorder, traced: bool):
    return [u for u in rec.units if rec.invocations[u.invocation].traced == traced]


def _throughput(rec: Recorder, traced: bool, items_per_unit: int) -> float:
    """Median over invocations of items done over the invocation's wall time."""
    return statistics.median(inv.units * items_per_unit / ((inv.end - inv.start) / 1e9)
                             for inv in rec.invocations if inv.traced == traced)


def end_to_end(rec: Recorder, workload: Workload) -> dict:
    """Unit and step times are process CPU time; throughput and set-up are wall time."""
    units = _units(rec, traced=False)
    unit_ms = [(u.end - u.start) / 1e6 for u in units]
    block = min(TAIL_BLOCK, len(units))  # fewer units fail the run's checks
    step_ms = [(u.step_end - u.step_start) / 1e6 for u in units]
    setups = [(inv.first_unit_start - inv.start) / 1e9
              for inv in rec.invocations if not inv.traced]
    return {
        "episode_ms.p50": percentile(unit_ms, 50),
        "episode_ms.p90": block_percentile(unit_ms, 90, block),
        "step_ms.p50": percentile(step_ms, 50),
        "step_ms.p90": block_percentile(step_ms, 90, block),
        "throughput": _throughput(rec, False, workload.items_per_unit),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(rec: Recorder, workload: Workload) -> dict:
    """Per-layer metrics per unit of work, from the traced invocations; wall time."""
    units = _units(rec, traced=True)
    kept = {u.id for u in units if not u.sampled}
    n_kept, n_all = max(1, len(kept)), max(1, len(units))
    names = rec.names
    spans = rec.spans
    unit_ms, unit_calls = defaultdict(int), defaultdict(int)
    all_ms, all_calls = defaultdict(int), defaultdict(int)
    for sid, t0, t1, _, unit in spans:
        name = names[sid]
        all_ms[name] += t1 - t0
        all_calls[name] += 1
        if unit in kept:
            unit_ms[name] += t1 - t0
            unit_calls[name] += 1

    def pick(table, scope_ms, scope_calls, n):
        return {metric: (scope_ms[span] / 1e6 if kind == "ms" else scope_calls[span]) / n
                for metric, (span, kind) in table.items()}

    out = pick(UNIT_SPANS, unit_ms, unit_calls, n_kept)
    out.update(pick(INVOCATION_SPANS, all_ms, all_calls, n_all))
    for op in TENSOR_OPS:
        out[f"tensor.{op}.ms"] = unit_ms[f"tensor.{op}"] / 1e6 / n_kept
        out[f"tensor.{op}.calls"] = unit_calls[f"tensor.{op}"] / n_kept
    other = [n for n in unit_ms if n.startswith("tensor.") and n.count(".") == 1
             and n[len("tensor."):] not in (*TENSOR_OPS, "backward")]
    out["tensor.other.ms"] = sum(unit_ms[n] for n in other) / 1e6 / n_kept
    out["tensor.other.calls"] = sum(unit_calls[n] for n in other) / n_kept

    watched = {rec.name_id(span) for span in SELF_SPANS.values()}
    children = defaultdict(list)
    for sid, t0, t1, parent, _ in spans:
        if parent >= 0 and spans[parent][0] in watched:
            children[parent].append((t0, t1))
    self_ns = defaultdict(int)
    for idx, (sid, t0, t1, _, unit) in enumerate(spans):
        if sid in watched and unit in kept:
            self_ns[names[sid]] += self_time(t0, t1, children[idx])
    for metric, span in SELF_SPANS.items():
        out[metric] = self_ns[span] / 1e6 / n_kept

    counters = defaultdict(int)
    for u in units:
        if u.id in kept:
            for key, value in u.counters.items():
                counters[key] += value
    out["encoder.encode_image_batch.rows"] = counters["encoder.encode_image_batch.rows"] / n_kept
    out["tensor.tape_nodes"] = counters["tensor.tape_nodes"] / n_kept
    out["tensor.matmul.gflop"] = counters["tensor.matmul.flop"] / 1e9 / n_kept
    out["tensor.matmul.mbytes"] = counters["tensor.matmul.bytes"] / 1e6 / n_kept
    out["ttt.useful_view_frac"] = counters["ttt.selected"] / max(1, counters["ttt.full_views"])
    out["ttt.masked_token_frac"] = counters["ttt.masked_tokens"] / max(1, counters["ttt.tokens"])
    peaks = [u.alloc_peak for u in units if u.sampled]
    out["ttt.episode_alloc_peak_mb"] = statistics.median(peaks) / 1e6 if peaks else 0.0
    out["trace.overhead_frac"] = 1.0 - (_throughput(rec, True, workload.items_per_unit)
                                        / _throughput(rec, False, workload.items_per_unit))
    return out


def write_spans(rec: Recorder, path: Path):
    """One JSON array per span: name, start_ns, end_ns, parent index, unit id."""
    with open(path, "w") as f:
        for sid, t0, t1, parent, unit in rec.spans:
            f.write(f'["{rec.names[sid]}",{t0},{t1},{parent},{unit}]\n')


# ---------------------------------------------------------------------------
# one run


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Make the inputs, measure, check; return the full result record."""
    workload = WORKLOADS[workload_name]
    base = root / ".perfbench_work"
    work = base / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(work, workload, seed)
        src = source_digest(root)
        digests = DigestStore(base / "digests.json", f"{src[:16]}:{workload_name}:{seed}")
        if workload.cli_mode:
            rec, outcome = run_streams(workload, inputs, seed, seconds, trace,
                                       work / "out", digests)
        else:
            rec, outcome = run_pretrain(inputs, seed, seconds, trace, digests)
        digests.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = per_layer(rec, workload)
        write_spans(rec, base / f"spans-{workload_name}.jsonl")
        units = _units(rec, traced=True)
    else:
        metrics = end_to_end(rec, workload)
        units = _units(rec, traced=False)
    problems = []
    if outcome.weights_changed:
        problems.append("base weights changed during a run")
    if outcome.units_mismatch:
        problems.append(f"number of {workload.unit} differs from the program's output")
    if digests.mismatches:
        problems.append(f"outputs differ from an earlier run at this seed: {digests.mismatches}")
    if not trace and (tail_percentile(min(TAIL_BLOCK, len(units))) or 0) < 90:
        problems.append(f"only {len(units)} {workload.unit}: p90 has under 10 samples beyond")
    return {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "units": len(units), "unit": workload.unit,
        "invocations": sum(inv.traced == trace for inv in rec.invocations),
        "tail_blocks": len(units) // TAIL_BLOCK,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "problems": problems, "correct": not problems and outcome.failed == 0,
        "metrics": metrics,
        "units_of": {**END_TO_END, **PER_LAYER},
        "environment": environment(root, seed),
    }


# ---------------------------------------------------------------------------
# environment record


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ltt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "src_ltt_lines": sum(len(p.read_text().splitlines())
                             for p in (root / "src" / "ltt").glob("*.py")),
        "seeds": [seed],
    }
