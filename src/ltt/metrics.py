"""Accuracy, expected calibration error, and the report CSV."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

REPORT_FIELDS = ("mode", "dataset", "seed", "top1", "ece", "mean_mem_loss",
                 "mean_mae_loss", "trainable_params", "median_episode_ms")


def top1_accuracy(predictions, labels) -> float:
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    if not predictions:
        raise ValueError("empty inputs")
    hits = sum(int(p) == int(l) for p, l in zip(predictions, labels))
    return hits / len(predictions)


@dataclass
class EceReport:
    num_bins: int
    counts: list
    total: int
    ece: float


def ece(confidences, correct_flags, num_bins: int = 20) -> EceReport:
    """Equal-width binning of (0,1]: bin k covers ((k-1)/nb, k/nb], and a
    confidence of exactly 0 lands in bin 1."""
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct_flags, dtype=np.float64)
    if conf.size == 0:
        raise ValueError("empty inputs")
    if conf.size != corr.size:
        raise ValueError(f"length mismatch: {conf.size} vs {corr.size}")
    if not np.all((conf >= 0.0) & (conf <= 1.0)):  # a NaN fails both comparisons
        raise ValueError("confidences must lie in [0, 1]")
    edges = np.array([k / num_bins for k in range(num_bins + 1)])
    bins = np.searchsorted(edges, conf, side="left")
    bins = np.clip(bins, 1, num_bins)
    m = conf.size
    counts = []
    total_gap = 0.0
    for k in range(1, num_bins + 1):
        sel = bins == k
        cnt = int(sel.sum())
        counts.append(cnt)
        if cnt:
            total_gap += (cnt / m) * abs(float(corr[sel].mean()) - float(conf[sel].mean()))
    return EceReport(num_bins, counts, m, total_gap)


def report_csv_rows(reports: list[dict]) -> str:
    """One CSV row per (mode, dataset, seed) report record."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS, extrasaction="ignore")
    writer.writeheader()
    for rec in reports:
        writer.writerow({k: rec.get(k) for k in REPORT_FIELDS})
    return buf.getvalue()
