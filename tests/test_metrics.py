import numpy as np
import pytest

from ltt.metrics import ece, report_csv_rows, top1_accuracy


def test_top1_values():
    assert top1_accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert top1_accuracy([1, 2, 3], [0, 0, 0]) == 0.0
    assert top1_accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75
    with pytest.raises(ValueError, match="mismatch"):
        top1_accuracy([1], [1, 2])
    with pytest.raises(ValueError, match="empty"):
        top1_accuracy([], [])


def test_ece_perfect_calibration():
    rep = ece([1.0, 1.0, 1.0], [True, True, True], num_bins=20)
    assert rep.ece == 0.0
    assert rep.total == 3


def test_ece_two_bin_hand_value():
    rep = ece([0.9, 0.9, 0.6, 0.6], [1, 0, 1, 0], num_bins=20)
    # two occupied bins with gaps 0.4 and 0.1, each holding half the samples
    assert rep.ece == pytest.approx(0.25, abs=1e-12)


def test_ece_single_wrong_sample():
    rep = ece([0.7], [False], num_bins=20)
    assert rep.ece == pytest.approx(0.7, abs=1e-12)


def test_ece_zero_confidence_goes_to_first_bin():
    rep = ece([0.0], [False], num_bins=20)
    assert rep.counts[0] == 1
    assert sum(rep.counts) == rep.total


def brute_force_ece(confs, correct, num_bins):
    confs = np.asarray(confs, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    m = len(confs)
    total = 0.0
    for k in range(1, num_bins + 1):
        lo = (k - 1) / num_bins
        hi = k / num_bins
        sel = (confs > lo) & (confs <= hi)
        if k == 1:
            sel |= confs == 0.0
        if not sel.any():
            continue
        total += (sel.sum() / m) * abs(correct[sel].mean() - confs[sel].mean())
    return total


def test_ece_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    confs = rng.uniform(0, 1, size=1000)
    confs[:5] = [0.0, 1.0, 0.05, 0.9500000001, 0.25]
    correct = rng.random(1000) < confs
    rep = ece(confs, correct, num_bins=20)
    assert abs(rep.ece - brute_force_ece(confs, correct, 20)) < 1e-12
    assert sum(rep.counts) == 1000
    assert 0.0 <= rep.ece <= 1.0


def test_ece_permutation_invariant():
    rng = np.random.default_rng(32)
    confs = rng.uniform(0, 1, size=500)
    correct = rng.random(500) < 0.5
    base = ece(confs, correct).ece
    perm = rng.permutation(500)
    assert ece(confs[perm], correct[perm]).ece == pytest.approx(base, abs=1e-15)


def test_ece_validation():
    with pytest.raises(ValueError, match="empty"):
        ece([], [])
    with pytest.raises(ValueError, match="mismatch"):
        ece([0.5], [True, False])
    with pytest.raises(ValueError, match="lie in"):
        ece([1.5], [True])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_ece_rejects_non_finite_confidences(bad):
    with pytest.raises(ValueError, match="lie in"):
        ece([bad, 0.5], [1, 0])


def test_report_csv_shape():
    rows = [{"mode": "zero_shot", "dataset": "test", "seed": 0, "top1": 0.9,
             "ece": 0.05, "mean_mem_loss": None, "mean_mae_loss": None,
             "trainable_params": 0, "median_episode_ms": 3.2}]
    text = report_csv_rows(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("mode,dataset,seed,top1,ece")
