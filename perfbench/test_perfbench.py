"""Tests of the benchmark's own arithmetic: the percentile rule, span self
time and computed matmul cost."""

import numpy as np
import pytest

from perfbench.stats import (block_percentile, matmul_cost, percentile, samples_beyond,
                             self_time, tail_percentile, union_length)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_ranks_above():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(101, 90) == 10  # rank 91 of 101 is the percentile itself
    assert samples_beyond(99, 90) == 9


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).exponential(size=257))
    for q in (0, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_block_percentile_is_median_over_whole_blocks():
    quiet = [1.0] * 90 + [2.0] * 10
    burst = [5.0] * 100
    # one block hit by a burst does not move the median of three
    assert block_percentile(quiet + burst + quiet, 90, 100) == percentile(quiet, 90)
    # a trailing partial block is dropped
    assert block_percentile(quiet + [9.0] * 99, 90, 100) == percentile(quiet, 90)
    with pytest.raises(ValueError):
        block_percentile(quiet[:99], 90, 100)


def test_self_time_subtracts_union_of_children():
    # children overlap on [20, 30) and one sticks out past the parent's end
    children = [(10, 30), (20, 40), (50, 60), (95, 120)]
    assert union_length(children) == 30 + 10 + 25
    assert self_time(0, 100, children) == 100 - (30 + 10 + 5)
    assert self_time(0, 100, []) == 100
    assert self_time(0, 100, [(0, 100)]) == 0


def test_matmul_cost_plain():
    flops, nbytes = matmul_cost((2, 3), (3, 4), 4)
    assert flops == 2 * 2 * 3 * 4
    assert nbytes == (6 + 12 + 8) * 4


def test_matmul_cost_batched_and_broadcast():
    # (64, 17, 64) @ (64, 64): the image encoder's projections
    flops, nbytes = matmul_cost((64, 17, 64), (64, 64), 4)
    assert flops == 2 * 64 * 17 * 64 * 64
    assert nbytes == (64 * 17 * 64 + 64 * 64 + 64 * 17 * 64) * 4
    # attention scores: (B, H, T, dh) @ (B, H, dh, T)
    flops, nbytes = matmul_cost((8, 4, 17, 16), (8, 4, 16, 17), 8)
    assert flops == 2 * 32 * 17 * 16 * 17
    assert nbytes == (32 * 17 * 16 * 2 + 32 * 17 * 17) * 8
    # both operands broadcast their leading dims
    flops, nbytes = matmul_cost((5, 1, 2, 3), (6, 3, 4), 4)
    assert flops == 2 * 30 * 2 * 3 * 4
    assert nbytes == (5 * 6 + 6 * 12 + 30 * 8) * 4
    assert np.matmul(np.zeros((5, 1, 2, 3)), np.zeros((6, 3, 4))).shape == (5, 6, 2, 4)


def test_matmul_cost_rejects_bad_shapes():
    with pytest.raises(ValueError):
        matmul_cost((2, 3), (4, 5), 4)
    with pytest.raises(ValueError):
        matmul_cost((2, 2, 3), (5, 3, 4), 4)
