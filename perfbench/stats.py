"""Pure helpers: percentiles, span self time and computed matmul cost."""

from __future__ import annotations

import math
import statistics

# percentiles the benchmark may report, highest first
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples rank above the q-th percentile."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest percentile on the ladder with at least `min_beyond`
    samples beyond it, or None when even the median has fewer."""
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def block_percentile(values, q: float, block: int) -> float:
    """Median over consecutive blocks of `block` samples of each block's
    q-th percentile. A burst of load on the machine then moves one block,
    not the result. A last block shorter than `block` is dropped."""
    blocks = [values[i:i + block] for i in range(0, len(values) - block + 1, block)]
    if not blocks:
        raise ValueError(f"need at least {block} samples, got {len(values)}")
    return statistics.median(percentile(b, q) for b in blocks)


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: int, end: int, children) -> int:
    """A span's duration minus the part of it its children's intervals cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped)


def matmul_cost(a_shape: tuple, b_shape: tuple, itemsize: int) -> tuple[int, int]:
    """Flops and bytes of `a @ b` computed from operand shapes.

    Both operands are at least 2-d; leading dims broadcast as in numpy.
    Flops count a multiply and an add per inner-product term. Bytes count
    each operand read once and the result written once.
    """
    m, k = a_shape[-2:]
    k2, n = b_shape[-2:]
    if k != k2:
        raise ValueError(f"inner dims differ: {a_shape} @ {b_shape}")
    batch = math.prod(_broadcast(a_shape[:-2], b_shape[:-2]))
    flops = 2 * batch * m * k * n
    elems = math.prod(a_shape) + math.prod(b_shape) + batch * m * n
    return flops, elems * itemsize


def _broadcast(a: tuple, b: tuple) -> tuple:
    width = max(len(a), len(b))
    a = (1,) * (width - len(a)) + tuple(a)
    b = (1,) * (width - len(b)) + tuple(b)
    out = []
    for x, y in zip(a, b):
        if x != y and 1 not in (x, y):
            raise ValueError(f"batch dims {a} and {b} do not broadcast")
        out.append(max(x, y))
    return tuple(out)
