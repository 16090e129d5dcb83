"""The benchmark's own arithmetic: percentiles, interval unions, output digests.

Kept apart from the measuring code so ``selftest.py`` can check each
piece on inputs whose answers are known.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

Interval = Tuple[float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) by linear interpolation between
    closest ranks, so ``percentile(v, 0.5)`` equals ``statistics.median(v)``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_count(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-quantile: the support
    a reported percentile has (a tail worth quoting has at least ten)."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def summarize(values: Sequence[float]) -> dict:
    """Median, p90, sample count and the p90's tail support."""
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "p90": percentile(values, 0.9),
        "p90_tail": tail_count(values, 0.9),
    }


def union_length(intervals: Iterable[Interval], clip: Optional[Interval] = None) -> float:
    """Total length covered by the union of ``(start, end)`` intervals,
    optionally clipped to ``clip`` first.  Overlaps count once."""
    spans: List[Interval] = []
    for a, b in intervals:
        if clip is not None:
            a, b = max(a, clip[0]), min(b, clip[1])
        if b > a:
            spans.append((a, b))
    spans.sort()
    total = 0.0
    cur_a = cur_b = None
    for a, b in spans:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def digest_outputs(outputs: Sequence) -> str:
    """A SHA-256 over every rank's output arrays (keys, values, scale),
    in rank order; ``None`` ranks hash as a marker.  Equal digests mean
    bit-identical per-rank outputs."""
    h = hashlib.sha256()
    for rank, kv in enumerate(outputs):
        h.update(f"rank{rank}:".encode())
        if kv is None:
            h.update(b"none")
            continue
        for arr in (kv.keys, kv.values):
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        h.update(repr(float(kv.scale)).encode())
    return h.hexdigest()
