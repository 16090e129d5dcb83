"""Stable integer sort — the CUDPP/Satish-et-al. sort role.

On the host, :func:`stable_order` packs each key with its row index
into one ``uint64`` word (``key << index_bits | index``) and sorts the
words once with ``np.sort``; the words are distinct, so the order is
exactly ``np.argsort(kind="stable")``'s.  Keys too wide to share a word
with their index fall back to that call.  The GPU's LSD radix pass
structure lives only in :func:`radix_sort_cost`: one counting-sort
launch per ``DIGIT_BITS`` digit, as in Satish, Harris & Garland, IPDPS
2009, which the paper uses via CUDPP.

``radix_sort_pairs`` carries a value payload through the permutation,
which is how GPMR sorts its key-value sets.  Values may be any ndarray
whose first dimension matches the keys (e.g. ``(n, dims)`` float
blocks).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .common import accel_namespace_for, as_1d_array, launch_1d
from ..hw.kernel import KernelLaunch

__all__ = [
    "stable_order",
    "radix_sort",
    "radix_sort_pairs",
    "radix_sort_cost",
    "bitonic_sort_cost",
    "significant_bits",
]

#: Digit width used by the GPU counting-sort passes.
DIGIT_BITS = 8


def significant_bits(keys: np.ndarray) -> int:
    """Number of key bits the sort must process (max over the array)."""
    k = as_1d_array(keys)
    if k.dtype.kind not in "iu":
        raise TypeError(f"radix sort requires integer keys, got {k.dtype}")
    if len(k) == 0:
        return 0
    if int(k.min()) < 0:
        raise ValueError("radix sort requires non-negative keys")
    return max(int(k.max()).bit_length(), 1)


def stable_order(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys[order], order)``, ``order`` being the stable ascending
    permutation of non-negative integer ``keys`` (``np.argsort``'s)."""
    k = as_1d_array(keys)
    index_bits = max(len(k) - 1, 0).bit_length()
    if significant_bits(k) + index_bits > 64:
        order = np.argsort(k, kind="stable")
        return k[order], order
    shift = np.uint64(index_bits)
    words = k.astype(np.uint64) << shift
    words |= np.arange(len(k), dtype=np.uint64)
    words.sort()
    sorted_keys = (words >> shift).astype(k.dtype)
    words &= np.uint64((1 << index_bits) - 1)
    return sorted_keys, words.view(np.int64)


def radix_sort(keys: np.ndarray) -> np.ndarray:
    """Return ``keys`` sorted ascending (stable)."""
    return radix_sort_pairs(keys, None)[0]


def radix_sort_pairs(
    keys: np.ndarray,
    values: Optional[np.ndarray],
    key_bits: Optional[int] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stable-sort ``keys`` carrying ``values``; returns sorted copies.

    ``key_bits`` is a GPU pass budget for :func:`radix_sort_cost`; the
    order always covers every bit the keys hold.
    """
    ns = accel_namespace_for(keys)
    if ns is not None:
        return ns.sort_pairs(keys, values, key_bits=key_bits)
    k = as_1d_array(keys)
    if values is not None and len(values) != len(k):
        raise ValueError("values must have the same length as keys")
    sorted_keys, order = stable_order(k)
    sorted_values = values[order] if values is not None else None
    return sorted_keys, sorted_values


def radix_sort_cost(
    n: int,
    key_bits: int = 32,
    value_bytes: int = 4,
    key_bytes: int = 4,
) -> List[KernelLaunch]:
    """Cost of sorting ``n`` (key, value) pairs: one launch per digit pass.

    Each pass histograms, scans the 256-bin table, and scatters keys and
    values.  Reads are coalesced; the scatter write is not (~0.4
    effective, matching measured GT200 radix throughput of roughly 1
    G-pairs/s for 32-bit keys).
    """
    passes = max(1, (max(key_bits, 1) + DIGIT_BITS - 1) // DIGIT_BITS)
    pair = key_bytes + value_bytes
    per_pass = launch_1d(
        "radix_pass",
        n,
        flops_per_item=4.0,
        read_bytes_per_item=pair + key_bytes,   # payload read + digit re-read
        write_bytes_per_item=float(pair),
        coalescing=0.4,                          # scatter-dominated
        syncs=2,                                 # histogram + scan sub-steps
    )
    return [per_pass] * passes


def bitonic_sort_cost(
    n: int,
    value_bytes: int = 4,
    key_bytes: int = 4,
) -> List[KernelLaunch]:
    """Cost of a bitonic sort of ``n`` pairs — Mars's sorter.

    Bitonic sort runs ``log2(n) * (log2(n) + 1) / 2`` compare-exchange
    stages, each streaming every pair through global memory once.  The
    O(n log^2 n) traffic (vs. radix's O(n)) is a large part of why GPMR
    beats Mars on sort-heavy jobs (Table 3); Mars's published design
    uses bitonic sort [He et al. 2008].
    """
    if n <= 1:
        return [launch_1d("bitonic_stage", max(n, 1), read_bytes_per_item=1.0)]
    log_n = int(np.ceil(np.log2(n)))
    stages = log_n * (log_n + 1) // 2
    pair = key_bytes + value_bytes
    per_stage = launch_1d(
        "bitonic_stage",
        n,
        flops_per_item=2.0,
        read_bytes_per_item=float(pair),
        write_bytes_per_item=float(pair),
        coalescing=0.5,  # strided partner access
        syncs=1,
    )
    return [per_stage] * stages
