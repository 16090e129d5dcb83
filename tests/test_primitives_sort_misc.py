"""Tests for radix sort, compaction, histogram, and unique primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import KeyValueSet
from repro.hw import GT200, kernel_duration
from repro.primitives import (
    compact,
    compact_cost,
    histogram,
    histogram_cost,
    radix_sort,
    radix_sort_cost,
    radix_sort_pairs,
    significant_bits,
    unique_segments,
    unique_segments_cost,
)


# -- radix sort ---------------------------------------------------------------

def test_radix_sort_basic():
    keys = np.array([170, 45, 75, 90, 2, 802, 24, 66], dtype=np.uint32)
    np.testing.assert_array_equal(radix_sort(keys), np.sort(keys))


def test_radix_sort_empty():
    assert len(radix_sort(np.array([], dtype=np.uint32))) == 0


def test_radix_sort_pairs_carries_values():
    keys = np.array([3, 1, 2], dtype=np.uint32)
    vals = np.array([30, 10, 20])
    sk, sv = radix_sort_pairs(keys, vals)
    np.testing.assert_array_equal(sk, [1, 2, 3])
    np.testing.assert_array_equal(sv, [10, 20, 30])


def test_radix_sort_pairs_2d_values():
    keys = np.array([2, 0, 1], dtype=np.uint32)
    vals = np.arange(6, dtype=np.float64).reshape(3, 2)
    sk, sv = radix_sort_pairs(keys, vals)
    np.testing.assert_array_equal(sk, [0, 1, 2])
    np.testing.assert_array_equal(sv, [[2, 3], [4, 5], [0, 1]])


def test_radix_sort_is_stable():
    keys = np.array([1, 0, 1, 0, 1], dtype=np.uint32)
    vals = np.array([0, 1, 2, 3, 4])
    _, sv = radix_sort_pairs(keys, vals)
    np.testing.assert_array_equal(sv, [1, 3, 0, 2, 4])  # original order kept


def test_radix_sort_rejects_floats_and_negatives():
    with pytest.raises(TypeError):
        radix_sort(np.array([1.5, 2.5]))
    with pytest.raises(ValueError):
        radix_sort(np.array([-1, 2], dtype=np.int64))
    with pytest.raises(TypeError):
        radix_sort_pairs(np.array([1.5, 0.5]), np.arange(2))
    with pytest.raises(ValueError):
        radix_sort_pairs(np.array([3, -1], dtype=np.int32), np.arange(2))
    pairs = KeyValueSet(keys=np.arange(2, dtype=np.uint32), values=np.arange(2))
    with pytest.raises(TypeError):
        pairs.split_by(np.array([1.0, 0.0]), 2)
    with pytest.raises(ValueError):
        pairs.split_by(np.array([-1, 0], dtype=np.int64), 2)


def test_radix_sort_value_length_mismatch():
    with pytest.raises(ValueError):
        radix_sort_pairs(np.array([1, 2], dtype=np.uint32), np.array([1]))


def test_significant_bits():
    assert significant_bits(np.array([0], dtype=np.uint32)) == 1
    assert significant_bits(np.array([255], dtype=np.uint32)) == 8
    assert significant_bits(np.array([256], dtype=np.uint32)) == 9
    assert significant_bits(np.array([], dtype=np.uint32)) == 0


@settings(max_examples=100, deadline=None)
@given(arrays(np.uint32, st.integers(0, 500), elements=st.integers(0, 2**32 - 1)))
def test_property_radix_sort_matches_npsort(keys):
    result = radix_sort(keys)
    np.testing.assert_array_equal(result, np.sort(keys))


@settings(max_examples=50, deadline=None)
@given(arrays(np.uint32, st.integers(1, 300), elements=st.integers(0, 10)))
def test_property_radix_sort_pairs_is_permutation(keys):
    vals = np.arange(len(keys))
    sk, sv = radix_sort_pairs(keys, vals)
    # Sorted, same multiset of keys, and values form a permutation.
    assert np.all(np.diff(sk.astype(np.int64)) >= 0)
    np.testing.assert_array_equal(np.sort(sk), np.sort(keys))
    np.testing.assert_array_equal(np.sort(sv), vals)
    np.testing.assert_array_equal(keys[sv], sk)


#: Key dtypes the Sort stage and the partition split see, with the
#: widest non-negative key each can hold.
_KEY_DTYPES = {np.int32: 31, np.int64: 63, np.uint32: 32, np.uint64: 64}


@st.composite
def _keys(draw, max_bits=64):
    """Integer keys with many ties, up to ~2000 long, 1 to 64 bits wide.

    Widths near 64 with more than one key overflow the packed word and
    exercise the ``np.argsort`` fallback; narrower ones the packed sort.
    """
    dtype = draw(st.sampled_from(sorted(_KEY_DTYPES, key=str)))
    top = min(_KEY_DTYPES[dtype], max_bits)
    bits = draw(st.integers(1, top) | st.just(top))
    n = draw(st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, 2**bits, size=draw(st.integers(1, 16)), dtype=np.uint64)
    pool[0] = 2**bits - 1  # the key width is exactly ``bits``
    return pool[rng.integers(0, len(pool), size=n)].astype(dtype)


@settings(max_examples=150, deadline=None)
@given(_keys())
def test_property_radix_sort_pairs_is_stable_argsort(keys):
    payload = np.arange(len(keys)) * 3 + 1
    sk, sv = radix_sort_pairs(keys, payload)
    order = np.argsort(keys, kind="stable")
    assert sk.dtype == keys.dtype
    np.testing.assert_array_equal(sk, keys[order])
    np.testing.assert_array_equal(sv, payload[order])


@settings(max_examples=100, deadline=None)
@given(_keys(max_bits=9), st.integers(0, 2))
def test_property_host_split_by_is_stable_argsort(ids, empty_parts):
    n_parts = int(ids.max(initial=0)) + 1 + empty_parts
    pairs = KeyValueSet(
        keys=np.arange(len(ids), dtype=np.uint32), values=np.arange(len(ids)) * 3 + 1
    )
    parts = pairs.split_by(ids, n_parts)
    order = np.argsort(ids, kind="stable")
    assert len(parts) == n_parts
    np.testing.assert_array_equal(np.concatenate([p.values for p in parts]), pairs.values[order])
    np.testing.assert_array_equal(np.concatenate([p.keys for p in parts]), pairs.keys[order])
    for p, part in enumerate(parts):
        assert len(part) == int(np.count_nonzero(ids == p))


def test_radix_sort_cost_scales_with_key_bits():
    short = radix_sort_cost(1 << 20, key_bits=8)
    full = radix_sort_cost(1 << 20, key_bits=32)
    assert len(short) == 1 and len(full) == 4
    t_short = sum(kernel_duration(GT200, k) for k in short)
    t_full = sum(kernel_duration(GT200, k) for k in full)
    assert t_full == pytest.approx(4 * t_short)


def test_radix_sort_cost_throughput_plausible():
    # ~1 G pairs/s for 32-bit keys on GT200-class hardware.
    n = 1 << 24
    t = sum(kernel_duration(GT200, k) for k in radix_sort_cost(n, key_bits=32))
    rate = n / t
    assert 2e8 < rate < 4e9


# -- compact -------------------------------------------------------------------

def test_compact_basic():
    v = np.array([1, 2, 3, 4])
    m = np.array([True, False, True, False])
    np.testing.assert_array_equal(compact(v, m), [1, 3])


def test_compact_2d_payload():
    v = np.arange(8).reshape(4, 2)
    m = np.array([False, True, False, True])
    np.testing.assert_array_equal(compact(v, m), [[2, 3], [6, 7]])


def test_compact_length_mismatch():
    with pytest.raises(ValueError):
        compact(np.array([1, 2]), np.array([True]))


def test_compact_cost_validates_fraction():
    with pytest.raises(ValueError):
        compact_cost(100, keep_fraction=1.5)


# -- histogram -------------------------------------------------------------------

def test_histogram_counts():
    keys = np.array([0, 1, 1, 3, 3, 3], dtype=np.int64)
    np.testing.assert_array_equal(histogram(keys, 4), [1, 2, 0, 3])


def test_histogram_range_check():
    with pytest.raises(ValueError):
        histogram(np.array([5]), 4)
    with pytest.raises(ValueError):
        histogram(np.array([-1]), 4)


def test_histogram_requires_integers():
    with pytest.raises(TypeError):
        histogram(np.array([0.5]), 4)


def test_histogram_cost_conflicts_grow_with_few_bins():
    many_bins = histogram_cost(1 << 20, 1 << 16)
    few_bins = histogram_cost(1 << 20, 2)
    assert kernel_duration(GT200, few_bins) > kernel_duration(GT200, many_bins)


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.integers(0, 400), elements=st.integers(0, 31)))
def test_property_histogram_is_conservative(keys):
    h = histogram(keys, 32)
    assert h.sum() == len(keys)
    np.testing.assert_array_equal(h, np.bincount(keys, minlength=32))


# -- unique segments -------------------------------------------------------------

def test_unique_segments_basic():
    keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.uint32)
    runs = unique_segments(keys)
    np.testing.assert_array_equal(runs.unique_keys, [2, 5, 7])
    np.testing.assert_array_equal(runs.offsets, [0, 2, 3])
    np.testing.assert_array_equal(runs.counts, [2, 1, 3])
    assert runs.n_keys == 3


def test_unique_segments_empty():
    runs = unique_segments(np.array([], dtype=np.uint32))
    assert runs.n_keys == 0


def test_unique_segments_rejects_unsorted():
    with pytest.raises(ValueError):
        unique_segments(np.array([3, 1], dtype=np.uint32))


@settings(max_examples=80, deadline=None)
@given(arrays(np.uint32, st.integers(1, 400), elements=st.integers(0, 20)))
def test_property_unique_segments_reconstructs(keys):
    s = np.sort(keys)
    runs = unique_segments(s)
    # Counts sum to n; repeating unique keys by counts rebuilds the array.
    assert runs.counts.sum() == len(s)
    np.testing.assert_array_equal(np.repeat(runs.unique_keys, runs.counts), s)
    # Offsets are the exclusive scan of counts.
    np.testing.assert_array_equal(
        runs.offsets, np.cumsum(runs.counts) - runs.counts
    )


def test_unique_segments_cost_returns_three_launches():
    launches = unique_segments_cost(1 << 20, 1 << 10)
    assert len(launches) == 3
