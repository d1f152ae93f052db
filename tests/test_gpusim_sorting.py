"""Tests for the Thrust-like device sorting/reduction primitives."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpusim.sorting import (
    RADIX_SORT_PASSES,
    _sorted_index_words,
    device_lower_bound,
    device_reduce_by_key,
    device_sort,
    device_sort_by_key,
    stable_argsort,
)
from repro.gpusim.stats import KernelStats, StatsRecorder

KEY_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64, np.int64)


@st.composite
def _duplicate_heavy_keys(draw):
    """A 1-D key array of a drawn dtype: few distinct values, many repeats."""
    dtype = np.dtype(draw(st.sampled_from(KEY_DTYPES)))
    info = np.iinfo(dtype)
    value = st.integers(int(info.min), int(info.max))
    pool = draw(st.lists(value, min_size=1, max_size=6))
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 400)))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(picks, dtype=dtype)


class TestDeviceSort:
    def test_sorts_correctly(self, recorder, rng):
        keys = rng.integers(0, 1000, 500).astype(np.uint64)
        out = device_sort(keys, recorder)
        assert np.array_equal(out, np.sort(keys))

    def test_accounts_radix_traffic(self, recorder):
        keys = np.arange(1000, dtype=np.uint64)
        device_sort(keys, recorder)
        assert recorder.total.items_sorted == 1000
        assert recorder.total.coalesced_bytes_read > 0
        assert recorder.total.kernel_launches > 0

    def test_sort_by_key_keeps_pairs_aligned(self, recorder, rng):
        keys = rng.integers(0, 100, 200).astype(np.int64)
        values = np.arange(200)
        sorted_keys, sorted_values = device_sort_by_key(keys, values, recorder)
        assert np.array_equal(sorted_keys, np.sort(keys))
        # Each value must still map to its original key.
        assert np.array_equal(keys[sorted_values], sorted_keys)

    def test_sort_by_key_shape_mismatch(self, recorder):
        with pytest.raises(ValueError):
            device_sort_by_key(np.arange(3), np.arange(4), recorder)


class TestReduceByKey:
    def test_counts_duplicates(self, recorder):
        keys = np.array([1, 1, 2, 3, 3, 3], dtype=np.uint64)
        unique, counts = device_reduce_by_key(keys, None, recorder)
        assert list(unique) == [1, 2, 3]
        assert list(counts) == [2, 1, 3]

    def test_sums_values(self, recorder):
        keys = np.array([5, 5, 9], dtype=np.uint64)
        values = np.array([2, 3, 10], dtype=np.int64)
        unique, sums = device_reduce_by_key(keys, values, recorder)
        assert list(unique) == [5, 9]
        assert list(sums) == [5, 10]

    def test_empty_input(self, recorder):
        unique, counts = device_reduce_by_key(np.array([], dtype=np.uint64), None, recorder)
        assert unique.size == 0 and counts.size == 0

    def test_matches_numpy_unique(self, recorder, rng):
        keys = np.sort(rng.integers(0, 50, 300).astype(np.uint64))
        unique, counts = device_reduce_by_key(keys, None, recorder)
        ref_unique, ref_counts = np.unique(keys, return_counts=True)
        assert np.array_equal(unique, ref_unique)
        assert np.array_equal(counts, ref_counts)


class TestSearchAndScan:
    def test_lower_bound_matches_searchsorted(self, recorder, rng):
        haystack = np.sort(rng.integers(0, 10_000, 1000).astype(np.int64))
        probes = rng.integers(0, 10_000, 100).astype(np.int64)
        out = device_lower_bound(haystack, probes, recorder)
        assert np.array_equal(out, np.searchsorted(haystack, probes, side="left"))


class TestStableArgsort:
    """The packed-index sort must reproduce NumPy's stable argsort exactly."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_duplicate_heavy_keys())
    def test_matches_numpy_stable_argsort(self, keys):
        order = stable_argsort(keys)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == expected.dtype
        assert np.array_equal(order, expected)

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_packable_keys_take_the_packed_path(self, dtype, rng):
        keys = rng.integers(0, 50, 1000).astype(dtype)
        assert _sorted_index_words(keys) is not None
        order = stable_argsort(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    def test_negative_key_falls_back(self):
        keys = np.array([3, -1, 3, 0, -1, 2], dtype=np.int64)
        assert _sorted_index_words(keys) is None
        order = stable_argsort(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert order.tolist() == [1, 4, 3, 5, 0, 2]

    def test_keys_too_wide_for_the_index_bits_fall_back(self, rng):
        # 1000 keys need 10 index bits; a 55-bit key leaves only 54 for it.
        keys = rng.integers(0, 2, 1000).astype(np.uint64) << np.uint64(53)
        keys[::7] = np.uint64(1) << np.uint64(54)
        assert _sorted_index_words(keys) is None
        order = stable_argsort(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        # One bit narrower fits exactly: 54 key bits + 10 index bits = 64.
        keys[::7] = np.uint64(1) << np.uint64(53)
        assert _sorted_index_words(keys) is not None
        order = stable_argsort(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("packable", [True, False])
    def test_sort_by_key_results_and_events(self, packable, recorder, rng):
        high = 1000 if packable else 2**63
        keys = rng.integers(0, high, 3000, dtype=np.uint64)
        keys[1::2] = keys[::2]  # every key appears at least twice
        assert (_sorted_index_words(keys) is not None) == packable
        values = np.arange(keys.size)
        sorted_keys, sorted_values = device_sort_by_key(keys, values, recorder)
        order = np.argsort(keys, kind="stable")
        assert sorted_keys.dtype == keys.dtype
        assert np.array_equal(sorted_keys, keys[order])
        assert np.array_equal(sorted_values, order)
        nbytes = keys.size * (keys.itemsize + values.itemsize)
        assert recorder.total == KernelStats(
            coalesced_bytes_read=nbytes * RADIX_SORT_PASSES,
            coalesced_bytes_written=nbytes * RADIX_SORT_PASSES,
            items_sorted=keys.size,
            kernel_launches=RADIX_SORT_PASSES,
        )

    @pytest.mark.parametrize("packable", [True, False])
    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_sort_by_key_without_values_returns_the_order(self, packable, n, rng):
        """``values=None`` hands back the stable permutation, charged as an
        ``np.arange(n)`` value array."""
        high = 1000 if packable else 2**63
        keys = rng.integers(0, high, n, dtype=np.uint64)
        keys[1::2] = keys[::2][: n // 2]  # duplicates exercise stability
        ref, out = StatsRecorder(), StatsRecorder()
        ref_keys, ref_order = device_sort_by_key(keys, np.arange(n), ref)
        out_keys, out_order = device_sort_by_key(keys, recorder=out)
        assert np.array_equal(out_keys, ref_keys)
        assert np.array_equal(out_order, ref_order)
        assert out_order.dtype == np.int64
        assert out.total == ref.total
