"""Thrust-like device primitives used by the bulk insertion paths.

The paper's bulk APIs lean on the Thrust library for sorting, reduction and
searching (Sections 4.2 and 5.3-5.4):

* the bulk TCF sorts the input batch so that all keys destined for one block
  arrive together and can be written with one coalesced store;
* the bulk GQF sorts hashes so Robin-Hood shifting within a batch disappears,
  uses successor search (``lower_bound``) to find region-buffer boundaries,
  and uses ``reduce_by_key`` for the map-reduce skew optimisation.

These wrappers provide the same API surface on NumPy arrays and account for
the memory traffic a radix sort / reduction would generate on the GPU so that
the aggregation cost shows up in the modelled bulk throughput.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .stats import GLOBAL_RECORDER, StatsRecorder

#: Number of passes a 64-bit LSD radix sort makes over the data (8 bits per
#: pass).  Each pass reads and writes the full key array once.
RADIX_SORT_PASSES = 8


def _account_sort(
    recorder: StatsRecorder, n: int, itemsize: int, passes: int = RADIX_SORT_PASSES
) -> None:
    """Record the coalesced traffic of a radix sort over ``n`` items."""
    nbytes = n * itemsize
    recorder.add(
        coalesced_bytes_read=nbytes * passes,
        coalesced_bytes_written=nbytes * passes,
        items_sorted=n,
        kernel_launches=passes,
    )


def _sorted_index_words(keys: np.ndarray) -> Optional[Tuple[np.ndarray, np.uint64]]:
    """Sorted ``key << idx_bits | idx`` words of 1-D integer ``keys``.

    Each key is packed with its batch index; a plain (unstable) sort of
    those distinct words orders by key with ties broken by batch index,
    which is exactly a stable sort.  Returns ``(words, idx_bits)``, or
    ``None`` when the keys cannot be packed (non-integer, negative, or key
    bits plus index bits wider than 64).
    """
    n = int(keys.size)
    if keys.dtype.kind not in "ui" or keys.ndim != 1 or n == 0:
        return None
    idx_bits = (n - 1).bit_length()
    if keys.dtype.kind == "i" and int(keys.min()) < 0:
        return None
    if 8 * keys.itemsize + idx_bits > 64 and int(keys.max()).bit_length() + idx_bits > 64:
        return None
    shift = np.uint64(idx_bits)
    words = keys.astype(np.uint64)
    words <<= shift
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    return words, shift


def _take_indices(words: np.ndarray, idx_bits: np.uint64) -> np.ndarray:
    """Mask the batch indices out of sorted index words, in place."""
    words &= (np.uint64(1) << idx_bits) - np.uint64(1)
    return words.view(np.intp)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys, bit for bit.

    The host stand-in for a Thrust radix ``sort_by_key`` over
    ``(key, index)`` pairs: one plain sort of ``key << idx_bits | idx``
    words replaces NumPy's much slower stable sort.  Keys that cannot be
    packed fall back to the stable argsort itself.  Host-side bookkeeping
    only; callers charge device traffic (e.g. via :func:`device_sort_by_key`).
    """
    keys = np.asarray(keys)
    if keys.size < 2:
        return np.arange(keys.size)
    packed = _sorted_index_words(keys)
    if packed is None:
        # audit: ignore[AUD107] - the primitive's own unpackable-key fallback
        return np.argsort(keys, kind="stable")
    return _take_indices(*packed)


def device_sort(
    keys: np.ndarray,
    recorder: Optional[StatsRecorder] = None,
) -> np.ndarray:
    """Sort ``keys`` ascending (thrust::sort), returning a new array.

    Equal values are indistinguishable, so the unstable host sort returns
    the same array a stable one would.
    """
    recorder = recorder if recorder is not None else GLOBAL_RECORDER
    keys = np.asarray(keys)
    _account_sort(recorder, keys.size, keys.itemsize)
    return np.sort(keys)


def device_sort_by_key(
    keys: np.ndarray,
    values: Optional[np.ndarray] = None,
    recorder: Optional[StatsRecorder] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stably sort ``(keys, values)`` pairs by key (thrust::sort_by_key).

    With ``values=None`` the values are the keys' batch positions, so the
    second result is the sort's stable permutation; it is charged as an
    ``int64`` position array.
    """
    recorder = recorder if recorder is not None else GLOBAL_RECORDER
    keys = np.asarray(keys)
    if values is not None:
        values = np.asarray(values)
        if keys.shape != values.shape:
            raise ValueError("keys and values must have the same shape")
    value_size = np.dtype(np.int64).itemsize if values is None else values.itemsize
    _account_sort(recorder, keys.size, keys.itemsize + value_size)
    packed = _sorted_index_words(keys)
    if packed is None:
        order = stable_argsort(keys)
        sorted_keys = keys[order]
    else:
        # The packed words already hold the sorted keys in their high bits:
        # one shift streams them out instead of a random-access gather.
        words, idx_bits = packed
        sorted_keys = (words >> idx_bits).astype(keys.dtype, copy=False)
        order = _take_indices(words, idx_bits)
    return sorted_keys, order if values is None else values[order]


def device_reduce_by_key(
    keys: np.ndarray,
    values: Optional[np.ndarray] = None,
    recorder: Optional[StatsRecorder] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce consecutive equal keys, summing their values.

    ``keys`` must already be sorted (as after :func:`device_sort`); values
    default to 1, so the common use is turning a sorted key batch into
    ``(unique_key, count)`` pairs — the paper's map-reduce optimisation for
    Zipfian-count datasets.
    """
    recorder = recorder if recorder is not None else GLOBAL_RECORDER
    keys = np.asarray(keys)
    if values is None:
        values = np.ones(keys.shape, dtype=np.int64)
    values = np.asarray(values)
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same shape")
    nbytes = keys.nbytes + values.nbytes
    recorder.add(
        coalesced_bytes_read=nbytes,
        coalesced_bytes_written=nbytes,
        items_reduced=int(keys.size),
        kernel_launches=1,
    )
    if keys.size == 0:
        return keys.copy(), values.copy()
    boundaries = run_first_mask(keys)
    group_ids = np.cumsum(boundaries) - 1
    unique_keys = keys[boundaries]
    sums = np.zeros(unique_keys.size, dtype=values.dtype)
    np.add.at(sums, group_ids, values)
    return unique_keys, sums


def device_lower_bound(
    sorted_keys: np.ndarray,
    probes: np.ndarray,
    recorder: Optional[StatsRecorder] = None,
) -> np.ndarray:
    """Vectorised successor search (thrust::lower_bound).

    For each probe value, returns the index of the first element in
    ``sorted_keys`` that is >= the probe.  The bulk GQF uses this to mark the
    start of each region's buffer inside the sorted input array, avoiding the
    atomics-based buffer sizing described in Section 5.3.
    """
    recorder = recorder if recorder is not None else GLOBAL_RECORDER
    sorted_keys = np.asarray(sorted_keys)
    probes = np.asarray(probes)
    # One binary search per probe: log2(n) random reads each, but reads are
    # mostly cached; account one line per probe as an approximation.
    recorder.add(
        cache_line_reads=int(probes.size),
        instructions=int(probes.size * max(1, int(np.log2(max(2, sorted_keys.size))))),
        kernel_launches=1,
    )
    return np.searchsorted(sorted_keys, probes, side="left")


def run_first_mask(grouped_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run of equal values.

    ``grouped_keys`` must have equal values adjacent (e.g. after a stable
    sort).  Shared boundary primitive for the segment-grouped bulk paths;
    pure index math (kept in registers on the device), so no traffic is
    recorded.
    """
    grouped_keys = np.asarray(grouped_keys)
    first = np.ones(grouped_keys.size, dtype=bool)
    if grouped_keys.size:
        first[1:] = grouped_keys[1:] != grouped_keys[:-1]
    return first


def group_ranks(grouped_keys: np.ndarray) -> np.ndarray:
    """Rank of every element within its run of equal adjacent values.

    ``grouped_keys`` must have equal values adjacent (e.g. after a stable
    sort); the result is ``0, 1, 2, ...`` restarting at each new value.  The
    bulk paths use this to let duplicate requests claim *distinct* slots —
    positional attribution instead of value matching.
    """
    grouped_keys = np.asarray(grouped_keys)
    if grouped_keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    first = run_first_mask(grouped_keys)
    first_idx = np.flatnonzero(first)
    return np.arange(grouped_keys.size) - first_idx[np.cumsum(first) - 1]
