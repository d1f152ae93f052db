"""Map-reduce pre-aggregation for skewed (Zipfian) count distributions.

Skewed datasets make many threads contend on the *same* hot item: the point
API thrashes on its region locks and the bulk API suffers load imbalance
across regions.  Section 5.4 of the paper solves this for the bulk API by a
map-reduce step performed with Thrust: sort the batch, reduce consecutive
duplicates into ``(item, count)`` pairs, and perform a *single* counted
insert per distinct item.

The aggregation itself is embarrassingly parallel and cheap; the gain is that
the quotient filter sees each hot item once with an aggregate count rather
than thousands of times.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ...gpusim.sorting import device_reduce_by_key, device_sort, device_sort_by_key
from ...gpusim.stats import StatsRecorder


def aggregate_batch(
    keys: np.ndarray,
    recorder: Optional[StatsRecorder] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate a batch into (unique keys, counts) via device sort + reduce.

    Returns arrays sorted by key, ready for a counted bulk insert.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size == 0:
        return keys.copy(), np.zeros(0, dtype=np.int64)
    sorted_keys = device_sort(keys, recorder)
    unique_keys, counts = device_reduce_by_key(sorted_keys, None, recorder)
    return unique_keys, counts.astype(np.int64)


def merge_sorted_runs(
    runs: Sequence[np.ndarray],
    counts: Optional[Sequence[Optional[np.ndarray]]] = None,
    recorder: Optional[StatsRecorder] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """k-way merge of sorted fingerprint runs into ``(unique, summed counts)``.

    Each run is an ascending array of fingerprints (one per stored distinct
    item, as a quotient filter's decoded table yields them); ``counts`` gives
    the per-item multiplicities of each run (None means all-ones).  The merge
    is the same device sort + reduce-by-key pipeline the map-reduce insert
    path uses within a batch, applied *across* filters: it is exact, because
    a quotient filter's layout is a pure function of its stored fingerprint
    multiset.  :func:`repro.lifecycle.merge.merge` streams the result into a
    fresh table.
    """
    if counts is None:
        counts = [None] * len(runs)
    if len(counts) != len(runs):
        raise ValueError("runs and counts must have the same length")
    parts = [np.asarray(run, dtype=np.uint64) for run in runs]
    weights = [
        np.ones(part.size, dtype=np.int64)
        if count is None
        else np.asarray(count, dtype=np.int64)
        for part, count in zip(parts, counts)
    ]
    for part, weight in zip(parts, weights):
        if part.shape != weight.shape:
            raise ValueError("each run must align with its counts")
    if not parts:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    all_fps = np.concatenate(parts)
    all_counts = np.concatenate(weights)
    if all_fps.size == 0:
        return all_fps, all_counts
    sorted_fps, sorted_counts = device_sort_by_key(all_fps, all_counts, recorder)
    unique, summed = device_reduce_by_key(sorted_fps, sorted_counts, recorder)
    return unique, summed.astype(np.int64)

