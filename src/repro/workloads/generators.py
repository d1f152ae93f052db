"""Microbenchmark workload generators (paper Section 6 setup).

The paper's microbenchmarks generate 64-bit input items from the hashed
output of a cuRand XORWOW generator, fill each filter to its maximum
recommended load factor, query the inserted items ("positive queries") and a
disjoint set generated with a different seed ("random queries").  The
counting benchmarks add datasets whose item counts follow uniform-random and
Zipfian distributions.

:class:`Workload` bundles an insert set, a positive-query set and a
random-query set; :class:`CountingDataset` expands a (distinct items, counts)
description into the flat insertion stream the GQF receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hashing.xorwow import generate_keys
from . import distributions


@dataclass
class Workload:
    """Insert / positive-query / random-query key sets for one benchmark run."""

    insert_keys: np.ndarray
    positive_queries: np.ndarray
    random_queries: np.ndarray
    name: str = "uniform"

    @property
    def n_items(self) -> int:
        return int(self.insert_keys.size)


def uniform_workload(
    n_items: int,
    n_queries: Optional[int] = None,
    seed: int = 0xC0FFEE,
) -> Workload:
    """The paper's standard microbenchmark workload.

    Insert keys come from one XORWOW stream; random (negative) queries come
    from a stream with a different seed; positive queries re-use the inserted
    keys (shuffled, as a query batch would arrive).
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    n_queries = n_queries if n_queries is not None else n_items
    insert_keys = generate_keys(n_items, seed)
    rng = np.random.default_rng(seed ^ 0x5A5A5A5A)
    positive = insert_keys[rng.permutation(n_items)][:n_queries]
    random_queries = generate_keys(n_queries, seed ^ 0xDEADBEEF)
    return Workload(insert_keys, positive, random_queries, name="uniform")


@dataclass
class CountingDataset:
    """A multiset dataset for the counting benchmarks (Table 5).

    Attributes
    ----------
    name:
        Dataset label ("UR", "UR count", "Zipfian count", "k-mer count").
    keys:
        The flat stream of (possibly repeated) 64-bit items, in insertion
        order.
    distinct_keys:
        The distinct item values.
    counts:
        Count of each distinct item (aligned with ``distinct_keys``).
    """

    name: str
    keys: np.ndarray
    distinct_keys: np.ndarray
    counts: np.ndarray

    @property
    def n_items(self) -> int:
        """Total number of insertions (multiset cardinality)."""
        return int(self.keys.size)

    @property
    def n_distinct(self) -> int:
        return int(self.distinct_keys.size)


def _expand(distinct_keys: np.ndarray, counts: np.ndarray, seed: int) -> np.ndarray:
    """Expand (key, count) pairs into a shuffled flat insertion stream."""
    flat = np.repeat(distinct_keys, counts)
    rng = np.random.default_rng(seed)
    return flat[rng.permutation(flat.size)]


def uniform_random_dataset(n_items: int, seed: int = 1) -> CountingDataset:
    """UR: items drawn uniformly at random — almost no duplicates."""
    keys = generate_keys(n_items, seed)
    distinct, counts = np.unique(keys, return_counts=True)
    return CountingDataset("UR", keys, distinct, counts)


def uniform_count_dataset(
    n_items: int,
    low: int = 1,
    high: int = 100,
    seed: int = 2,
) -> CountingDataset:
    """UR count: counts drawn uniformly from [1, 100].

    ``n_items`` is the total insertion count; the number of distinct items is
    derived from the mean count so the dataset sums to ~``n_items``.
    """
    mean_count = (low + high) / 2.0
    n_distinct = max(1, int(round(n_items / mean_count)))
    counts = distributions.uniform_counts(n_distinct, low, high, seed)
    # Adjust the sampled counts so the dataset totals ~n_items while every
    # count stays within [low, high].
    while int(counts.sum()) > n_items and counts.max() > low:
        excess = int(counts.sum()) - n_items
        order = np.argsort(counts)[::-1]
        reducible = order[counts[order] > low][:excess]
        if reducible.size == 0:
            break
        counts[reducible] -= 1
    while int(counts.sum()) < n_items and counts.min() < high:
        deficit = n_items - int(counts.sum())
        order = np.argsort(counts)
        growable = order[counts[order] < high][:deficit]
        if growable.size == 0:
            break
        counts[growable] += 1
    distinct = generate_keys(n_distinct, seed ^ 0xABCD)
    keys = _expand(distinct, counts, seed)
    return CountingDataset("UR count", keys, distinct, counts)


def zipfian_count_dataset(
    n_items: int,
    coefficient: float = 1.5,
    seed: int = 3,
) -> CountingDataset:
    """Zipfian count: counts from Zipf(1.5) over a universe of ``n_items`` items."""
    counts_full = distributions.zipfian_counts(n_items, n_items, coefficient, seed)
    nonzero = counts_full > 0
    counts = counts_full[nonzero]
    distinct = generate_keys(int(nonzero.sum()), seed ^ 0x1234)
    keys = _expand(distinct, counts, seed)
    return CountingDataset("Zipfian count", keys, distinct, counts)
