"""Tests for microbenchmark workload generators."""

import numpy as np
import pytest

from repro.workloads.generators import (
    uniform_count_dataset,
    uniform_random_dataset,
    uniform_workload,
    zipfian_count_dataset,
)


class TestUniformWorkload:
    def test_sizes(self):
        wl = uniform_workload(1000, 300)
        assert wl.insert_keys.size == 1000
        assert wl.positive_queries.size == 300
        assert wl.random_queries.size == 300
        assert wl.n_items == 1000

    def test_positive_queries_are_inserted_keys(self):
        wl = uniform_workload(500)
        assert set(wl.positive_queries.tolist()) <= set(wl.insert_keys.tolist())

    def test_random_queries_disjoint_from_inserts(self):
        wl = uniform_workload(2000)
        overlap = set(wl.random_queries.tolist()) & set(wl.insert_keys.tolist())
        assert len(overlap) == 0

    def test_deterministic_by_seed(self):
        a = uniform_workload(100, seed=5)
        b = uniform_workload(100, seed=5)
        assert np.array_equal(a.insert_keys, b.insert_keys)
        assert np.array_equal(a.random_queries, b.random_queries)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            uniform_workload(0)


class TestCountingDatasets:
    def test_uniform_random_has_no_meaningful_duplication(self):
        ds = uniform_random_dataset(5000)
        assert ds.name == "UR"
        assert ds.n_items / ds.n_distinct < 1.01
        assert ds.n_items == 5000

    def test_uniform_count_dataset_counts_in_range(self):
        ds = uniform_count_dataset(5000)
        assert ds.name == "UR count"
        assert ds.counts.min() >= 1
        assert ds.counts.max() <= 100
        assert abs(ds.n_items - 5000) <= 100
        assert 30 < ds.n_items / ds.n_distinct < 70

    def test_zipfian_dataset_is_heavily_skewed(self):
        ds = zipfian_count_dataset(5000)
        assert ds.name == "Zipfian count"
        # The hottest item owns a large share of all insertions.
        assert ds.counts.max() / ds.n_items > 0.2
        assert ds.n_items / ds.n_distinct > 1.5

    def test_counts_align_with_keys(self):
        ds = uniform_count_dataset(2000)
        uniq, counts = np.unique(ds.keys, return_counts=True)
        reconstructed = dict(zip(uniq.tolist(), counts.tolist()))
        declared = dict(zip(ds.distinct_keys.tolist(), ds.counts.tolist()))
        assert reconstructed == declared

    def test_keys_are_shuffled_not_grouped(self):
        ds = uniform_count_dataset(3000, seed=9)
        # If keys were emitted grouped by item, the first 100 entries would
        # contain very few distinct values.
        assert np.unique(ds.keys[:100]).size > 5
