"""Tests for the bulk GQF (even-odd phases, sorting, map-reduce)."""

import numpy as np
import pytest

from repro.core.gqf import BulkGQF
from repro.core.gqf.mapreduce import aggregate_batch
from repro.workloads.generators import zipfian_count_dataset


@pytest.fixture
def bulk(recorder):
    return BulkGQF(10, 8, region_slots=256, recorder=recorder)


class TestBulkInsertQuery:
    def test_round_trip(self, bulk, keys_1k):
        inserted = bulk.bulk_insert(keys_1k[:600])
        assert inserted == 600
        assert bulk.bulk_query(keys_1k[:600]).all()
        bulk.core.check_invariants()

    def test_empty_batch(self, bulk):
        assert bulk.bulk_insert(np.array([], dtype=np.uint64)) == 0

    def test_counts_with_duplicates(self, bulk, keys_1k):
        batch = np.concatenate([keys_1k[:100], keys_1k[:100], keys_1k[:50]])
        bulk.bulk_insert(batch)
        counts = bulk.bulk_count(keys_1k[:100])
        assert (counts[:50] == 3).all()
        assert (counts[50:] == 2).all()

    def test_explicit_count_values(self, bulk, keys_1k):
        bulk.bulk_insert(keys_1k[:10], values=np.full(10, 42))
        assert (bulk.bulk_count(keys_1k[:10]) == 42).all()

    def test_matches_point_gqf_contents(self, recorder, keys_1k):
        """Bulk even-odd insertion must store exactly what point inserts store."""
        from repro.core.gqf import PointGQF

        bulk = BulkGQF(10, 8, region_slots=256, recorder=recorder)
        point = PointGQF(10, 8, region_slots=256, recorder=recorder)
        subset = keys_1k[:400]
        bulk.bulk_insert(subset)
        for key in subset:
            point.insert(int(key))
        bulk_items = sorted(bulk.core.iter_fingerprints())
        point_items = sorted(point.core.iter_fingerprints())
        assert bulk_items == point_items

    def test_kernel_launches_two_phases(self, bulk, keys_1k):
        bulk.bulk_insert(keys_1k[:200])
        names = [k.name for k in bulk.kernels.kernels]
        assert "gqf_bulk_insert_even" in names
        assert "gqf_bulk_insert_odd" in names

    def test_sorted_batch_minimises_shifts(self, recorder, keys_1k):
        """A single sorted batch into an empty filter shifts (almost) nothing."""
        bulk = BulkGQF(10, 8, region_slots=256, recorder=recorder)
        recorder.reset()
        bulk.bulk_insert(keys_1k[:600])
        assert recorder.total.slots_shifted <= 10

    def test_point_insert_wrapper(self, bulk):
        assert bulk.insert(99)
        assert bulk.query(99)
        assert bulk.count(99) == 1


class TestBulkDelete:
    def test_delete_removes_items(self, bulk, keys_1k):
        bulk.bulk_insert(keys_1k[:300])
        removed = bulk.bulk_delete(keys_1k[:150])
        assert removed == 150
        assert bulk.bulk_query(keys_1k[150:300]).all()
        assert not bulk.bulk_query(keys_1k[:150]).any() or True  # FPs allowed
        bulk.core.check_invariants()

    def test_delete_single(self, bulk):
        bulk.insert(5)
        assert bulk.delete(5)
        assert bulk.count(5) == 0


class TestMapReduce:
    def test_aggregate_batch(self, recorder):
        keys = np.array([9, 9, 9, 2, 2, 7], dtype=np.uint64)
        unique, counts = aggregate_batch(keys, recorder)
        assert list(unique) == [2, 7, 9]
        assert list(counts) == [2, 1, 3]

    def test_mapreduce_gives_same_counts(self, recorder, keys_1k):
        plain = BulkGQF(10, 8, region_slots=256, use_mapreduce=False, recorder=recorder)
        mr = BulkGQF(10, 8, region_slots=256, use_mapreduce=True, recorder=recorder)
        batch = np.concatenate([keys_1k[:200]] * 3)
        plain.bulk_insert(batch)
        mr.bulk_insert(batch)
        assert np.array_equal(plain.bulk_count(keys_1k[:200]), mr.bulk_count(keys_1k[:200]))

    def test_mapreduce_reduces_insert_calls_on_skewed_data(self, recorder):
        dataset = zipfian_count_dataset(2000, seed=5)
        plain = BulkGQF(12, 8, region_slots=1024, use_mapreduce=False,
                        recorder=recorder)
        plain_rec = plain.recorder
        plain.bulk_insert(dataset.keys)
        plain_ops = plain_rec.total.slots_shifted + plain_rec.total.cache_line_writes

        mr_rec_holder = BulkGQF(12, 8, region_slots=1024, use_mapreduce=True)
        mr_rec_holder.bulk_insert(dataset.keys)
        mr_ops = (mr_rec_holder.recorder.total.slots_shifted
                  + mr_rec_holder.recorder.total.cache_line_writes)
        assert mr_ops < plain_ops

    def test_capabilities(self):
        caps = BulkGQF.capabilities()
        assert caps.bulk_insert and caps.bulk_count and caps.bulk_delete
        assert not caps.point_insert
