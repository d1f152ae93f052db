"""Tests for the bulk TCF."""

import numpy as np
import pytest

from repro.core.exceptions import UnsupportedOperationError
from repro.core.tcf import BulkTCF, TCFConfig


@pytest.fixture
def bulk(recorder):
    return BulkTCF.for_capacity(3000, recorder=recorder)


class TestBulkInsertQuery:
    def test_bulk_insert_then_query_all_found(self, bulk, keys_1k):
        inserted = bulk.bulk_insert(keys_1k)
        assert inserted == keys_1k.size
        assert bulk.bulk_query(keys_1k).all()

    def test_empty_batch(self, bulk):
        assert bulk.bulk_insert(np.array([], dtype=np.uint64)) == 0
        assert bulk.bulk_query(np.array([], dtype=np.uint64)).size == 0

    def test_multiple_batches_accumulate(self, bulk, keys_4k):
        bulk.bulk_insert(keys_4k[:1000])
        bulk.bulk_insert(keys_4k[1000:2000])
        assert bulk.n_items == 2000
        assert bulk.bulk_query(keys_4k[:2000]).all()

    def test_no_false_negatives_at_90_percent_load(self, recorder, keys_4k):
        bulk = BulkTCF.for_capacity(4200, recorder=recorder)
        n = int(bulk.table.n_slots * 0.9)
        bulk.bulk_insert(keys_4k[:n])
        assert bulk.bulk_query(keys_4k[:n]).all()
        assert bulk.load_factor >= 0.85

    def test_false_positive_rate_reasonable(self, recorder, keys_4k, negative_keys_1k):
        bulk = BulkTCF.for_capacity(4200, recorder=recorder)
        bulk.bulk_insert(keys_4k)
        fp = bulk.bulk_query(negative_keys_1k).mean()
        assert fp <= 5 * bulk.false_positive_rate + 0.01

    def test_blocks_stay_sorted(self, bulk, keys_1k):
        bulk.bulk_insert(keys_1k)
        data = bulk.table.rows()
        assert np.all(np.diff(data.astype(np.int64), axis=1) >= 0)

    def test_blocks_stay_sorted_after_bulk_delete(self, bulk, keys_1k):
        """The row invariant (ascending blocks, empties leading) must survive
        batched deletes — the vectorised probes depend on it."""
        bulk.bulk_insert(keys_1k)
        bulk.bulk_delete(keys_1k[::2])
        data = bulk.table.rows()
        assert np.all(np.diff(data.astype(np.int64), axis=1) >= 0)
        assert bulk.bulk_query(keys_1k[1::2]).all()

    def test_point_insert_and_query(self, bulk):
        assert bulk.insert(12345)
        assert bulk.query(12345)
        assert not bulk.query(54321)

    def test_values(self, recorder, keys_1k):
        # A block with 20-bit packed slots fits a cache line at 32 slots.
        config = TCFConfig(fingerprint_bits=16, block_size=32, cg_size=32, value_bits=4)
        bulk = BulkTCF.for_capacity(2000, config, recorder)
        bulk.bulk_insert(keys_1k[:100], np.arange(100, dtype=np.uint64) % 16)
        assert bulk.get_value(int(keys_1k[3])) == 3 % 16

    def test_count_unsupported(self, bulk):
        with pytest.raises(UnsupportedOperationError):
            bulk.count(3)


class TestBulkDelete:
    def test_delete_then_absent(self, bulk, keys_1k):
        bulk.bulk_insert(keys_1k[:200])
        assert bulk.delete(int(keys_1k[0]))
        remaining = bulk.bulk_query(keys_1k[1:200])
        assert remaining.all()
        assert bulk.n_items == 199

    def test_bulk_delete(self, bulk, keys_1k):
        bulk.bulk_insert(keys_1k[:300])
        removed = bulk.bulk_delete(keys_1k[:150])
        assert removed == 150
        assert bulk.bulk_query(keys_1k[150:300]).all()

    def test_delete_absent(self, bulk):
        assert not bulk.delete(424242)


class TestBulkMechanics:
    def test_sort_traffic_recorded(self, bulk, recorder, keys_1k):
        recorder.reset()
        bulk.bulk_insert(keys_1k)
        assert recorder.total.items_sorted >= keys_1k.size
        assert recorder.total.coalesced_bytes_written > 0

    def test_shared_memory_staging_used(self, bulk, recorder, keys_1k):
        recorder.reset()
        bulk.bulk_insert(keys_1k)
        assert recorder.total.shared_memory_accesses > 0

    def test_kernel_launches(self, bulk, keys_1k):
        bulk.bulk_insert(keys_1k)
        names = [k.name for k in bulk.kernels.kernels]
        assert "bulk_tcf_insert_pass1" in names

    def test_overflow_routes_to_secondary_then_backing(self, recorder, keys_4k):
        bulk = BulkTCF.for_capacity(4000, recorder=recorder)
        n = int(bulk.table.n_slots * 0.9)
        bulk.bulk_insert(keys_4k[:n])
        # At 90 % load a handful of items may sit in the backing table but
        # membership must hold for every inserted key.
        assert bulk.bulk_query(keys_4k[:n]).all()
        assert bulk.backing.n_items <= max(20, int(0.02 * n))

    def test_nominal_nbytes_close_to_actual(self, recorder):
        bulk = BulkTCF(8192, recorder=recorder)
        assert abs(BulkTCF.nominal_nbytes(8192) - bulk.nbytes) / bulk.nbytes < 0.2

    def test_capabilities(self):
        caps = BulkTCF.capabilities()
        assert caps.bulk_insert and caps.bulk_delete and not caps.bulk_count
