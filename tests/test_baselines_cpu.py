"""Tests for the CPU CQF and VQF baselines (Table 4)."""

import pytest

from repro.baselines.cpu_cqf import KNL_THREADS, CPUCountingQuotientFilter
from repro.baselines.cpu_vqf import CPUVectorQuotientFilter
from repro.core.exceptions import FilterFullError, UnsupportedOperationError


class TestCPUCQF:
    def test_round_trip_and_counts(self, recorder, keys_1k):
        cqf = CPUCountingQuotientFilter(11, 8, recorder=recorder)
        for key in keys_1k[:500]:
            cqf.insert(int(key))
        assert all(cqf.query(int(k)) for k in keys_1k[:500])
        cqf.insert(int(keys_1k[0]))
        assert cqf.count(int(keys_1k[0])) == 2

    def test_delete(self, recorder, keys_1k):
        cqf = CPUCountingQuotientFilter(10, 8, recorder=recorder)
        cqf.insert(int(keys_1k[0]))
        assert cqf.delete(int(keys_1k[0]))
        assert not cqf.query(int(keys_1k[0]))

    def test_values(self, recorder):
        cqf = CPUCountingQuotientFilter(10, 8, recorder=recorder)
        cqf.insert(77, value=5)
        assert cqf.get_value(77) == 5
        assert cqf.get_value(78) is None

    def test_thread_count_caps_parallelism(self, recorder):
        cqf = CPUCountingQuotientFilter(10, 8, recorder=recorder)
        assert cqf.n_threads == KNL_THREADS

    def test_bulk_wrappers(self, recorder, keys_1k):
        cqf = CPUCountingQuotientFilter(11, 8, recorder=recorder)
        cqf.bulk_insert(keys_1k[:300])
        assert cqf.bulk_query(keys_1k[:300]).all()

    def test_capabilities(self):
        caps = CPUCountingQuotientFilter.capabilities()
        assert caps.point_count and caps.point_delete and caps.values


class TestCPUVQF:
    def test_round_trip(self, recorder, keys_1k):
        vqf = CPUVectorQuotientFilter.for_capacity(2000, recorder=recorder)
        for key in keys_1k:
            vqf.insert(int(key))
        assert all(vqf.query(int(k)) for k in keys_1k)

    def test_delete(self, recorder, keys_1k):
        vqf = CPUVectorQuotientFilter.for_capacity(2000, recorder=recorder)
        vqf.insert(int(keys_1k[0]))
        assert vqf.delete(int(keys_1k[0]))
        assert not vqf.delete(int(keys_1k[0]))

    def test_no_counting_or_values(self, recorder):
        vqf = CPUVectorQuotientFilter.for_capacity(100, recorder=recorder)
        with pytest.raises(UnsupportedOperationError):
            vqf.count(1)
        with pytest.raises(UnsupportedOperationError):
            vqf.get_value(1)
        with pytest.raises(UnsupportedOperationError):
            vqf.insert(1, value=2)

    def test_two_block_structure(self, recorder, keys_1k, negative_keys_1k):
        vqf = CPUVectorQuotientFilter.for_capacity(2000, recorder=recorder)
        for key in keys_1k:
            vqf.insert(int(key))
        fp = sum(vqf.query(int(k)) for k in negative_keys_1k) / negative_keys_1k.size
        # 8-bit fingerprints with 48-slot blocks: ~2*48/256 = 37 % worst-case
        # analytic bound; measured should be well under that at 50 % load.
        assert fp < vqf.false_positive_rate * 1.5

    def test_reaches_high_load_factor(self, recorder, keys_4k):
        vqf = CPUVectorQuotientFilter.for_capacity(3800, recorder=recorder)
        inserted = 0
        try:
            for key in keys_4k:
                vqf.insert(int(key))
                inserted += 1
        except FilterFullError:
            pass
        assert vqf.load_factor > 0.8

    def test_bulk_wrappers(self, recorder, keys_1k):
        vqf = CPUVectorQuotientFilter.for_capacity(2000, recorder=recorder)
        vqf.bulk_insert(keys_1k[:200])
        assert vqf.bulk_query(keys_1k[:200]).all()

    def test_capabilities(self):
        caps = CPUVectorQuotientFilter.capabilities()
        assert caps.point_insert and caps.point_delete and not caps.point_count
