"""Tests for the Geil et al. SQF and RSQF baselines."""

import pytest

from repro.baselines.rsqf import RankSelectQuotientFilter
from repro.baselines.sqf import StandardQuotientFilter
from repro.core.exceptions import CapacityLimitError, UnsupportedOperationError


class TestSQF:
    def test_bulk_round_trip(self, recorder, keys_1k):
        sqf = StandardQuotientFilter(12, 5, recorder)
        sqf.bulk_insert(keys_1k)
        assert sqf.bulk_query(keys_1k).all()

    def test_fp_rate_matches_5_bit_remainder(self, recorder, keys_4k, negative_keys_1k):
        """Table 2: the SQF's 5-bit remainders give ~1.2 % false positives."""
        sqf = StandardQuotientFilter(13, 5, recorder)
        sqf.bulk_insert(keys_4k)
        measured = sqf.bulk_query(negative_keys_1k).mean()
        assert 0.001 < measured < 0.06
        assert sqf.false_positive_rate == pytest.approx(2**-5)

    def test_bulk_delete(self, recorder, keys_1k):
        sqf = StandardQuotientFilter(12, 5, recorder)
        sqf.bulk_insert(keys_1k[:500])
        assert sqf.bulk_delete(keys_1k[:200]) == 200
        assert sqf.bulk_query(keys_1k[200:500]).all()

    def test_point_api_unsupported(self, recorder):
        sqf = StandardQuotientFilter(10, 5, recorder)
        with pytest.raises(UnsupportedOperationError):
            sqf.insert(1)
        with pytest.raises(UnsupportedOperationError):
            sqf.delete(1)
        with pytest.raises(UnsupportedOperationError):
            sqf.count(1)

    def test_remainder_width_restricted(self, recorder):
        with pytest.raises(CapacityLimitError):
            StandardQuotientFilter(10, 8, recorder)
        StandardQuotientFilter(10, 13, recorder)  # allowed

    def test_capacity_limit_at_2_26(self, recorder):
        """q + r must stay below 32 bits: 2^26 slots max with 5-bit remainders."""
        assert StandardQuotientFilter.max_quotient_bits(5) == 26
        assert StandardQuotientFilter.max_quotient_bits(13) == 18
        with pytest.raises(CapacityLimitError):
            StandardQuotientFilter(27, 5, recorder)
        with pytest.raises(CapacityLimitError):
            StandardQuotientFilter(19, 13, recorder)

    def test_sorting_recorded_for_bulk_insert(self, recorder, keys_1k):
        sqf = StandardQuotientFilter(12, 5, recorder)
        recorder.reset()
        sqf.bulk_insert(keys_1k[:500])
        assert recorder.total.items_sorted >= 500

    def test_capabilities_match_paper_row(self):
        caps = StandardQuotientFilter.capabilities()
        assert caps.bulk_insert and caps.bulk_query and caps.bulk_delete
        assert not caps.point_insert and not caps.bulk_count

    def test_space_is_one_packed_word_per_slot(self, recorder):
        sqf = StandardQuotientFilter(12, 5, recorder)
        assert sqf.nbytes == pytest.approx(sqf.core.total_slots, rel=0.01)  # 1 byte/slot


class TestRSQF:
    def test_bulk_round_trip(self, recorder, keys_1k):
        rsqf = RankSelectQuotientFilter(12, 5, recorder)
        rsqf.bulk_insert(keys_1k)
        assert rsqf.bulk_query(keys_1k).all()

    def test_no_deletes(self, recorder, keys_1k):
        rsqf = RankSelectQuotientFilter(12, 5, recorder)
        rsqf.bulk_insert(keys_1k[:10])
        with pytest.raises(UnsupportedOperationError):
            rsqf.bulk_delete(keys_1k[:10])
        with pytest.raises(UnsupportedOperationError):
            rsqf.delete(int(keys_1k[0]))

    def test_no_point_api_or_counting(self, recorder):
        rsqf = RankSelectQuotientFilter(10, 5, recorder)
        with pytest.raises(UnsupportedOperationError):
            rsqf.insert(1)
        with pytest.raises(UnsupportedOperationError):
            rsqf.count(1)

    def test_capacity_limit(self, recorder):
        with pytest.raises(CapacityLimitError):
            RankSelectQuotientFilter(27, 5, recorder)
        with pytest.raises(CapacityLimitError):
            RankSelectQuotientFilter(10, 8, recorder)

    def test_serialised_insert_geometry(self, recorder, keys_1k):
        """The unoptimised insert exposes a single worker (paper: ~8 M/s)."""
        rsqf = RankSelectQuotientFilter(12, 5, recorder)
        rsqf.bulk_insert(keys_1k[:100])
        insert_kernels = [k for k in rsqf.kernels.kernels if "insert" in k.name]
        assert insert_kernels
        assert all(k.config.n_work_items == 1 for k in insert_kernels)

    def test_space_is_denser_than_sqf(self, recorder):
        """Table 2: RSQF at 7.87 BPI vs SQF at 9.7 BPI."""
        sqf = StandardQuotientFilter(12, 5, recorder)
        rsqf = RankSelectQuotientFilter(12, 5, recorder)
        assert rsqf.nbytes < sqf.nbytes

    def test_capabilities_match_paper_row(self):
        caps = RankSelectQuotientFilter.capabilities()
        assert caps.bulk_insert and caps.bulk_query
        assert not caps.bulk_delete and not caps.bulk_count
