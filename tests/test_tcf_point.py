"""Tests for the point TCF."""

import pytest

from repro.core.exceptions import FilterFullError, UnsupportedOperationError
from repro.core.tcf import PointTCF, TCFConfig


@pytest.fixture
def tcf(recorder):
    return PointTCF.for_capacity(2000, recorder=recorder)


class TestBasicOperations:
    def test_empty_filter(self, tcf):
        assert tcf.n_items == 0
        assert tcf.load_factor == 0.0
        assert not tcf.query(42)
        assert 42 not in tcf

    def test_insert_query(self, tcf, keys_1k):
        for key in keys_1k:
            assert tcf.insert(int(key))
        assert tcf.n_items == keys_1k.size
        for key in keys_1k:
            assert tcf.query(int(key))

    def test_no_false_negatives_at_high_load(self, recorder, keys_4k):
        tcf = PointTCF.for_capacity(4600, recorder=recorder)
        inserted = []
        for key in keys_4k:
            if tcf.load_factor >= 0.9:
                break
            tcf.insert(int(key))
            inserted.append(int(key))
        assert all(tcf.query(k) for k in inserted)

    def test_false_positive_rate_near_design(self, recorder, keys_4k, negative_keys_1k):
        tcf = PointTCF.for_capacity(4600, recorder=recorder)
        for key in keys_4k:
            tcf.insert(int(key))
        fp = sum(tcf.query(int(k)) for k in negative_keys_1k) / negative_keys_1k.size
        # Design rate is ~0.05 %, allow generous sampling slack.
        assert fp <= 10 * tcf.false_positive_rate + 0.005

    def test_delete_removes_membership(self, tcf, keys_1k):
        for key in keys_1k[:100]:
            tcf.insert(int(key))
        for key in keys_1k[:50]:
            assert tcf.delete(int(key))
        assert tcf.n_items == 50
        for key in keys_1k[50:100]:
            assert tcf.query(int(key))

    def test_delete_absent_returns_false(self, tcf):
        assert not tcf.delete(987654321)

    def test_count_unsupported(self, tcf):
        with pytest.raises(UnsupportedOperationError):
            tcf.count(1)

    def test_len_and_contains(self, tcf):
        tcf.insert(7)
        assert len(tcf) == 1
        assert 7 in tcf


class TestValues:
    def test_value_round_trip(self, recorder):
        config = TCFConfig(fingerprint_bits=16, block_size=16, value_bits=4)
        tcf = PointTCF.for_capacity(500, config, recorder)
        tcf.insert(1234, value=9)
        assert tcf.get_value(1234) == 9
        assert tcf.get_value(9999) is None

    def test_value_defaults_to_zero(self, tcf):
        tcf.insert(5)
        assert tcf.get_value(5) == 0


class TestLoadFactorAndBacking:
    def test_reaches_90_percent_load(self, recorder, keys_4k):
        tcf = PointTCF.for_capacity(3600, recorder=recorder)
        target = int(tcf.table.n_slots * 0.9)
        for key in keys_4k[:target]:
            tcf.insert(int(key))
        assert tcf.load_factor >= 0.89

    def test_backing_table_absorbs_small_fraction(self, recorder, keys_4k):
        tcf = PointTCF.for_capacity(3600, recorder=recorder)
        for key in keys_4k[: int(tcf.table.n_slots * 0.9)]:
            tcf.insert(int(key))
        # The paper reports < 1 % of items landing in the backing store.
        assert tcf.backing.n_items / tcf.n_items < 0.02

    def test_filter_full_raises(self, recorder):
        tcf = PointTCF(64, recorder=recorder)
        with pytest.raises(FilterFullError):
            for i in range(10_000):
                tcf.insert(i * 0x9E3779B97F4A7C15 + 1)

    def test_block_fills_balanced_by_potc(self, recorder, keys_4k):
        tcf = PointTCF.for_capacity(3600, recorder=recorder)
        for key in keys_4k[:3000]:
            tcf.insert(int(key))
        fills = tcf.block_fills()
        assert fills.max() <= tcf.config.block_size
        # POTC keeps the minimum fill from lagging arbitrarily far behind.
        assert fills.min() >= fills.mean() - 8


class TestAccounting:
    def test_insert_touches_at_most_two_lines_plus_cas(self, tcf, recorder, keys_1k):
        recorder.reset()
        n = 200
        for key in keys_1k[:n]:
            tcf.insert(int(key))
        per_op = recorder.total.cache_line_reads / n
        assert per_op <= 2.5  # primary block (+ secondary when not shortcut)

    def test_shortcut_skips_secondary_block_at_low_load(self, tcf, recorder, keys_1k):
        recorder.reset()
        for key in keys_1k[:50]:
            tcf.insert(int(key))
        # At near-zero load every insert should take the shortcut: one block
        # read per insert (plus negligible retries).
        assert recorder.total.cache_line_reads <= 60

    def test_positive_query_cost(self, tcf, recorder, keys_1k):
        for key in keys_1k[:200]:
            tcf.insert(int(key))
        recorder.reset()
        for key in keys_1k[:200]:
            tcf.query(int(key))
        assert recorder.total.cache_line_reads / 200 <= 2.5

    def test_negative_query_probes_backing(self, tcf, recorder, keys_1k, negative_keys_1k):
        for key in keys_1k[:200]:
            tcf.insert(int(key))
        recorder.reset()
        for key in negative_keys_1k[:100]:
            tcf.query(int(key))
        # Negative queries must check both blocks and at least one backing
        # bucket (the worst-case cost the paper discusses).
        assert recorder.total.cache_line_reads / 100 >= 3.0

    def test_delete_uses_single_cas(self, tcf, recorder, keys_1k):
        for key in keys_1k[:100]:
            tcf.insert(int(key))
        recorder.reset()
        for key in keys_1k[:100]:
            tcf.delete(int(key))
        # One CAS per successful delete (plus block loads).
        assert recorder.total.atomic_ops <= 150


class TestBulkWrappers:
    def test_bulk_insert_and_query(self, tcf, keys_1k):
        inserted = tcf.bulk_insert(keys_1k[:500])
        assert inserted == 500
        assert tcf.bulk_query(keys_1k[:500]).all()

    def test_bulk_delete(self, tcf, keys_1k):
        tcf.bulk_insert(keys_1k[:100])
        removed = tcf.bulk_delete(keys_1k[:100])
        assert removed == 100

    def test_kernel_launches_recorded(self, tcf, keys_1k):
        tcf.bulk_insert(keys_1k[:10])
        assert any(k.name == "tcf_point_bulk_insert" for k in tcf.kernels.kernels)


class TestSizingHelpers:
    def test_for_capacity_allows_requested_items(self, recorder, keys_1k):
        tcf = PointTCF.for_capacity(1000, recorder=recorder)
        assert tcf.capacity >= 900

    def test_nominal_nbytes_close_to_actual(self, recorder):
        tcf = PointTCF(4096, recorder=recorder)
        nominal = PointTCF.nominal_nbytes(4096)
        assert abs(nominal - tcf.nbytes) / tcf.nbytes < 0.2

    def test_capabilities(self):
        caps = PointTCF.capabilities()
        assert caps.point_insert and caps.point_delete
        assert not caps.point_count
        assert caps.values

    def test_invalid_size(self, recorder):
        with pytest.raises(ValueError):
            PointTCF(0, recorder=recorder)
