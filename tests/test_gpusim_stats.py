"""Tests for the hardware-event counters and the stats recorder."""

import pytest

from repro.gpusim.stats import KernelStats, StatsRecorder


class TestKernelStats:
    def test_starts_at_zero(self):
        stats = KernelStats()
        assert stats.cache_line_reads == 0
        assert stats.atomic_ops == 0
        assert stats.total_bytes_moved == 0

    def test_merge_accumulates_every_field(self):
        a = KernelStats(cache_line_reads=3, atomic_ops=2, slots_shifted=5)
        b = KernelStats(cache_line_reads=1, atomic_ops=7, operations=4)
        a.merge(b)
        assert a.cache_line_reads == 4
        assert a.atomic_ops == 9
        assert a.slots_shifted == 5
        assert a.operations == 4

    def test_add_operator_does_not_mutate(self):
        a = KernelStats(cache_line_reads=3)
        b = KernelStats(cache_line_reads=2)
        c = a + b
        assert c.cache_line_reads == 5
        assert a.cache_line_reads == 3
        assert b.cache_line_reads == 2

    def test_copy_is_independent(self):
        a = KernelStats(cache_line_writes=2)
        b = a.copy()
        b.cache_line_writes += 1
        assert a.cache_line_writes == 2

    def test_reset(self):
        a = KernelStats(cache_line_reads=3, instructions=10)
        a.reset()
        assert a.cache_line_reads == 0
        assert a.instructions == 0

    def test_per_operation_averages(self):
        a = KernelStats(cache_line_reads=10, atomic_ops=20, operations=10)
        per_op = a.per_operation()
        assert per_op["cache_line_reads"] == pytest.approx(1.0)
        assert per_op["atomic_ops"] == pytest.approx(2.0)
        assert "operations" not in per_op

    def test_per_operation_empty_when_no_ops(self):
        assert KernelStats(cache_line_reads=5).per_operation() == {}

    def test_total_bytes(self):
        a = KernelStats(cache_line_reads=2, cache_line_writes=1,
                        coalesced_bytes_read=100, coalesced_bytes_written=50)
        assert a.total_bytes_read == 2 * 128 + 100
        assert a.total_bytes_written == 1 * 128 + 50
        assert a.total_bytes_moved == a.total_bytes_read + a.total_bytes_written

    def test_as_dict_round_trips_fields(self):
        a = KernelStats(slots_shifted=3)
        d = a.as_dict()
        assert d["slots_shifted"] == 3
        assert set(d) >= {"cache_line_reads", "atomic_ops", "operations"}


class TestStatsRecorder:
    def test_add_accumulates_into_total(self):
        rec = StatsRecorder()
        rec.add(cache_line_reads=2, atomic_ops=1)
        rec.add(cache_line_reads=1)
        assert rec.total.cache_line_reads == 3
        assert rec.total.atomic_ops == 1

    def test_sections_scope_events(self):
        rec = StatsRecorder()
        with rec.section("insert"):
            rec.add(cache_line_reads=5)
        with rec.section("query"):
            rec.add(cache_line_reads=2)
        assert rec.section_stats("insert").cache_line_reads == 5
        assert rec.section_stats("query").cache_line_reads == 2
        assert rec.total.cache_line_reads == 7

    def test_reentering_section_accumulates(self):
        rec = StatsRecorder()
        with rec.section("phase"):
            rec.add(atomic_ops=1)
        with rec.section("phase"):
            rec.add(atomic_ops=2)
        assert rec.section_stats("phase").atomic_ops == 3

    def test_nested_sections_both_receive_events(self):
        rec = StatsRecorder()
        with rec.section("outer"):
            with rec.section("inner"):
                rec.add(cache_line_writes=4)
        assert rec.section_stats("outer").cache_line_writes == 4
        assert rec.section_stats("inner").cache_line_writes == 4

    def test_unknown_section_is_empty(self):
        rec = StatsRecorder()
        assert rec.section_stats("nope").cache_line_reads == 0

    def test_add_stats_merges(self):
        rec = StatsRecorder()
        rec.add_stats(KernelStats(slots_shifted=9))
        assert rec.total.slots_shifted == 9

    def test_reset_clears_everything(self):
        rec = StatsRecorder()
        with rec.section("x"):
            rec.add(cache_line_reads=1)
        rec.reset()
        assert rec.total.cache_line_reads == 0
        assert rec.sections == {}
