"""Tests for the hardware-event counters and the stats recorder."""

import sys
import threading

from repro.gpusim.kernel import KernelContext
from repro.gpusim.stats import KernelStats, StatsRecorder


class TestKernelStats:
    def test_starts_at_zero(self):
        stats = KernelStats()
        assert stats.cache_line_reads == 0
        assert stats.atomic_ops == 0

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

    def test_reset_clears_everything(self):
        rec = StatsRecorder()
        with rec.section("x"):
            rec.add(cache_line_reads=1)
        rec.reset()
        assert rec.total.cache_line_reads == 0
        assert rec.sections == {}


class TestThreadedRecording:
    """One recorder shared by threads, as the service's workers share one."""

    def test_concurrent_launches_record_exact_totals_and_records(self):
        rec = StatsRecorder()
        contexts = [KernelContext(rec), KernelContext(rec)]
        n_adds = 200_000

        def work(ctx):
            with ctx.launch("k"):
                for _ in range(n_adds):
                    rec.add(instructions=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(ctx,)) for ctx in contexts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert rec.total.instructions == 2 * n_adds
        assert rec.section_stats("kernel:k").instructions == 2 * n_adds
        for ctx in contexts:
            (record,) = ctx.kernels
            assert record.stats.instructions == n_adds
            assert record.stats.kernel_launches == 1

    def test_sections_are_per_thread(self):
        rec = StatsRecorder()
        opened, recorded = threading.Event(), threading.Event()

        def other():
            opened.wait(timeout=60)
            rec.add(atomic_ops=5)
            recorded.set()

        thread = threading.Thread(target=other)
        thread.start()
        with rec.section("mine"):
            opened.set()
            recorded.wait(timeout=60)
            rec.add(atomic_ops=1)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert rec.section_stats("mine").atomic_ops == 1
        assert rec.total.atomic_ops == 6

    def test_captured_events_reach_only_the_caller_that_adds_them(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        captured = []
        with rec.section("phase"), ctx.launch("k"):

            def helper():
                with rec.capture() as events:
                    rec.add(cache_line_reads=3)
                captured.append(events)
                rec.add(cache_line_reads=100)  # the helper's own share

            thread = threading.Thread(target=helper)
            thread.start()
            thread.join(timeout=60)
            assert rec.section_stats("phase").cache_line_reads == 0
            rec.add(**captured[0].as_dict())
            rec.add(cache_line_reads=1)
        assert not thread.is_alive()
        assert rec.section_stats("phase").cache_line_reads == 4
        assert rec.section_stats("kernel:k").cache_line_reads == 4
        assert ctx.kernels[0].stats.cache_line_reads == 4
        assert rec.total.cache_line_reads == 104

    def test_finished_threads_are_folded_into_the_totals(self):
        rec = StatsRecorder()

        def work():
            with rec.section("phase"):
                rec.add(atomic_ops=2)

        for _ in range(5):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
        # Each new thread folds the finished ones' shares in as it registers.
        assert len(rec._shares) <= 2
        assert rec.total.atomic_ops == 10
        assert rec.section_stats("phase").atomic_ops == 10
