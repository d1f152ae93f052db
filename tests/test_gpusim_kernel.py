"""Tests for the kernel context."""

from repro.gpusim.kernel import KernelContext
from repro.gpusim.stats import StatsRecorder


class TestKernelContext:
    def test_launch_scopes_stats(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        with ctx.launch("k1"):
            rec.add(cache_line_reads=3)
        with ctx.launch("k2"):
            rec.add(cache_line_reads=1)
        assert len(ctx.kernels) == 2
        assert ctx.kernels[0].stats.cache_line_reads == 3
        assert ctx.kernels[1].stats.cache_line_reads == 1

    def test_launch_counted(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        with ctx.launch("k"):
            pass
        assert rec.total.kernel_launches == 1
        assert ctx.kernels[0].stats.kernel_launches == 1

    def test_total_stats_aggregates(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        for _ in range(3):
            with ctx.launch("k"):
                rec.add(atomic_ops=2)
        assert ctx.total_stats.atomic_ops == 6

    def test_kernels_named(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        with ctx.launch("insert_even"):
            pass
        with ctx.launch("insert_odd"):
            pass
        with ctx.launch("query"):
            pass
        assert len(ctx.kernels_named("insert")) == 2
