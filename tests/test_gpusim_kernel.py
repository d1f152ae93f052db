"""Tests for kernel-launch geometry and the kernel context."""

import pytest

from repro.gpusim.kernel import (
    KernelContext,
    LaunchConfig,
    bulk_block_launch,
    bulk_region_launch,
    point_launch,
)
from repro.gpusim.stats import StatsRecorder


class TestLaunchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LaunchConfig(n_work_items=-1)
        with pytest.raises(ValueError):
            LaunchConfig(n_work_items=1, threads_per_item=0)
        with pytest.raises(ValueError):
            LaunchConfig(n_work_items=1, block_size=100)  # not a multiple of 32

    def test_helpers(self):
        cfg = point_launch(10, 4)
        assert (cfg.n_work_items, cfg.threads_per_item) == (10, 4)
        cfg = bulk_region_launch(16)
        assert (cfg.n_work_items, cfg.threads_per_item) == (16, 1)
        cfg = bulk_block_launch(8, 32)
        assert (cfg.n_work_items, cfg.threads_per_item) == (8, 32)


class TestKernelContext:
    def test_launch_scopes_stats(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        with ctx.launch("k1", point_launch(4, 1)):
            rec.add(cache_line_reads=3)
        with ctx.launch("k2", point_launch(2, 1)):
            rec.add(cache_line_reads=1)
        assert len(ctx.kernels) == 2
        assert ctx.kernels[0].stats.cache_line_reads == 3
        assert ctx.kernels[1].stats.cache_line_reads == 1

    def test_launch_counted(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        with ctx.launch("k", point_launch(1, 1)):
            pass
        assert rec.total.kernel_launches == 1
        assert ctx.kernels[0].stats.kernel_launches == 1

    def test_total_stats_aggregates(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        for _ in range(3):
            with ctx.launch("k", point_launch(1, 1)):
                rec.add(atomic_ops=2)
        assert ctx.total_stats.atomic_ops == 6

    def test_kernels_named(self):
        rec = StatsRecorder()
        ctx = KernelContext(rec)
        with ctx.launch("insert_even", bulk_region_launch(2)):
            pass
        with ctx.launch("insert_odd", bulk_region_launch(2)):
            pass
        with ctx.launch("query", point_launch(5, 1)):
            pass
        assert len(ctx.kernels_named("insert")) == 2
