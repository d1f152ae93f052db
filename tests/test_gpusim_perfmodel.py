"""Tests for the roofline-style performance model."""

import pytest

from repro.gpusim.device import A100, V100
from repro.gpusim.perfmodel import estimate_time, scale_stats
from repro.gpusim.stats import KernelStats


def make_stats(**kwargs) -> KernelStats:
    return KernelStats(**kwargs)


class TestScaleStats:
    def test_linear_fields_scale(self):
        stats = make_stats(cache_line_reads=10, atomic_ops=4, operations=2)
        scaled = scale_stats(stats, 3.0)
        assert scaled.cache_line_reads == 30
        assert scaled.atomic_ops == 12

    def test_kernel_launches_do_not_scale(self):
        stats = make_stats(kernel_launches=2)
        scaled = scale_stats(stats, 100.0)
        assert scaled.kernel_launches == 2


class TestEstimateTime:
    def test_zero_ops(self):
        est = estimate_time(make_stats(), 0, V100, 1024, 1024)
        assert est.time_s == 0.0 and est.throughput_ops_per_s == 0.0

    def test_memory_bound_phase(self):
        # 4 random lines per op, no atomics: memory time should dominate.
        stats = make_stats(cache_line_reads=4, operations=1)
        est = estimate_time(stats, 1_000_000, V100, 10**9, 10**6, simulated_ops=1)
        assert est.time_s > 0
        assert est.breakdown["memory_time_s"] > est.breakdown["atomic_time_s"]
        assert est.breakdown["memory_time_s"] > est.breakdown["compute_time_s"]

    def test_more_lines_means_lower_throughput(self):
        few = estimate_time(make_stats(cache_line_reads=2, operations=1),
                            10**6, V100, 10**9, 10**6, simulated_ops=1)
        many = estimate_time(make_stats(cache_line_reads=8, operations=1),
                             10**6, V100, 10**9, 10**6, simulated_ops=1)
        assert few.throughput_ops_per_s > many.throughput_ops_per_s

    def test_l2_residency_boosts_throughput(self):
        stats = make_stats(cache_line_reads=2, operations=1)
        small = estimate_time(stats, 10**6, V100, V100.l2_bytes // 2, 10**6, simulated_ops=1)
        large = estimate_time(stats, 10**6, V100, V100.l2_bytes * 4, 10**6, simulated_ops=1)
        assert small.throughput_ops_per_s > large.throughput_ops_per_s
        assert small.breakdown["in_l2"] == 1.0
        assert large.breakdown["in_l2"] == 0.0

    def test_a100_faster_than_v100_for_memory_bound(self):
        stats = make_stats(cache_line_reads=2, operations=1)
        cori = estimate_time(stats, 10**6, V100, 10**9, 10**6, simulated_ops=1)
        perlmutter = estimate_time(stats, 10**6, A100, 10**9, 10**6, simulated_ops=1)
        assert perlmutter.throughput_ops_per_s > cori.throughput_ops_per_s

    def test_low_parallelism_reduces_throughput(self):
        stats = make_stats(coalesced_bytes_read=64, operations=1)
        saturated = estimate_time(stats, 10**6, V100, 10**9, 10**6, simulated_ops=1)
        starved = estimate_time(stats, 10**6, V100, 10**9, 32, simulated_ops=1)
        assert saturated.throughput_ops_per_s > starved.throughput_ops_per_s * 5

    def test_lock_serialization_adds_time(self):
        stats = make_stats(cache_line_reads=2, lock_acquisitions=2, operations=1)
        base = estimate_time(stats, 10**6, V100, 10**9, 10**5, simulated_ops=1,
                             lock_serialization=0.0)
        contended = estimate_time(stats, 10**6, V100, 10**9, 10**5, simulated_ops=1,
                                  lock_serialization=32.0)
        assert contended.time_s > base.time_s
        assert contended.breakdown["contention_time_s"] > 0

    def test_cas_retries_penalised(self):
        clean = make_stats(atomic_ops=2, operations=1)
        retried = make_stats(atomic_ops=2, cas_retries=2, operations=1)
        fast = estimate_time(clean, 10**7, V100, 10**9, 10**7, simulated_ops=1)
        slow = estimate_time(retried, 10**7, V100, 10**9, 10**7, simulated_ops=1)
        assert slow.time_s > fast.time_s

    def test_launch_overhead_included(self):
        stats = make_stats(kernel_launches=10, operations=1)
        est = estimate_time(stats, 1, V100, 1024, 1024, simulated_ops=1)
        assert est.breakdown["launch_time_s"] == pytest.approx(
            10 * V100.kernel_launch_overhead_us * 1e-6
        )

    def test_throughput_units(self):
        stats = make_stats(cache_line_reads=1, operations=1)
        est = estimate_time(stats, 10**6, V100, 10**9, 10**6, simulated_ops=1)
        assert est.throughput_bops == pytest.approx(est.throughput_ops_per_s / 1e9)
        assert est.throughput_mops == pytest.approx(est.throughput_ops_per_s / 1e6)
