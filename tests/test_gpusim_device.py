"""Tests for the GPU device specifications."""

import pytest

from repro.gpusim.device import A100, KNL, V100


class TestKnownDevices:
    def test_v100_parameters_match_paper(self):
        assert V100.cuda_cores == 5120
        assert V100.mem_bytes == 16 * 1024**3
        assert V100.max_active_threads == 82_000
        assert V100.system == "cori"

    def test_a100_parameters_match_paper(self):
        assert A100.cuda_cores == 6912
        assert A100.mem_bytes == 40 * 1024**3
        assert A100.max_active_threads == 110_000
        assert A100.system == "perlmutter"

    def test_a100_has_more_bandwidth_than_v100(self):
        assert A100.mem_bandwidth_gbps > V100.mem_bandwidth_gbps

    def test_a100_l2_is_larger_than_v100(self):
        assert A100.l2_bytes > V100.l2_bytes

    def test_cache_line_is_128_bytes_on_gpus(self):
        assert V100.cache_line_bytes == 128
        assert A100.cache_line_bytes == 128

    def test_knl_models_cpu_node(self):
        assert KNL.max_active_threads == 272
        assert KNL.cache_line_bytes == 64


class TestDerivedQuantities:
    def test_bandwidth_in_bytes(self):
        assert V100.mem_bandwidth_bytes_per_s == pytest.approx(900e9)

    def test_l2_bandwidth_exceeds_hbm(self):
        assert V100.l2_bandwidth_bytes_per_s > V100.mem_bandwidth_bytes_per_s

    def test_fits_in_l2(self):
        assert V100.fits_in_l2(1024)
        assert not V100.fits_in_l2(V100.l2_bytes + 1)

    def test_bloom_filter_l2_crossover_matches_paper(self):
        """The paper's BF outlier sizes (2^22 on V100, 2^24 on A100) fit in L2."""
        bf_bytes_22 = int((1 << 22) * 10.1 / 8)
        bf_bytes_24 = int((1 << 24) * 10.1 / 8)
        assert V100.fits_in_l2(bf_bytes_22)
        assert not V100.fits_in_l2(bf_bytes_24)
        assert A100.fits_in_l2(bf_bytes_24)

    def test_saturation_fraction_monotone_and_capped(self):
        low = V100.saturation_fraction(100)
        mid = V100.saturation_fraction(5000)
        high = V100.saturation_fraction(10**7)
        assert 0.0 < low < mid < 1.0
        assert high == 1.0

    def test_saturation_fraction_zero_threads(self):
        assert V100.saturation_fraction(0) == 0.0

    def test_specs_are_frozen(self):
        with pytest.raises(Exception):
            V100.sm_count = 1  # type: ignore[misc]
