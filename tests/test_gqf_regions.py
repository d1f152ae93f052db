"""Tests for GQF region partitioning (locking and even-odd phases)."""

import numpy as np
import pytest

from repro.core.gqf.regions import DEFAULT_REGION_SLOTS, RegionPartition


class TestPartitionGeometry:
    def test_defaults_match_paper(self):
        assert DEFAULT_REGION_SLOTS == 8192

    def test_n_regions(self):
        assert RegionPartition(8192 * 4).n_regions == 4
        assert RegionPartition(8192 * 4 + 1).n_regions == 5
        assert RegionPartition(100, 8192).n_regions == 1

    def test_region_bounds(self):
        part = RegionPartition(10_000, 4096)
        assert part.region_bounds(0) == (0, 4096)
        assert part.region_bounds(2) == (8192, 10_000)
        with pytest.raises(IndexError):
            part.region_bounds(3)

    def test_regions_of_vectorised(self):
        part = RegionPartition(8192 * 2)
        regions = part.regions_of(np.array([0, 8191, 8192, 16000]))
        assert list(regions) == [0, 0, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionPartition(0)
        with pytest.raises(ValueError):
            RegionPartition(100, 0)


class TestEvenOddPhases:
    def test_phases_partition_all_regions(self):
        part = RegionPartition(8192 * 7)
        even, odd = part.phases()
        assert sorted(even + odd) == list(range(7))
        assert set(even) & set(odd) == set()

    def test_even_odd_regions_never_adjacent_within_a_phase(self):
        part = RegionPartition(8192 * 10)
        for phase in part.phases():
            gaps = np.diff(phase)
            assert np.all(gaps >= 2)

    def test_phase_threads_are_at_least_two_regions_apart(self):
        """Within one phase, concurrent threads own slots >= ~16K apart."""
        part = RegionPartition(8192 * 8)
        even, _ = part.phases()
        starts = [part.region_bounds(r)[0] for r in even]
        assert np.all(np.diff(starts) >= 2 * 8192)
