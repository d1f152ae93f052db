"""Tests for the count-distribution samplers."""

import numpy as np
import pytest

from repro.workloads.distributions import (
    sample_zipfian_ranks,
    uniform_counts,
    zipfian_counts,
    zipfian_weights,
)


class TestZipfianWeights:
    def test_normalised(self):
        weights = zipfian_weights(1000, 1.5)
        assert weights.sum() == pytest.approx(1.0)
        assert weights.size == 1000

    def test_monotone_decreasing(self):
        weights = zipfian_weights(100, 1.5)
        assert np.all(np.diff(weights) <= 0)

    def test_head_mass_for_coefficient_1_5(self):
        """Zipf(1.5): the top item holds roughly 1/zeta(1.5) ~ 38 % of the mass."""
        weights = zipfian_weights(100_000, 1.5)
        assert 0.3 < weights[0] < 0.45

    def test_validation(self):
        with pytest.raises(ValueError):
            zipfian_weights(0)
        with pytest.raises(ValueError):
            zipfian_weights(10, 0)


class TestSampling:
    def test_ranks_in_range(self):
        ranks = sample_zipfian_ranks(1000, 50, seed=1)
        assert ranks.min() >= 0 and ranks.max() < 50

    def test_rank_zero_dominates(self):
        ranks = sample_zipfian_ranks(10_000, 1000, 1.5, seed=2)
        top_fraction = np.mean(ranks == 0)
        assert top_fraction > 0.25

    def test_deterministic(self):
        a = sample_zipfian_ranks(100, 50, seed=3)
        b = sample_zipfian_ranks(100, 50, seed=3)
        assert np.array_equal(a, b)

    def test_zipfian_counts_sum(self):
        counts = zipfian_counts(1000, 1000, seed=4)
        assert counts.sum() == 1000
        assert counts.size == 1000

    def test_uniform_counts_range(self):
        counts = uniform_counts(500, 1, 100, seed=5)
        assert counts.min() >= 1 and counts.max() <= 100
        assert counts.size == 500

    def test_uniform_counts_validation(self):
        with pytest.raises(ValueError):
            uniform_counts(0)
        with pytest.raises(ValueError):
            uniform_counts(10, 5, 2)


def _top_share(counts):
    """Fraction of the total mass held by the top 1 % of items."""
    counts = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    return counts[: max(1, counts.size // 100)].sum() / counts.sum()


class TestSkewness:
    def test_zipfian_more_skewed_than_uniform(self):
        zipf = zipfian_counts(2000, 2000, seed=6)
        uniform = uniform_counts(2000, seed=6)
        assert _top_share(zipf) > 3 * _top_share(uniform)
