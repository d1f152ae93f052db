"""Tests for the GQF-based GPU k-mer counter (Squeakr-on-GPU)."""

import pytest

from repro.apps.kmer_counter import GPUKmerCounter
from repro.workloads import kmer as kmer_mod


@pytest.fixture
def read_set():
    genome = kmer_mod.random_genome(1200, seed=21)
    return kmer_mod.generate_reads(genome, 80, 5.0, error_rate=0.005, seed=21)


class TestGPUKmerCounter:
    def test_counts_never_underreported(self, read_set):
        counter = GPUKmerCounter(expected_kmers=20_000, k=21)
        counter.count_reads(read_set)
        kmers = kmer_mod.extract_kmers(read_set, 21)
        distinct, truth = kmer_mod.kmer_spectrum(kmers)
        for kmer_value, true_count in zip(distinct[:500], truth[:500]):
            assert counter.count(int(kmer_value)) >= int(true_count)

    def test_report_statistics(self, read_set):
        counter = GPUKmerCounter(expected_kmers=20_000, k=21)
        report = counter.count_reads(read_set)
        assert report.n_reads == read_set.n_reads
        assert report.n_kmers > 0
        assert report.n_distinct <= report.n_kmers
        assert 0.0 <= report.singleton_fraction <= 1.0
        assert 0.0 < report.filter_load_factor < 1.0

    def test_heavy_hitters(self, read_set):
        counter = GPUKmerCounter(expected_kmers=20_000, k=21)
        counter.count_reads(read_set)
        kmers = kmer_mod.extract_kmers(read_set, 21)
        distinct, counts = kmer_mod.kmer_spectrum(kmers)
        frequent = distinct[counts >= 3]
        hits = counter.heavy_hitters(frequent[:50].tolist(), threshold=3)
        assert len(hits) == min(50, frequent.size)

    def test_singleton_exclusion_mode(self, read_set):
        plain = GPUKmerCounter(expected_kmers=20_000, k=21, exclude_singletons=False)
        filtered = GPUKmerCounter(expected_kmers=20_000, k=21, exclude_singletons=True)
        plain.count_reads(read_set)
        filtered.count_reads(read_set)
        # The filtered counter stores fewer distinct items in the GQF.
        assert filtered.gqf.n_items < plain.gqf.n_items
        # But non-singleton k-mers keep full counts.
        kmers = kmer_mod.extract_kmers(read_set, 21)
        distinct, counts = kmer_mod.kmer_spectrum(kmers)
        repeated = distinct[counts >= 2][:100]
        truth = counts[counts >= 2][:100]
        for kmer_value, true_count in zip(repeated, truth):
            assert filtered.count(int(kmer_value)) >= int(true_count)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            GPUKmerCounter(expected_kmers=100, k=0)
        with pytest.raises(ValueError):
            GPUKmerCounter(expected_kmers=100, k=40)
