"""Tests for the synthetic genomic workloads (reads, k-mers)."""

import numpy as np
import pytest

from repro.workloads import kmer


def _codes(sequence):
    """2-bit base codes of an ACGT string."""
    return np.array(["ACGT".index(base) for base in sequence], dtype=np.uint8)


class TestGenomeAndReads:
    def test_random_genome(self):
        genome = kmer.random_genome(1000, seed=1)
        assert genome.size == 1000
        assert genome.min() >= 0 and genome.max() <= 3

    def test_reads_cover_genome(self):
        genome = kmer.random_genome(2000, seed=2)
        reads = kmer.generate_reads(genome, read_length=100, coverage=5.0, seed=2)
        assert reads.n_reads == 100  # coverage * genome / read_length
        assert all(r.size == 100 for r in reads.reads)

    def test_error_rate_zero_reads_match_genome(self):
        genome = kmer.random_genome(500, seed=3)
        reads = kmer.generate_reads(genome, 50, 2.0, error_rate=0.0, seed=3)
        for read in reads.reads[:5]:
            # Every error-free read must appear verbatim somewhere in the genome.
            found = any(
                np.array_equal(genome[i : i + 50], read)
                for i in range(genome.size - 50 + 1)
            )
            assert found

    def test_validation(self):
        genome = kmer.random_genome(100)
        with pytest.raises(ValueError):
            kmer.generate_reads(genome, read_length=200)
        with pytest.raises(ValueError):
            kmer.generate_reads(genome, 50, error_rate=1.5)
        with pytest.raises(ValueError):
            kmer.random_genome(0)


class TestKmerPacking:
    def test_pack_kmers_count(self):
        read = _codes("ACGTACGTAC")
        kmers = kmer.pack_kmers(read, 4)
        assert kmers.size == 10 - 4 + 1

    def test_pack_kmers_values_unique_per_sequence(self):
        a = kmer.pack_kmers(_codes("AAAA"), 4)[0]
        b = kmer.pack_kmers(_codes("AAAC"), 4)[0]
        assert a != b

    def test_pack_respects_k_limit(self):
        read = kmer.random_genome(100)
        with pytest.raises(ValueError):
            kmer.pack_kmers(read, 33)

    def test_short_read_gives_no_kmers(self):
        assert kmer.pack_kmers(kmer.random_genome(5), 10).size == 0

    def test_reverse_complement_is_involution(self):
        read = kmer.random_genome(200, seed=4)
        kmers = kmer.pack_kmers(read, 21)
        rc = kmer.reverse_complement_packed(kmers, 21)
        rc_rc = kmer.reverse_complement_packed(rc, 21)
        assert np.array_equal(rc_rc, kmers)

    def test_reverse_complement_known_value(self):
        # ACGT reverse-complemented is itself (palindrome).
        packed = kmer.pack_kmers(_codes("ACGT"), 4)
        rc = kmer.reverse_complement_packed(packed, 4)
        assert int(rc[0]) == int(packed[0])

    def test_canonical_kmers_invariant_under_rc(self):
        read = kmer.random_genome(300, seed=5)
        kmers = kmer.pack_kmers(read, 15)
        canon = kmer.canonical_kmers(kmers, 15)
        canon_of_rc = kmer.canonical_kmers(kmer.reverse_complement_packed(kmers, 15), 15)
        assert np.array_equal(canon, canon_of_rc)


class TestSpectrum:
    def test_extract_and_spectrum(self):
        genome = kmer.random_genome(1000, seed=6)
        reads = kmer.generate_reads(genome, 100, 4.0, error_rate=0.0, seed=6)
        kmers = kmer.extract_kmers(reads, 21)
        distinct, counts = kmer.kmer_spectrum(kmers)
        assert counts.sum() == kmers.size
        assert distinct.size == np.unique(kmers).size

    def test_errors_create_singletons(self):
        genome = kmer.random_genome(2000, seed=7)
        clean = kmer.generate_reads(genome, 100, 8.0, error_rate=0.0, seed=7)
        noisy = kmer.generate_reads(genome, 100, 8.0, error_rate=0.02, seed=7)
        assert kmer.singleton_fraction(kmer.extract_kmers(noisy, 21)) > \
            kmer.singleton_fraction(kmer.extract_kmers(clean, 21))

    def test_singleton_fraction_reaches_metagenome_levels(self):
        """With sequencing errors the singleton share approaches the ~70 %
        the paper reports for real metagenomes."""
        genome = kmer.random_genome(3000, seed=8)
        reads = kmer.generate_reads(genome, 100, 6.0, error_rate=0.015, seed=8)
        fraction = kmer.singleton_fraction(kmer.extract_kmers(reads, 21))
        assert fraction > 0.3

    def test_kmer_count_dataset(self):
        ds = kmer.kmer_count_dataset(4000, seed=9)
        assert ds.name == "k-mer count"
        assert ds.n_items <= 4000
        assert ds.counts.sum() == ds.n_items
        assert ds.n_items >= ds.n_distinct

    def test_empty_spectrum(self):
        assert kmer.singleton_fraction(np.array([], dtype=np.uint64)) == 0.0
