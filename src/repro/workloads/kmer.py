"""Synthetic genomic workloads: reads, k-mer extraction and counting input.

Two of the paper's experiments use genomic data that we cannot ship:

* the **k-mer count** row of Table 5 extracts k-mers from a raw sequencing
  file (*M. balbisiana*, from the Squeakr benchmark set) and counts them in
  the GQF;
* the **MetaHipMer** experiment (Table 3) filters singleton k-mers from
  terabyte-scale metagenome read sets with the TCF.

This module substitutes synthetic datasets that exercise the identical code
paths: a reference "genome" is sampled, reads with sequencing errors are
drawn from it with configurable coverage, and k-mers are extracted
canonically (lexicographic minimum of the k-mer and its reverse complement),
2-bit packed into 64-bit integers — the same representation GPU k-mer
pipelines use.  Sequencing errors produce the heavy singleton tail (the
paper: up to ~70 % of distinct k-mers are singletons) that makes the
MetaHipMer TCF filtering worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

@dataclass
class ReadSet:
    """A synthetic sequencing dataset.

    Attributes
    ----------
    reads:
        List of reads, each a uint8 array of 2-bit base codes.
    genome:
        The underlying reference genome (base codes) the reads were drawn
        from — kept so tests can verify k-mer provenance.
    error_rate:
        Per-base substitution error rate used during generation.
    """

    reads: List[np.ndarray]
    genome: np.ndarray
    error_rate: float

    @property
    def n_reads(self) -> int:
        return len(self.reads)


def random_genome(length: int, seed: int = 0) -> np.ndarray:
    """Generate a random reference genome as 2-bit base codes."""
    if length <= 0:
        raise ValueError("length must be positive")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=length, dtype=np.uint8)


def generate_reads(
    genome: np.ndarray,
    read_length: int = 100,
    coverage: float = 10.0,
    error_rate: float = 0.01,
    seed: int = 0,
) -> ReadSet:
    """Sample error-containing reads from a genome at the given coverage.

    Substitution errors create novel k-mers that appear exactly once — the
    singleton k-mers that dominate memory in metagenome assembly and that
    the TCF is used to weed out.
    """
    genome = np.asarray(genome, dtype=np.uint8)
    if read_length > genome.size:
        raise ValueError("read_length longer than the genome")
    if not 0.0 <= error_rate < 1.0:
        raise ValueError("error_rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    n_reads = max(1, int(round(coverage * genome.size / read_length)))
    starts = rng.integers(0, genome.size - read_length + 1, size=n_reads)
    reads: List[np.ndarray] = []
    for start in starts:
        read = genome[start : start + read_length].copy()
        if error_rate > 0.0:
            errors = rng.random(read_length) < error_rate
            if errors.any():
                # Substitute with a *different* base.
                shift = rng.integers(1, 4, size=int(errors.sum())).astype(np.uint8)
                read[errors] = (read[errors] + shift) % 4
        reads.append(read)
    return ReadSet(reads=reads, genome=genome, error_rate=error_rate)


def _pack_windows(codes: np.ndarray, k: int) -> np.ndarray:
    """2-bit-pack every length-``k`` window of a code array (vectorised).

    ``k`` shift-and-or passes over the whole array — no ``(n, k)`` window
    materialisation — with the first base in the most significant position
    (the conventional polynomial packing).
    """
    n = codes.size - k + 1
    out = np.zeros(n, dtype=np.uint64)
    for i in range(k):
        out = (out << np.uint64(2)) | codes[i : i + n]
    return out


def pack_kmers(read: np.ndarray, k: int) -> np.ndarray:
    """Extract all k-mers of a read as 2-bit-packed uint64 values.

    ``k`` must be at most 32 so a k-mer fits in one 64-bit word (the same
    limit GPU k-mer counters impose).
    """
    read = np.asarray(read, dtype=np.uint64)
    if not 1 <= k <= 32:
        raise ValueError("k must be in [1, 32]")
    if read.size < k:
        return np.zeros(0, dtype=np.uint64)
    return _pack_windows(read, k)


def reverse_complement_packed(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement of 2-bit packed k-mers (vectorised)."""
    kmers = np.asarray(kmers, dtype=np.uint64)
    out = np.zeros_like(kmers)
    tmp = kmers.copy()
    for _ in range(k):
        base = tmp & np.uint64(3)
        complement = np.uint64(3) - base
        out = (out << np.uint64(2)) | complement
        tmp >>= np.uint64(2)
    return out


def canonical_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Canonical form: the lexicographic minimum of a k-mer and its RC."""
    kmers = np.asarray(kmers, dtype=np.uint64)
    rc = reverse_complement_packed(kmers, k)
    return np.minimum(kmers, rc)


def extract_kmers(read_set: ReadSet, k: int = 21, canonical: bool = True) -> np.ndarray:
    """All (canonical) k-mers of a read set, concatenated in read order.

    The whole read set is processed as one array: reads are concatenated,
    every window of the concatenation is packed with :func:`_pack_windows`,
    and windows spanning a read boundary are masked out — replacing the
    per-read Python loop with a handful of whole-array operations.  Output
    order (read-major, position-minor) matches the per-read extraction.
    """
    if not 1 <= k <= 32:
        raise ValueError("k must be in [1, 32]")
    reads = read_set.reads
    if not reads:
        return np.zeros(0, dtype=np.uint64)
    lengths = np.array([np.asarray(r).size for r in reads], dtype=np.int64)
    total = int(lengths.sum())
    if total < k:
        return np.zeros(0, dtype=np.uint64)
    cat = np.concatenate([np.asarray(r, dtype=np.uint64) for r in reads])
    n_windows = total - k + 1
    read_id = np.repeat(np.arange(lengths.size), lengths)
    within_read = read_id[:n_windows] == read_id[k - 1 :]
    kmers = _pack_windows(cat, k)[within_read]
    if canonical and kmers.size:
        kmers = canonical_kmers(kmers, k)
    return kmers


def kmer_spectrum(kmers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct k-mers and their multiplicities."""
    return np.unique(np.asarray(kmers, dtype=np.uint64), return_counts=True)


def singleton_fraction(kmers: np.ndarray) -> float:
    """Fraction of *distinct* k-mers that occur exactly once.

    The MetaHipMer experiment relies on this being large (~70 % in real
    metagenomes); the synthetic read generator reaches comparable fractions
    through its sequencing-error model at moderate coverage.
    """
    _, counts = kmer_spectrum(kmers)
    if counts.size == 0:
        return 0.0
    return float(np.count_nonzero(counts == 1) / counts.size)


def kmer_count_dataset(
    n_items: int,
    k: int = 21,
    coverage: float = 8.0,
    error_rate: float = 0.01,
    seed: int = 11,
):
    """A :class:`~repro.workloads.generators.CountingDataset` of k-mers.

    Sized so the flat k-mer stream has roughly ``n_items`` entries; used for
    the "k-mer count" column of Table 5.
    """
    from .generators import CountingDataset

    read_length = 100
    genome_length = max(
        2 * read_length, int(n_items / max(1.0, coverage)) + read_length
    )
    genome = random_genome(genome_length, seed)
    reads = generate_reads(genome, read_length, coverage, error_rate, seed)
    kmers = extract_kmers(reads, k)
    if kmers.size > n_items:
        kmers = kmers[:n_items]
    distinct, counts = kmer_spectrum(kmers)
    return CountingDataset("k-mer count", kmers, distinct, counts)
