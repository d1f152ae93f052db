"""GPU k-mer counter built on the GQF (a Squeakr-on-GPU).

Squeakr is a CPU k-mer counting system built on the counting quotient
filter.  The paper points out that with the GQF, Squeakr ports directly to
the GPU and counts more than 500 million k-mers per second (Table 5's
"k-mer count" column) — orders of magnitude faster than the CPU system.

:class:`GPUKmerCounter` is that application: reads go in, canonical k-mers
are extracted, optionally pre-filtered for singletons with a TCF (the
MetaHipMer trick), and counted in a bulk GQF using the sorted even-odd
insertion path.  Count queries come back from the same structure, with the
counting filter's one-sided error guarantee (counts are never
under-reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.gqf import BulkGQF
from ..core.tcf import PointTCF
from ..gpusim.sorting import group_ranks, run_first_mask, stable_argsort
from ..gpusim.stats import StatsRecorder
from ..workloads import kmer as kmer_mod


@dataclass
class KmerCountReport:
    """Summary statistics of one counting run."""

    n_reads: int
    n_kmers: int
    n_distinct: int
    n_singletons: int
    filter_load_factor: float

    @property
    def singleton_fraction(self) -> float:
        if self.n_distinct == 0:
            return 0.0
        return self.n_singletons / self.n_distinct


class GPUKmerCounter:
    """Count canonical k-mers of a read set in a GQF.

    Parameters
    ----------
    expected_kmers:
        Expected number of distinct k-mers (sizes the filter).
    k:
        k-mer length (<= 32).
    remainder_bits:
        GQF remainder width; 8 bits gives the ~0.2 % error rate used in the
        paper's counting benchmarks.
    exclude_singletons:
        When True, a TCF pre-filter keeps first-occurrence k-mers out of the
        GQF (the MetaHipMer configuration).
    use_mapreduce:
        Aggregate each batch with sort + reduce_by_key before insertion.
    """

    def __init__(
        self,
        expected_kmers: int,
        k: int = 21,
        remainder_bits: int = 8,
        exclude_singletons: bool = False,
        use_mapreduce: bool = True,
        recorder: Optional[StatsRecorder] = None,
    ) -> None:
        if not 1 <= k <= 32:
            raise ValueError("k must be in [1, 32]")
        self.k = int(k)
        self.recorder = recorder if recorder is not None else StatsRecorder()
        quotient_bits = max(6, int(np.ceil(np.log2(max(64, expected_kmers) / 0.85))))
        self.gqf = BulkGQF(
            quotient_bits,
            remainder_bits,
            region_slots=1024,
            use_mapreduce=use_mapreduce,
            recorder=self.recorder,
        )
        self.exclude_singletons = bool(exclude_singletons)
        self.tcf: Optional[PointTCF] = None
        if exclude_singletons:
            self.tcf = PointTCF.for_capacity(max(64, expected_kmers), recorder=self.recorder)
        self._n_reads = 0
        self._n_kmers = 0

    # ------------------------------------------------------------------ counting
    def count_reads(self, read_set: kmer_mod.ReadSet) -> KmerCountReport:
        """Extract, (optionally) filter and count every k-mer of a read set."""
        kmers = kmer_mod.extract_kmers(read_set, self.k)
        return self.count_kmers(kmers, n_reads=read_set.n_reads)

    def count_kmers(self, kmers: np.ndarray, n_reads: int = 0) -> KmerCountReport:
        """Count a flat k-mer stream (bulk insertion into the GQF)."""
        kmers = np.asarray(kmers, dtype=np.uint64)
        self._n_reads += int(n_reads)
        self._n_kmers += int(kmers.size)
        if self.exclude_singletons and self.tcf is not None:
            self._promote_batch(kmers)
        else:
            self.gqf.bulk_insert(kmers)
        distinct, counts = kmer_mod.kmer_spectrum(kmers)
        return KmerCountReport(
            n_reads=self._n_reads,
            n_kmers=self._n_kmers,
            n_distinct=int(distinct.size),
            n_singletons=int(np.count_nonzero(counts == 1)),
            filter_load_factor=self.gqf.load_factor,
        )

    def _promote_batch(self, kmers: np.ndarray) -> None:
        """Batched two-pass TCF promotion (the per-item loop, vectorised).

        The sequential loop checks each occurrence against the GQF (whose
        counts only change *after* the whole batch, when the promoted
        multiset is bulk-inserted) and then against the TCF (which changes
        *during* the batch as first occurrences are inserted).  The batched
        equivalent therefore resolves the GQF membership and the pre-batch
        TCF membership with whole-batch lookups and reconstructs the
        intra-batch ordering effects positionally: occurrences of one k-mer
        are ranked by a stable sort, the first occurrence of a TCF-new k-mer
        inserts (and promotes nothing), and every other unknown occurrence
        promotes two copies — exactly the multiset the per-item loop builds.
        """
        known = self.gqf.bulk_count(kmers) > 0
        promote = np.zeros(kmers.size, dtype=np.int64)
        promote[known] = 1
        unknown = kmers[~known]
        if unknown.size:
            order = stable_argsort(unknown)
            grouped = unknown[order]
            occ_rank = np.empty(unknown.size, dtype=np.int64)
            occ_rank[order] = group_ranks(grouped)
            firsts = run_first_mask(grouped)
            distinct = grouped[firsts]
            in_tcf = self.tcf.bulk_query(distinct)
            in_tcf_occ = np.empty(unknown.size, dtype=bool)
            in_tcf_occ[order] = in_tcf[np.cumsum(firsts) - 1]
            # Pre-known in the TCF: every occurrence promotes two copies.
            # TCF-new: the first occurrence inserts, the rest promote two.
            promote[~known] = np.where(in_tcf_occ | (occ_rank > 0), 2, 0)
            to_insert = distinct[~in_tcf]
            if to_insert.size:
                self.tcf.bulk_insert(to_insert)
        promoting = promote > 0
        if promoting.any():
            self.gqf.bulk_insert(kmers[promoting], values=promote[promoting])

    # ------------------------------------------------------------------- queries
    def count(self, kmer: int) -> int:
        """Count estimate of a packed k-mer (never an under-count)."""
        return self.gqf.count(int(kmer))

    def heavy_hitters(self, kmers: Sequence[int], threshold: int) -> Dict[int, int]:
        """Return the queried k-mers whose count estimate reaches a threshold."""
        out: Dict[int, int] = {}
        for kmer in kmers:
            count = self.count(int(kmer))
            if count >= threshold:
                out[int(kmer)] = count
        return out
