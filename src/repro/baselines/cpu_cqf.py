"""CPU counting quotient filter (CQF) baseline for the CPU-vs-GPU comparison.

Table 4 of the paper compares the GPU filters with their CPU ancestors run on
Cori's KNL nodes with 272 hardware threads: the CQF (Pandey et al. 2017) and
the VQF (Pandey et al. 2021).  The CQF's structure is exactly the
:class:`~repro.core.gqf.quotient_filter.QuotientFilter` already used by the GQF —
the difference is the execution substrate: a modest number of CPU threads,
cache-line-granular memory, and per-thread locking for concurrent inserts.

The CPU cost model lives in :mod:`repro.analysis.throughput` and reads its
272 threads from the KNL device description; this class exposes the same
filter API as the GPU filters, so the Table 4 harness treats CPU and GPU
filters uniformly.
"""

from __future__ import annotations

from typing import ContextManager, Optional, Sequence

import numpy as np

from ..core.base import FilterCapabilities
from ..core.gqf.layout import QuotientFilterCore
from ..core.gqf.quotient_filter import QuotientFilter
from ..gpusim.kernel import KernelContext, point_launch
from ..gpusim.stats import StatsRecorder

#: Hardware threads on the Cori KNL nodes used in the paper's Table 4.
KNL_THREADS = 272


class CPUCountingQuotientFilter(QuotientFilter):
    """Multi-threaded CPU counting quotient filter (Table 4 baseline).

    Parameters
    ----------
    quotient_bits, remainder_bits:
        Table geometry; 8-bit remainders match the GQF configuration used in
        the comparison.
    n_threads:
        Worker threads available (272 on KNL).
    recorder:
        Optional stats recorder.
    """

    name = "CQF (CPU)"

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int = 8,
        n_threads: int = KNL_THREADS,
        recorder: Optional[StatsRecorder] = None,
    ) -> None:
        super().__init__(recorder)
        self.core = QuotientFilterCore(
            quotient_bits, remainder_bits, self.recorder, counting=True, name="cpu-cqf-slots"
        )
        self.n_threads = int(n_threads)
        self.kernels = KernelContext(self.recorder)

    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        return FilterCapabilities(
            point_insert=True,
            bulk_insert=True,
            point_query=True,
            bulk_query=True,
            point_delete=True,
            bulk_delete=True,
            point_count=True,
            bulk_count=True,
            values=True,
            resizable=True,
        )

    @classmethod
    def nominal_nbytes(cls, n_slots: int, remainder_bits: int = 8) -> int:
        return int(np.ceil(n_slots * (remainder_bits + 2.125) / 8.0))

    # ------------------------------------------------------------------- sizes
    @property
    def recommended_load_factor(self) -> float:
        return 0.95

    # ------------------------------------------------------------------ point API
    def delete(self, key: int) -> bool:
        return self.core.delete_fingerprint(*self._slot_of(key), 1)

    # ---------------------------------------------------------------- bulk API
    def _insert_kernel(self, n_rows: int) -> ContextManager[object]:
        """Batched insert, one CPU thread per item.

        Batches go in sorted (quotient, remainder) order — the standard
        schedule for batch-building a quotient filter — and record that
        schedule's events, which shift less than the same keys pushed
        through arrival-order point :meth:`insert` calls (the route Table 4
        measures for the CPU filters).
        """
        return self.kernels.launch("cpu_cqf_insert", point_launch(n_rows, 1))

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return out
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("cpu_cqf_query", point_launch(keys.size, 1)):
            out = self.core.batch_counts(quotients, remainders) > 0
        return out

    def bulk_count(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("cpu_cqf_count", point_launch(keys.size, 1)):
            return self.core.batch_counts(quotients, remainders)

    def bulk_delete(self, keys: Sequence[int]) -> int:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("cpu_cqf_delete", point_launch(keys.size, 1)):
            return self.core.batch_delete(quotients, remainders)

    # --------------------------------------------------------------- lifecycle
    def snapshot_config(self) -> dict:
        return {
            "quotient_bits": self.scheme.quotient_bits,
            "remainder_bits": self.scheme.remainder_bits,
            "n_threads": self.n_threads,
        }
