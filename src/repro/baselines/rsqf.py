"""Geil et al.'s rank-select quotient filter (RSQF) on the GPU — baseline.

The RSQF variant replaces the three per-slot metadata bits of the standard
quotient filter with two bit vectors (occupieds/runends) navigated with
rank/select over 64-bit blocks, exactly like the CQF's metadata.  Geil et
al.'s GPU implementation has excellent *query* performance — the metadata is
compact, so small filters fit entirely in L2 — but ships **no optimised
insert kernel**: inserts run essentially serially and top out around 8
million items/s, three orders of magnitude slower than the other filters
(Figure 4).  It also supports neither deletes nor counting and inherits the
SQF's 2^26-item limit.

The reproduction mirrors those properties: the same
:class:`~repro.core.gqf.quotient_filter.QuotientFilter` provides the structure,
queries are bulk and parallel, and the insert path reports a serialised
launch geometry so the performance model reproduces the paper's three-orders
-of-magnitude insert gap.
"""

from __future__ import annotations

from typing import ContextManager, Optional, Sequence

import numpy as np

from ..core.base import FilterCapabilities
from ..core.exceptions import UnsupportedOperationError
from ..core.gqf.layout import QuotientFilterCore
from ..core.gqf.quotient_filter import QuotientFilter
from ..gpusim.kernel import KernelContext, LaunchConfig, point_launch
from ..gpusim.stats import StatsRecorder
from .sqf import check_packed_geometry


class RankSelectQuotientFilter(QuotientFilter):
    """Geil et al.'s GPU rank-select quotient filter (bulk insert/query only).

    Parameters
    ----------
    quotient_bits:
        log2 of the slot count; limited so that ``q + r <= 31``.
    remainder_bits:
        5 or 13 (the RSQF shares the SQF's packing constraints).
    recorder:
        Optional stats recorder.
    """

    name = "RSQF"

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int = 5,
        recorder: Optional[StatsRecorder] = None,
    ) -> None:
        super().__init__(recorder)
        check_packed_geometry("RSQF", quotient_bits, remainder_bits)
        self.core = QuotientFilterCore(
            quotient_bits,
            remainder_bits,
            self.recorder,
            counting=False,
            name="rsqf-slots",
        )
        self.kernels = KernelContext(self.recorder)

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_capacity(
        cls,
        n_items: int,
        remainder_bits: int = 5,
        recorder: Optional[StatsRecorder] = None,
    ) -> "RankSelectQuotientFilter":
        quotient_bits = max(3, int(np.ceil(np.log2(max(8, n_items) / 0.9))))
        return cls(quotient_bits, remainder_bits, recorder)

    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        return FilterCapabilities(
            point_insert=False,
            bulk_insert=True,
            point_query=False,
            bulk_query=True,
            point_delete=False,
            bulk_delete=False,
            point_count=False,
            bulk_count=False,
            values=False,
            resizable=False,
        )

    @classmethod
    def nominal_nbytes(cls, n_slots: int, remainder_bits: int = 5) -> int:
        """Remainder bits + 2.125 metadata bits per slot (RSQF packing)."""
        return int(np.ceil(n_slots * (remainder_bits + 2.125) / 8.0))

    # ---------------------------------------------------------------- bulk API
    def _insert_kernel(self, n_rows: int) -> ContextManager[object]:
        """Unoptimised insert path: items are inserted one after another.

        The authors provide no parallel insert kernel, so the launch exposes
        a single worker; the performance model therefore reports the
        ~8 M items/s ceiling the paper measures — the serialised cost lives
        in the launch geometry, not in Python-loop wall clock.

        The batch is inserted in sorted (quotient, remainder) order — the
        standard schedule for batch-building a quotient filter, which
        removes the order-dependent intra-batch Robin-Hood shifting — and
        both the vectorised merge and the small-batch per-item loop record
        the events of that *sorted* schedule.  An arrival-order insert
        stream would shift more; no sort pass is charged because the
        ordering happens host-side before the serial kernel runs.
        """
        return self.kernels.launch(
            "rsqf_serial_insert", LaunchConfig(n_work_items=1, threads_per_item=32)
        )

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        """Parallel bulk query (one thread per item, rank/select navigation)."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return out
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("rsqf_bulk_query", point_launch(keys.size, 1)):
            out = self.core.batch_counts(quotients, remainders) > 0
        return out

    # ------------------------------------------------------------------ point API
    def insert(self, key: int, value: int = 0) -> bool:
        raise UnsupportedOperationError("the RSQF has no point-insert API (bulk only)")

    def delete(self, key: int) -> bool:
        raise UnsupportedOperationError(
            "the RSQF design could support deletes but the authors do not implement them"
        )

    def count(self, key: int) -> int:
        raise UnsupportedOperationError("the RSQF does not support counting")

    def get_value(self, key: int) -> Optional[int]:
        raise UnsupportedOperationError("the RSQF cannot store values")

    def bulk_delete(self, keys: Sequence[int]) -> int:
        raise UnsupportedOperationError(
            "the RSQF design could support deletes but the authors do not implement them"
        )
