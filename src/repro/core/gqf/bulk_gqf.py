"""Bulk (host-side, batched) API of the GPU counting quotient filter.

The bulk GQF is a coordinated, lock-free insertion scheme (Section 5.3):

1. the batch is hashed and **sorted** (Thrust), which removes all
   intra-batch Robin-Hood shifting — each new remainder lands in the last
   empty slot of its run;
2. per-region buffers are marked with a **successor search** over the sorted
   array instead of atomics;
3. insertion happens in two phases over **even-odd regions**: phase one
   processes all even regions (one thread per region), phase two the odd
   regions.  Threads are therefore always ≥ ~16 K slots apart, farther than
   any cluster can reach, so no locking is required;
4. for skewed count distributions, an optional **map-reduce** pass
   (:mod:`~repro.core.gqf.mapreduce`) collapses duplicates into
   ``(item, count)`` pairs before insertion.

Deletes use the same even-odd phasing (and delete larger runs first), which
is why Figure 6 shows the GQF roughly two orders of magnitude faster than the
SQF for deletions.

The phases exist so device threads never collide; they do not rebuild the
table twice.  Here too they are only an accounting schedule: a vectorised
bulk call writes the table once (one core merge or delete), and the core
charges each phase's simulated events inside that phase's kernel launch,
from the run geometry before and after the phase.

The insert, read and delete themselves — the mask, the raise and the
grow-and-resend loop among them — are the family's
(:class:`~repro.core.gqf.quotient_filter.QuotientFilter`); this class
supplies its hooks: the map-reduce count policy, the device sort (reversed
for deletes), the region-parallel read kernels, and the phase schedule it
hands to :meth:`~repro.core.gqf.layout.QuotientFilterCore.batch_insert`
and ``batch_delete``.  The bulk API has no launch-free call: a point
``insert`` or ``delete`` runs its phases' launches too.
"""

from __future__ import annotations

from typing import ContextManager, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...gpusim.kernel import KernelContext
from ...gpusim.sorting import device_sort_by_key, stable_argsort
from ...gpusim.stats import StatsRecorder
from ..base import FilterCapabilities
from .layout import Phase, QuotientFilterCore
from .mapreduce import aggregate_batch
from .point_gqf import PointGQF
from .quotient_filter import QuotientFilter
from .regions import DEFAULT_REGION_SLOTS, RegionPartition


class BulkGQF(QuotientFilter):
    """GPU counting quotient filter with the lock-free bulk API.

    Parameters
    ----------
    quotient_bits, remainder_bits:
        Table geometry, as for :class:`~repro.core.gqf.point_gqf.PointGQF`.
    region_slots:
        Even-odd region size (8192 in the paper).
    use_mapreduce:
        Aggregate duplicate keys with sort + reduce_by_key before insertion
        (the Zipfian-count optimisation; harmless for uniform data).
    recorder:
        Optional stats recorder.
    auto_resize:
        Grow by quotient extension instead of raising
        :class:`FilterFullError` (see :class:`PointGQF` for the trade-offs).
    auto_resize_at:
        Load-factor threshold for pre-emptive growth, in (0, 1] (defaults
        to the recommended load factor).
    """

    name = "GQF (bulk)"

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int = 8,
        region_slots: int = DEFAULT_REGION_SLOTS,
        use_mapreduce: bool = False,
        recorder: Optional[StatsRecorder] = None,
        enforce_alignment: bool = True,
        auto_resize: bool = False,
        auto_resize_at: Optional[float] = None,
    ) -> None:
        super().__init__(recorder)
        if enforce_alignment and remainder_bits not in PointGQF.SUPPORTED_REMAINDERS:
            raise ValueError(
                f"the GQF supports word-aligned remainders {PointGQF.SUPPORTED_REMAINDERS}, "
                f"got {remainder_bits}"
            )
        self.core = QuotientFilterCore(
            quotient_bits, remainder_bits, self.recorder, counting=True, name="bulk-gqf-slots"
        )
        self.partition = RegionPartition(self.core.n_canonical_slots, region_slots)
        self.use_mapreduce = bool(use_mapreduce)
        self.kernels = KernelContext(self.recorder)
        self._init_growth(auto_resize, auto_resize_at)

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_capacity(
        cls,
        n_items: int,
        remainder_bits: int = 8,
        use_mapreduce: bool = False,
        recorder: Optional[StatsRecorder] = None,
    ) -> "BulkGQF":
        quotient_bits = max(3, int(np.ceil(np.log2(max(8, n_items) / 0.95))))
        return cls(quotient_bits, remainder_bits, use_mapreduce=use_mapreduce, recorder=recorder)

    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        return FilterCapabilities(
            point_insert=False,
            bulk_insert=True,
            point_query=True,
            bulk_query=True,
            point_delete=False,
            bulk_delete=True,
            point_count=True,
            bulk_count=True,
            values=True,
            resizable=True,
        )

    @classmethod
    def nominal_nbytes(cls, n_slots: int, remainder_bits: int = 8) -> int:
        return PointGQF.nominal_nbytes(n_slots, remainder_bits)

    # ------------------------------------------------------------------- sizes
    @property
    def recommended_load_factor(self) -> float:
        return 0.95

    # -------------------------------------------------------------------- hooks
    def _insert_rows(
        self, keys: np.ndarray, values: Optional[Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Counts as for every GQF; under map-reduce the rows are the
        distinct keys, with their occurrences (or explicit counts) summed."""
        keys, counts = super()._insert_rows(keys, values)
        if not self.use_mapreduce or keys.size == 0:
            return keys, counts
        unique_keys, agg_counts = aggregate_batch(keys, self.recorder)
        if values is not None:
            # Aggregate the explicit counts as well (sorted by key).
            order = stable_argsort(keys)
            boundaries = np.searchsorted(keys[order], unique_keys, side="left")
            agg_counts = np.add.reduceat(counts[order], boundaries)
        return unique_keys, agg_counts.astype(np.int64)

    def _batch_order(self, fingerprints: np.ndarray) -> np.ndarray:
        """Sort a batch by full fingerprint on the device (Thrust sort).

        The sort key is the p-bit fingerprint itself, in uint64 —
        ``quotient * 2^r + remainder`` in a signed int64 would overflow
        once ``q + r >= 63``, silently mis-sorting wide geometries.
        """
        return device_sort_by_key(fingerprints, recorder=self.recorder)[1]

    def _rows(self, keys: np.ndarray, op: str) -> Tuple[np.ndarray, np.ndarray]:
        """Deletes run in reversed device-sort order: a per-item delete takes
        the largest items (quotients) first, as on the device."""
        if op != "delete":
            return super()._rows(keys, op)
        fingerprints = self.scheme.hash_key(keys)
        return self.scheme.split(fingerprints[self._batch_order(fingerprints)][::-1])

    def _kernel(self, op: str) -> ContextManager[object]:
        """The read kernels: one launch per call."""
        return self.kernels.launch(f"gqf_bulk_{op}")

    def _phases(self, quotients: np.ndarray, op: str, launch: bool) -> List[Phase]:
        """The even-odd schedule of a sorted batch.

        One ``(row_mask, kernel launch)`` pair per phase that has regions.
        A launch records nothing until it is entered: the core enters each
        one only after its single write succeeded, and the per-phase loops
        enter them in turn.  A vectorised batch writes the table once, with
        the phases as its charging schedule; smaller batches take the
        per-item path, phase by phase.  The bulk API has no launch-free
        call: a point call (``launch`` False) runs these launches too.
        """
        return [
            (
                self.partition.phase_mask(quotients, parity),
                self.kernels.launch(f"gqf_bulk_{op}_{name}"),
            )
            for parity, (name, regions) in enumerate(zip(("even", "odd"), self.partition.phases()))
            if regions
        ]

    # ------------------------------------------------------------------ growth
    def grow(self, extra_quotient_bits: int = 1) -> None:
        """Extend the quotient in place, then re-derive the even-odd
        partition for the new table."""
        super().grow(extra_quotient_bits)
        self.partition = RegionPartition(
            self.core.n_canonical_slots, self.partition.region_slots
        )

    # --------------------------------------------------------------- lifecycle
    def snapshot_config(self) -> Dict[str, object]:
        return {
            "quotient_bits": self.scheme.quotient_bits,
            "remainder_bits": self.scheme.remainder_bits,
            "region_slots": self.partition.region_slots,
            "use_mapreduce": self.use_mapreduce,
            "enforce_alignment": False,
            "auto_resize": self.auto_resize,
            "auto_resize_at": self.auto_resize_at,
        }

    # ------------------------------------------------------------ shared state
    def adopt_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Rebind the table onto shared-memory views (see the core method).

        Adopted filters must not grow in place (growth reallocates the
        table, detaching it from the shared segment), so adoption requires
        ``auto_resize=False``; the sharding layer grows the shard from the
        parent process instead.
        """
        if self.auto_resize:
            raise ValueError(
                "auto-resizing filters cannot adopt shared buffers; "
                "construct the shard with auto_resize=False"
            )
        self.core.adopt_state(state)

    def refresh_shared(self) -> None:
        """Reload scalar counters / drop caches after another process wrote."""
        self.core.refresh_shared()

    def flush_shared(self) -> None:
        """Publish the scalar counters back to the shared segment."""
        self.core.flush_shared()
