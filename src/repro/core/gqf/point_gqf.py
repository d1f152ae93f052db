"""Point (device-side, per-item) API of the GPU counting quotient filter.

Every point insert acquires two cache-aligned region locks — the region that
owns the item's canonical slot and the next one — performs the Robin-Hood
insertion (which may shift remainders within the locked window), flushes, and
releases the locks.  Queries and counts are lock-free reads.

Locking is the GQF's dominant point-insert cost: with ~80 K active threads
and only ``n_slots / 8192`` locks, small filters thrash badly (the paper
observes the GPU Bloom filter out-inserting the GQF for exactly this reason).
The simulated thread concurrency is configurable via :meth:`set_concurrency`
so the benchmark harness can expose that contention to the perf model.

Inserts, reads and deletes are the family's
(:class:`~repro.core.gqf.quotient_filter.QuotientFilter`); this class
supplies the insert order (arrival order on the per-item route, fingerprint
order for the merge), its point launches and the region locks of every row
an insert attempt or delete tries, replayed in one batch.
"""

from __future__ import annotations

import contextlib
from typing import ContextManager, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ...gpusim.atomics import SpinLockTable
from ...gpusim.kernel import KernelContext, point_launch
from ...gpusim.stats import StatsRecorder
from ..base import FilterCapabilities
from ..exceptions import FilterFullError
from .layout import Phase, QuotientFilterCore
from .quotient_filter import QuotientFilter
from .regions import DEFAULT_REGION_SLOTS, RegionPartition


class PointGQF(QuotientFilter):
    """GPU counting quotient filter with a device-side point API.

    Parameters
    ----------
    quotient_bits:
        log2 of the number of canonical slots.
    remainder_bits:
        Remainder width; the GQF supports the machine-word-aligned widths
        8, 16 and 32 (8 gives the paper's ~0.19 % false-positive rate).
        64-bit remainders are not offered: the quotient needs at least 3
        bits, so a 64-bit remainder can never fit the 64-bit fingerprint.
    region_slots:
        Locking-region size (8192 in the paper; smaller values are useful for
        unit tests).
    recorder:
        Optional stats recorder.
    auto_resize:
        Grow the filter by quotient extension instead of raising
        :class:`FilterFullError` when an insert finds no space (or when the
        load factor reaches ``auto_resize_at``).  Each growth step doubles
        the slots and costs one remainder bit, so the false-positive rate
        doubles per step; resizing stops (and the error is raised again)
        once the remainder is down to a single bit.
    auto_resize_at:
        Load-factor threshold that triggers a pre-emptive grow, in (0, 1]
        (defaults to the recommended load factor).  Only meaningful with
        ``auto_resize``.
    """

    name = "GQF"
    SUPPORTED_REMAINDERS = (8, 16, 32)

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int = 8,
        region_slots: int = DEFAULT_REGION_SLOTS,
        recorder: Optional[StatsRecorder] = None,
        enforce_alignment: bool = True,
        auto_resize: bool = False,
        auto_resize_at: Optional[float] = None,
    ) -> None:
        super().__init__(recorder)
        if enforce_alignment and remainder_bits not in self.SUPPORTED_REMAINDERS:
            raise ValueError(
                f"the GQF supports word-aligned remainders {self.SUPPORTED_REMAINDERS}, "
                f"got {remainder_bits}"
            )
        self.core = QuotientFilterCore(
            quotient_bits, remainder_bits, self.recorder, counting=True, name="gqf-slots"
        )
        self.partition = RegionPartition(self.core.n_canonical_slots, region_slots)
        self.locks = SpinLockTable(
            self.partition.n_regions + 1,
            self.recorder,
            cache_aligned=True,
        )
        self.kernels = KernelContext(self.recorder)
        self._active_threads = 0
        self._init_growth(auto_resize, auto_resize_at)

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_capacity(
        cls,
        n_items: int,
        remainder_bits: int = 8,
        recorder: Optional[StatsRecorder] = None,
    ) -> "PointGQF":
        quotient_bits = max(3, int(np.ceil(np.log2(max(8, n_items) / 0.95))))
        return cls(quotient_bits, remainder_bits, recorder=recorder)

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
        """Footprint for ``n_slots`` canonical slots without building a filter."""
        bits = n_slots * (remainder_bits + 2.125)
        return int(np.ceil(bits / 8.0))

    # ------------------------------------------------------------------- sizes
    @property
    def nbytes(self) -> int:
        return self.core.nbytes + self.locks.nbytes

    @property
    def recommended_load_factor(self) -> float:
        return 0.95

    # -------------------------------------------------------------- concurrency
    def set_concurrency(self, active_threads: int) -> None:
        """Tell the simulator how many device threads run point ops concurrently.

        Determines the lock-contention probability (threads competing for
        ``n_regions`` locks) that the performance model charges for.
        """
        self._active_threads = max(0, int(active_threads))
        if self._active_threads and self.partition.n_regions:
            per_lock = self._active_threads / self.partition.n_regions
            probability = min(0.95, per_lock / (per_lock + 8.0))
        else:
            probability = 0.0
        self.locks.contention_probability = probability

    @property
    def lock_serialization(self) -> float:
        """Average number of competing threads per lock (for the perf model)."""
        if not self._active_threads:
            return 0.0
        return min(
            64.0, self._active_threads / max(1, self.partition.n_regions)
        )

    # ------------------------------------------------------------------ point API
    def insert_count(self, key: int, count: int) -> bool:
        """Insert ``count`` occurrences of ``key`` in one locked operation."""
        if count <= 0:
            raise ValueError("count must be positive")
        return self.insert(key, count)

    # ---------------------------------------------------------------- bulk API
    def _batch_order(self, fingerprints: np.ndarray) -> np.ndarray:
        """The order in which the simulated schedule serialises point threads.

        A point kernel launches one thread per item and the hardware
        interleaves them arbitrarily.  A batch small enough for the per-item
        route runs in arrival order; a larger one takes
        :meth:`_processing_order`, the interleaving the canonical-layout
        merge replays.
        """
        if self.core.prefers_sequential(int(fingerprints.size)):
            return np.arange(fingerprints.size)
        return super()._batch_order(fingerprints)

    def _processing_order(self, quotients: np.ndarray, remainders: np.ndarray) -> np.ndarray:
        """The fingerprint-sorted interleaving of a batch's point threads.

        The simulator picks it because it is the one the canonical-layout
        merge can replay with whole-array operations (and, per region, it
        is the shift-free schedule the paper's analysis assumes).  The
        host-side argsort is simulator bookkeeping, not a device sort — no
        traffic is charged for it.  Exposed so the differential tests can
        drive the per-item reference through the identical schedule.
        """
        return super()._batch_order(self.scheme.join(quotients, remainders))

    def _charge_point_locks(self, quotients: np.ndarray) -> None:
        """Replay the per-item region-lock traffic for a whole batch.

        Each item acquires the lock of its canonical region and (unless it
        sits in the last region) the next region's lock, then releases both.
        Failure counts come from the same generator stream, consumed in the
        same order, as per-item locking (see
        :meth:`~repro.gpusim.atomics.SpinLockTable.lock_unlock_batch`), so
        the lock counters match the sequential loop exactly at every
        ``set_concurrency`` level.
        """
        regions = self.partition.regions_of(quotients)
        n_calls = int(quotients.size) + int(
            np.count_nonzero(regions < self.partition.n_regions - 1)
        )
        self.locks.lock_unlock_batch(n_calls)

    @contextlib.contextmanager
    def _locked(self, quotients: np.ndarray, kernel: ContextManager[object]) -> Iterator[None]:
        """Run an attempt over ``quotients`` in ``kernel``; when it leaves
        without an error, every row took and released its region locks."""
        with kernel:
            yield
            self._charge_point_locks(quotients)

    def _kernel(self, op: str, n_rows: int) -> ContextManager[object]:
        return self.kernels.launch(f"gqf_point_bulk_{op}", point_launch(n_rows, 1))

    def _phases(self, quotients: np.ndarray, op: str, launch: bool) -> List[Phase]:
        """One phase of every row (one cooperative thread each) under the
        region locks of every row it runs, in the ``op`` kernel (none for
        a point call)."""
        kernel = self._kernel(op, quotients.size) if launch else contextlib.nullcontext()
        return [(np.ones(quotients.size, dtype=bool), self._locked(quotients, kernel))]

    def _place(
        self,
        quotients: np.ndarray,
        remainders: np.ndarray,
        counts: np.ndarray,
        fill: bool,
        launch: bool = True,
    ) -> Tuple[np.ndarray, Optional[FilterFullError]]:
        """One point-style attempt under the region locks of every row it
        tries.

        A batch the core routes to its vectorised path is replayed as one
        canonical merge (state identical to the per-item loop; events
        calibrated per input row, exact for fills of distinct fingerprints)
        plus a batched region-lock replay; a small batch runs per item.
        """
        landed, error = super()._place(quotients, remainders, counts, fill, launch)
        if error is not None:
            # The error left through the launch before the locks were
            # charged.  Every landed row took its locks, and so did the row
            # that overflowed when the per-item route ran (a failed merge
            # tries no row).
            tried = landed.copy()
            if fill or self.core.prefers_sequential(int(quotients.size)):
                tried[np.argmin(landed)] = True
            self._charge_point_locks(quotients[tried])
        return landed, error

    # ------------------------------------------------------------------ growth
    def grow(self, extra_quotient_bits: int = 1) -> None:
        """Extend the quotient in place, then re-derive the locking
        partition and lock table for the new table."""
        super().grow(extra_quotient_bits)
        self.partition = RegionPartition(
            self.core.n_canonical_slots, self.partition.region_slots
        )
        self.locks = SpinLockTable(
            self.partition.n_regions + 1, self.recorder, cache_aligned=True
        )
        if self._active_threads:
            self.set_concurrency(self._active_threads)

    # --------------------------------------------------------------- lifecycle
    def snapshot_config(self) -> Dict[str, object]:
        return {
            "quotient_bits": self.scheme.quotient_bits,
            "remainder_bits": self.scheme.remainder_bits,
            "region_slots": self.partition.region_slots,
            "enforce_alignment": False,
            "auto_resize": self.auto_resize,
            "auto_resize_at": self.auto_resize_at,
        }
