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
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ...gpusim.atomics import SpinLockTable
from ...gpusim.kernel import KernelContext, point_launch
from ...gpusim.sorting import stable_argsort
from ...gpusim.stats import StatsRecorder
from ..base import FilterCapabilities
from ..exceptions import FilterFullError
from .layout import QuotientFilterCore
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
    def insert(self, key: int, value: int = 0) -> bool:
        """Insert one occurrence of ``key``.

        ``value`` (if non-zero) is stored by re-purposing the counter, the
        same mechanism applications like Mantis use with the CQF.
        """
        return self._insert_count(key, max(1, int(value)))

    def insert_count(self, key: int, count: int) -> bool:
        """Insert ``count`` occurrences of ``key`` in one locked operation."""
        return self._insert_count(key, count)

    def _insert_count(self, key: int, count: int) -> bool:
        while True:
            self._maybe_grow()
            quotient, remainder = self._slot_of(key)
            try:
                self._locked_insert(quotient, remainder, count)
                return True
            except FilterFullError:
                if not self._can_grow():
                    raise
                self._grow()

    def _locked_insert(self, quotient: int, remainder: int, count: int) -> None:
        """One point insert under the pair of region locks."""
        lock_a, lock_b = self.partition.locks_for_insert(quotient)
        self.locks.lock(lock_a)
        if lock_b != lock_a:
            self.locks.lock(lock_b)
        try:
            self.core.insert_fingerprint(quotient, remainder, count)
        finally:
            if lock_b != lock_a:
                self.locks.unlock(lock_b)
            self.locks.unlock(lock_a)

    def delete(self, key: int) -> bool:
        quotient, remainder = self._slot_of(key)
        lock_a, lock_b = self.partition.locks_for_insert(quotient)
        self.locks.lock(lock_a)
        if lock_b != lock_a:
            self.locks.lock(lock_b)
        try:
            return self.core.delete_fingerprint(quotient, remainder, 1)
        finally:
            if lock_b != lock_a:
                self.locks.unlock(lock_b)
            self.locks.unlock(lock_a)

    # ---------------------------------------------------------------- bulk API
    def _processing_order(self, quotients: np.ndarray, remainders: np.ndarray) -> np.ndarray:
        """The order in which the simulated schedule serialises point threads.

        A point kernel launches one thread per item and the hardware
        interleaves them arbitrarily; the simulator picks the fingerprint-
        sorted interleaving because it is the one the canonical-layout merge
        can replay with whole-array operations (and, per region, it is the
        shift-free schedule the paper's analysis assumes).  The host-side
        argsort is simulator bookkeeping, not a device sort — no traffic is
        charged for it.  Exposed so the differential tests can drive the
        per-item reference through the identical schedule.
        """
        return stable_argsort(self.scheme.join(quotients, remainders))

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

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """Point-style batched insert (one cooperative thread per item).

        Batches big enough to amortise the whole-table decode are replayed as
        one canonical merge (state identical to the per-item loop; events
        calibrated per input row, exact for fills of distinct fingerprints)
        plus a batched region-lock replay; small batches keep the per-item
        loop.  ``values`` are interpreted as per-key counts, as in the
        per-item :meth:`insert`.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if values is None:
            counts = np.ones(keys.size, dtype=np.int64)
        else:
            counts = np.maximum(1, np.asarray(values, dtype=np.int64))
        with self.kernels.launch("gqf_point_bulk_insert", point_launch(keys.size, 1)):
            if keys.size and not self.core.prefers_sequential(int(keys.size)):
                self._bulk_insert_vectorised(keys, counts)
            else:
                for key, count in zip(keys, counts):
                    self._insert_count(int(key), int(count))
        return int(keys.size)

    def _bulk_insert_vectorised(self, keys: np.ndarray, counts: np.ndarray) -> None:
        while True:
            self._maybe_grow()
            quotients, remainders = self._hash_batch(keys)
            order = self._processing_order(quotients, remainders)
            sq, sr, sc = quotients[order], remainders[order], counts[order]
            try:
                self.core.insert_sorted_batch(sq, sr, sc)
            except FilterFullError:
                # The merge is all-or-nothing, so the table is untouched:
                # grow and retry the whole batch under the new geometry...
                if self._can_grow():
                    self._grow()
                    continue
                # ... or replay the schedule per item so an over-capacity
                # batch still fills the table before raising (the benchmark
                # fill loops catch the error and measure at capacity).
                for i in range(sq.size):
                    self._locked_insert(int(sq[i]), int(sr[i]), int(sc[i]))
                raise  # pragma: no cover - the replay above must raise first
            self._charge_point_locks(sq)
            return

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("gqf_point_bulk_query", point_launch(keys.size, 1)):
            # Queries are lock-free reads, so the batch can run as one
            # vectorised lookup without changing the simulated traffic.
            counts = self.core.batch_counts(quotients, remainders)
        return counts > 0

    def bulk_count(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("gqf_point_bulk_count", point_launch(keys.size, 1)):
            counts = self.core.batch_counts(quotients, remainders)
        return counts

    def bulk_delete(self, keys: Sequence[int]) -> int:
        """Point-style batched delete.

        Large batches run the vectorised cluster re-canonicalisation (state
        and removal counts identical to per-item deletes; cluster traffic
        carries the calibrated approximation documented on
        :meth:`QuotientFilterCore.delete_sorted_batch`) plus the exact
        batched region-lock replay; small batches keep the per-item loop.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        removed = 0
        with self.kernels.launch("gqf_point_bulk_delete", point_launch(keys.size, 1)):
            if keys.size and not self.core.prefers_sequential(int(keys.size)):
                quotients, remainders = self._hash_batch(keys)
                removed = self.core.delete_sorted_batch(quotients, remainders)
                self._charge_point_locks(quotients)
            else:
                for key in keys:
                    if self.delete(int(key)):
                        removed += 1
        return removed

    # ------------------------------------------------------------------ resize
    def _grow(self, extra_quotient_bits: int = 1) -> None:
        """Extend the quotient in place (the auto-resize step).

        The core is rebuilt at ``2**extra_quotient_bits`` times the slots via
        the canonical sorted merge, and the locking partition is re-derived
        for the new table; the filter object itself keeps its identity.
        """
        self.core = self.core.extended(extra_quotient_bits, name="gqf-slots")
        self.partition = RegionPartition(
            self.core.n_canonical_slots, self.partition.region_slots
        )
        self.locks = SpinLockTable(
            self.partition.n_regions + 1, self.recorder, cache_aligned=True
        )
        self.n_resizes += extra_quotient_bits
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

    # ---------------------------------------------------------------- analysis
    def active_threads_for(self, n_ops: int) -> int:
        """Point kernels map one thread per item."""
        return n_ops
