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
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...gpusim.kernel import KernelContext, bulk_region_launch
from ...gpusim.sorting import device_sort_by_key, stable_argsort
from ...gpusim.stats import StatsRecorder
from ..base import FilterCapabilities
from ..exceptions import FilterFullError
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

    # --------------------------------------------------------------- bulk insert
    def _sorted_batch(
        self, keys: np.ndarray, *extra: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Hash a batch and sort it by full fingerprint (Thrust sort).

        Returns the sort permutation, then the sorted quotients, remainders
        and ``extra`` arrays.  The sort key is the p-bit fingerprint itself,
        built in uint64 — ``quotient * 2^r + remainder`` in a signed int64
        would overflow once ``q + r >= 63``, silently mis-sorting wide
        geometries.
        """
        quotients, remainders = self._hash_batch(keys)
        sort_keys = self.scheme.join(quotients, remainders)
        _sorted, order = device_sort_by_key(
            sort_keys, np.arange(keys.size), self.recorder
        )
        return (order, quotients[order], remainders[order]) + tuple(a[order] for a in extra)

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """Insert a batch with the two-phase even-odd lock-free scheme.

        ``values`` are interpreted as per-key counts when given (count of 0
        is bumped to 1), so the same entry point serves plain insertion,
        counting and value association.  Returns the number of items
        inserted (distinct keys under map-reduce); raises the
        :class:`FilterFullError` that stopped the phases once the table is
        full, with every item that fitted placed.

        The whole sorted batch goes to the core as one vectorised merge that
        writes the table once, with the even and odd phases as its charging
        schedule; batches too small to amortise the whole-table decode (see
        :meth:`QuotientFilterCore.prefers_sequential`) take the per-item
        path, phase by phase.
        """
        items, _missed, error = self._insert(np.asarray(keys, dtype=np.uint64), values)
        if error is not None:
            raise error
        return int(items.size)

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The same insert as :meth:`bulk_insert`, reported per key.

        True at position ``i`` means ``keys[i]`` was counted; a full table
        leaves the rest False instead of raising.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        items, missed, _error = self._insert(keys, values)
        mask = np.ones(keys.size, dtype=bool)
        if missed.size:
            if self.use_mapreduce:
                lost = np.zeros(items.size, dtype=bool)
                lost[missed] = True
                mask = ~lost[np.searchsorted(items, keys)]
            else:
                mask[missed] = False
        return mask

    def _insert(
        self, keys: np.ndarray, values: Optional[Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[FilterFullError]]:
        """The one bulk insert: aggregate, hash, sort and run the phases.

        Returns the inserted items' keys (the distinct keys under
        map-reduce, else ``keys``), the indices of the items left out, and
        the :class:`FilterFullError` that left them out (None when every
        item landed).
        """
        if values is not None:
            counts = np.maximum(1, np.asarray(values, dtype=np.int64))
        else:
            counts = np.ones(keys.size, dtype=np.int64)
        if keys.size == 0:
            return keys, np.zeros(0, dtype=np.int64), None

        if self.use_mapreduce:
            unique_keys, agg_counts = aggregate_batch(keys, self.recorder)
            if values is not None:
                # Aggregate the explicit counts as well (sorted by key).
                order = stable_argsort(keys)
                sorted_keys = keys[order]
                sorted_counts = counts[order]
                boundaries = np.searchsorted(sorted_keys, unique_keys, side="left")
                agg_counts = np.add.reduceat(sorted_counts, boundaries)
            keys, counts = unique_keys, agg_counts.astype(np.int64)

        self._maybe_grow()
        order, quotients, remainders, counts = self._sorted_batch(keys, counts)
        done, error = self._phased_insert(quotients, remainders, counts)
        return keys, order[~done], error

    def _phases(self, quotients: np.ndarray, op: str) -> List[Phase]:
        """The even-odd schedule of a sorted batch.

        One ``(row_mask, kernel launch)`` pair per phase that has regions.
        A launch records nothing until it is entered: the core enters each
        one only after its single write succeeded, and the per-phase loops
        enter them in turn.
        """
        return [
            (
                self.partition.phase_mask(quotients, parity),
                self.kernels.launch(f"gqf_bulk_{op}_{name}", bulk_region_launch(len(regions))),
            )
            for parity, (name, regions) in enumerate(zip(("even", "odd"), self.partition.phases()))
            if regions
        ]

    def _phased_insert(
        self, quotients: np.ndarray, remainders: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, Optional[FilterFullError]]:
        """Run the even-odd insertion phases over fingerprint-sorted items.

        Returns which items landed and the :class:`FilterFullError` that
        stopped the phases (None when all of them did).  A batch large
        enough for the vectorised path makes one core call: the table is
        written once, and the phases are the schedule by which its events
        are charged, each inside its own kernel launch.  If the whole batch
        does not fit, the phases run one call each, so the even phase still
        lands before the odd one overflows.  On overflow with
        ``auto_resize`` enabled, the not-yet-inserted items are re-split
        under the grown geometry and the phases restart — exact, because
        each canonical merge is all-or-nothing.
        """
        vectorised = not self.core.prefers_sequential(int(quotients.size))
        if vectorised:
            try:
                self.core.insert_sorted_batch(
                    quotients, remainders, counts, phases=self._phases(quotients, "insert")
                )
                return np.ones(quotients.size, dtype=bool), None
            except FilterFullError:
                pass
        done = np.zeros(quotients.size, dtype=bool)
        try:
            for mask, launch in self._phases(quotients, "insert"):
                with launch:
                    if vectorised and mask.any():
                        try:
                            self.core.insert_sorted_batch(
                                quotients[mask], remainders[mask], counts[mask]
                            )
                            done |= mask
                            continue
                        except FilterFullError:
                            if self._can_grow():
                                return self._grow_and_reinsert(
                                    quotients, remainders, counts, done
                                ), None
                            # The merge is all-or-nothing; replay the phase
                            # per item so an over-capacity batch still fills
                            # the table (the benchmark fill loops measure the
                            # filter at capacity).
                    for i in np.flatnonzero(mask & ~done):
                        try:
                            self.core.insert_fingerprint(
                                int(quotients[i]), int(remainders[i]), int(counts[i])
                            )
                        except FilterFullError:
                            if not self._can_grow():
                                raise
                            return self._grow_and_reinsert(
                                quotients, remainders, counts, done
                            ), None
                        done[i] = True
        except FilterFullError as exc:
            # Raised through the launch, which therefore records no kernel.
            return done, exc
        return done, None

    def _grow_and_reinsert(
        self,
        quotients: np.ndarray,
        remainders: np.ndarray,
        counts: np.ndarray,
        done: np.ndarray,
    ) -> np.ndarray:
        """Grow, re-split the pending items, and restart the phases.

        Marks the items that land in ``done`` and returns it; re-raises the
        error that stops the restarted phases.
        """
        pending = np.flatnonzero(~done)
        fingerprints = self.scheme.join(quotients[pending], remainders[pending])
        pending_counts = counts[pending]
        self._grow()
        new_quotients, new_remainders = self.scheme.split(fingerprints)
        placed, error = self._phased_insert(
            np.asarray(new_quotients, dtype=np.int64),
            np.asarray(new_remainders, dtype=np.uint64),
            pending_counts,
        )
        done[pending[placed]] = True
        if error is not None:
            raise error
        return done

    # ---------------------------------------------------------------- bulk query
    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("gqf_bulk_query", bulk_region_launch(self.partition.n_regions)):
            counts = self.core.batch_counts(quotients, remainders)
        return counts > 0

    def bulk_count(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        quotients, remainders = self._hash_batch(keys)
        with self.kernels.launch("gqf_bulk_count", bulk_region_launch(self.partition.n_regions)):
            counts = self.core.batch_counts(quotients, remainders)
        return counts

    # ---------------------------------------------------------------- bulk delete
    def bulk_delete(self, keys: Sequence[int]) -> int:
        """Delete a batch using the same sorted even-odd scheme.

        A vectorised delete is one core call: one subtraction and one
        re-canonicalisation of the table (the left-shifting the paper
        describes for deletes, applied batch-wide), with the even and odd
        phases charged in their own kernel launches.  Small batches delete
        per item, phase by phase.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        _order, quotients, remainders = self._sorted_batch(keys)
        # Reversed rows: a per-item delete takes the largest items
        # (quotients) first, as on the device.
        quotients, remainders = quotients[::-1], remainders[::-1]
        return self.core.batch_delete(
            quotients, remainders, phases=self._phases(quotients, "delete")
        )

    # ------------------------------------------------------------------ point API
    def insert(self, key: int, value: int = 0) -> bool:
        """Single-item convenience wrapper over :meth:`bulk_insert`."""
        return self.bulk_insert(np.array([key], dtype=np.uint64),
                                np.array([max(1, value)], dtype=np.int64)) == 1

    def delete(self, key: int) -> bool:
        return self.bulk_delete(np.array([key], dtype=np.uint64)) == 1

    # ------------------------------------------------------------------ resize
    def _grow(self, extra_quotient_bits: int = 1) -> None:
        """Extend the quotient in place (the auto-resize step)."""
        self.core = self.core.extended(extra_quotient_bits, name="bulk-gqf-slots")
        self.partition = RegionPartition(
            self.core.n_canonical_slots, self.partition.region_slots
        )
        self.n_resizes += extra_quotient_bits

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
        ``auto_resize=False``; the sharding layer rebalances from the parent
        process instead.
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

    # ---------------------------------------------------------------- analysis
    def active_threads_for(self, n_ops: int) -> int:
        """Bulk kernels map one thread per (half of the) regions per phase."""
        return max(1, self.partition.n_regions // 2)
