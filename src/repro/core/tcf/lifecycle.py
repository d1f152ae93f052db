"""The TCF family: one base for the point and bulk Two-Choice Filters.

:class:`TwoChoiceFilter` holds what :class:`~repro.core.tcf.point_tcf.PointTCF`
and :class:`~repro.core.tcf.bulk_tcf.BulkTCF` share — the two-candidate-block
table, the backing table, sizes, hashing and slot-word packing, the one
insert loop (:meth:`TwoChoiceFilter._insert_with_growth`), the point and
bulk delete with their journal rule, journaled in-place growth (``grow``)
and snapshots.  Each design supplies its kernels: ``_place_batch`` (one
insert attempt over a batch), ``_delete_once`` and ``_delete_batch`` (the
table deletes), the bulk query, and its point API; two class constants name
its default configuration and its device-array prefix.  The point TCF's
batched kernels are the table's two-choice replays
(:class:`~repro.core.tcf.block.BlockedTable`), which the CPU VQF baseline
shares; the bulk TCF keeps its sorted-row kernels.

Resizing needs a journal.  The TCF's power-of-two-choice addressing is *not*
invertible: the stored fingerprint ``((h1 >> 17) ^ (h2 << 3)) & mask``
cannot be mapped back to the key, so — unlike the quotient filters, whose
tables can be rehashed from the stored fingerprints alone — a TCF cannot
rebuild itself at a new geometry from its own slots.  When resizing is
requested (``auto_resize=True``) the filter therefore keeps a host-side
*journal*: a :class:`KeyJournal` of append-only, capacity-doubling
``uint64`` key and value arrays, appended in bulk on insert and pruned by
one vectorised pass per delete batch.  Growing the filter builds a fresh
table at twice the slot count and bulk-inserts the journal through the
normal (event-charged) insert path, so resize cost shows up honestly in the
simulated hardware counters.

A filter writes its own journal only while it grows itself
(``auto_resize=True``).  A shard of a
:class:`~repro.sharding.sharded.ShardedFilter` also holds a journal, on
its parent-process twin, but never grows itself: the sharded filter writes
that journal from its dispatch results and grows the twin.

The delete rule is one line: every delete request drops one journaled copy
of the *requested* key, whether or not a slot was found.  It never revives
a deleted key.  Deleting a *false positive* removes another key's stored
slot while that key keeps its journal entry, so a resize can bring back at
most that one phantom item — the same one the false positive already
claimed was present — until the phantom key is itself deleted.  This
mirrors the fundamental limit the paper notes for fingerprint filters
rather than hiding it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...gpusim.kernel import KernelContext
from ...gpusim.sorting import group_ranks, run_first_mask, stable_argsort
from ...gpusim.stats import StatsRecorder
from ...hashing import potc
from ..base import AbstractFilter, FilterCapabilities, restore_array
from ..exceptions import FilterFullError, UnsupportedOperationError
from .backing import BackingTable
from .block import BlockedTable
from .config import TCFConfig

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Odd 64-bit multiplier of the multiply-shift hash ``remove`` screens with.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
#: Screening bitmap slots per distinct removed key (~1/factor false hits).
_SCREEN_FACTOR = 32


class KeyJournal:
    """The (key, value) pairs a resizable TCF holds, in insertion order.

    Two append-only ``uint64`` arrays whose capacity doubles on demand; a
    key inserted twice is journaled twice.  Host-side bookkeeping only, so
    no hardware events are charged.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.uint64)
        self._values = np.empty(0, dtype=np.uint64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append aligned ``keys``/``values`` after every stored entry."""
        keys = np.asarray(keys, dtype=np.uint64)
        n, end = self._size, self._size + keys.size
        if end > self._keys.size:
            capacity = max(end, 2 * self._keys.size)
            for name in ("_keys", "_values"):
                grown = np.empty(capacity, dtype=np.uint64)
                grown[:n] = getattr(self, name)[:n]
                setattr(self, name, grown)
        self._keys[n:end] = keys
        self._values[n:end] = np.asarray(values, dtype=np.uint64)
        self._size = end

    def remove(self, keys: np.ndarray) -> None:
        """Drop the latest stored occurrence of ``keys``, one per request.

        Duplicate requests drop successively older occurrences (LIFO, like
        popping a per-key list); a request with no occurrence left is
        ignored.  One pass over the journal: a multiply-shift hashed bitmap
        of the requested keys screens candidates, an exact ``searchsorted``
        into the sorted unique requests confirms them, and a rank over
        positions in descending order picks each key's newest copies.
        """
        needles = np.sort(np.asarray(keys, dtype=np.uint64))
        n = self._size
        if needles.size == 0 or n == 0:
            return
        first = run_first_mask(needles)
        unique = needles[first]
        wanted = np.diff(np.append(np.flatnonzero(first), needles.size))
        bits = int(_SCREEN_FACTOR * unique.size - 1).bit_length()
        shift = np.uint64(64 - bits)
        bitmap = np.zeros(1 << bits, dtype=bool)
        bitmap[((unique * _HASH_MULTIPLIER) >> shift).view(np.int64)] = True
        stored = self._keys[:n]
        hashed = stored * _HASH_MULTIPLIER
        hashed >>= shift
        pos = np.flatnonzero(bitmap[hashed.view(np.int64)])
        # Probe in key order: a sorted searchsorted walks ``unique`` once.
        candidates = stored[pos]
        by_key = np.argsort(candidates)
        which = np.empty(pos.size, dtype=np.int64)
        which[by_key] = np.searchsorted(unique, candidates[by_key])
        np.minimum(which, unique.size - 1, out=which)
        hit = unique[which] == candidates
        # Newest first: reverse the ascending positions, then group by key.
        pos, which = pos[hit][::-1], which[hit][::-1]
        order = stable_argsort(which)
        which = which[order]
        drop = pos[order][group_ranks(which) < wanted[which]]
        if drop.size:
            # Entries before the oldest dropped one stay where they are.
            lo = int(drop.min())
            keep = np.ones(n - lo, dtype=bool)
            keep[drop - lo] = False
            self._size = lo + int(np.count_nonzero(keep))
            self._keys[lo : self._size] = stored[lo:][keep]
            self._values[lo : self._size] = self._values[lo:n][keep]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the stored (keys, values), in insertion order."""
        return self._keys[: self._size].copy(), self._values[: self._size].copy()


class TwoChoiceFilter(AbstractFilter):
    """Base of the two TCF designs: one table layout, two insert kernels.

    Parameters
    ----------
    n_slots:
        Requested number of main-table slots; rounded up to whole blocks.
    config:
        TCF configuration (fingerprint bits, block size, CG size, ...);
        defaults to the subclass's ``DEFAULT_CONFIG``.
    recorder:
        Optional stats recorder (a fresh one is created if omitted).
    auto_resize:
        Keep a host-side key journal and double-and-rehash the table instead
        of raising :class:`FilterFullError` (see this module's docstring for
        why the journal is needed).
    auto_resize_at:
        Load factor that triggers a pre-emptive grow (defaults to the
        config's ``max_load_factor``).
    """

    #: The configuration used when none is given.
    DEFAULT_CONFIG: TCFConfig
    #: Prefix of the device-array names (``<prefix>-table``, ``<prefix>-backing``).
    ARRAY_PREFIX: str

    def __init__(
        self,
        n_slots: int,
        config: Optional[TCFConfig] = None,
        recorder: Optional[StatsRecorder] = None,
        auto_resize: bool = False,
        auto_resize_at: Optional[float] = None,
    ) -> None:
        super().__init__(recorder)
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        config = self.DEFAULT_CONFIG if config is None else config
        self.config = config
        n_blocks = max(2, (int(n_slots) + config.block_size - 1) // config.block_size)
        self.table = BlockedTable(
            n_blocks, config, self.recorder, name=f"{self.ARRAY_PREFIX}-table"
        )
        n_backing_buckets = max(
            1,
            int(np.ceil(self.table.n_slots * config.backing_fraction / BackingTable.BUCKET_WIDTH)),
        )
        self.backing = BackingTable(
            n_backing_buckets, config, self.recorder, name=f"{self.ARRAY_PREFIX}-backing"
        )
        self._n_items = 0
        self.kernels = KernelContext(self.recorder)
        self._init_growth(auto_resize, auto_resize_at)
        #: Inserted (key, value) pairs; exists only when resizing is on.
        self._journal: Optional[KeyJournal] = KeyJournal() if self.auto_resize else None
        #: int64[3] shared-memory view of the scalar counters once the
        #: tables are adopted (:meth:`adopt_state`); None on the heap.
        self._shared_scalars: Optional[np.ndarray] = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_capacity(
        cls,
        n_items: int,
        config: Optional[TCFConfig] = None,
        recorder: Optional[StatsRecorder] = None,
    ) -> "TwoChoiceFilter":
        """Size a filter so that ``n_items`` fit at the recommended load factor."""
        config = cls.DEFAULT_CONFIG if config is None else config
        return cls(int(np.ceil(n_items / config.max_load_factor)), config, recorder)

    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        return FilterCapabilities(
            point_insert=True,
            bulk_insert=True,
            point_query=True,
            bulk_query=True,
            point_delete=True,
            bulk_delete=True,
            point_count=False,
            bulk_count=False,
            values=True,
            resizable=True,
        )

    @classmethod
    def nominal_nbytes(cls, n_slots: int, config: Optional[TCFConfig] = None) -> int:
        """Footprint of a filter with ``n_slots`` slots, without building it.

        Used by the benchmark harness to size the *nominal* structure for the
        performance model while the functional simulation runs on a smaller
        sample.
        """
        config = cls.DEFAULT_CONFIG if config is None else config
        main = (n_slots * config.packed_slot_bits + 7) // 8
        backing = int(np.ceil(n_slots * config.backing_fraction)) * 8
        return main + backing

    # ------------------------------------------------------------------- sizes
    @property
    def capacity(self) -> int:
        return int(self.table.n_slots * self.config.max_load_factor)

    @property
    def n_slots(self) -> int:
        return self.table.n_slots + self.backing.n_slots

    @property
    def nbytes(self) -> int:
        return self.table.nbytes + self.backing.nbytes

    @property
    def n_items(self) -> int:
        return self._n_items

    @property
    def load_factor(self) -> float:
        return self._n_items / self.table.n_slots if self.table.n_slots else 0.0

    @property
    def recommended_load_factor(self) -> float:
        return self.config.max_load_factor

    @property
    def false_positive_rate(self) -> float:
        return self.config.false_positive_rate

    # --------------------------------------------------------------- internals
    def _derive_batch(self, keys: np.ndarray) -> potc.PotcHash:
        return potc.derive(
            keys.astype(np.uint64),
            self.table.n_blocks,
            self.config.fingerprint_bits,
        )

    def _pack_words(self, fingerprints: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Pack (fingerprint, value) pairs into slot words (slot dtype)."""
        vb = self.config.value_bits
        words = (
            (fingerprints.astype(np.uint64) << np.uint64(vb))
            | (values & np.uint64((1 << vb) - 1))
            if vb
            else fingerprints.astype(np.uint64)
        )
        return words.astype(self.config.slot_dtype)

    def block_fills(self) -> np.ndarray:
        """Per-block live-slot counts (for load-variance analysis/tests)."""
        return self.table.fills()

    # ---------------------------------------------------------- point API glue
    def count(self, key: int) -> int:
        raise UnsupportedOperationError("the TCF does not support counting")

    def delete(self, key: int) -> bool:
        """Delete one occurrence of ``key``.

        On a journaled (``auto_resize=True``) filter every point delete also
        scans the whole key journal — O(journal) host work per call; batch
        deletes through ``bulk_delete`` to pay that scan once.
        """
        found = self._delete_once(key)
        self._journal_remove([int(key) & _MASK64])
        return found

    def bulk_delete(self, keys: Sequence[int]) -> int:
        """Delete one stored occurrence per requested key; returns how many
        were found (see :meth:`_delete_batch` of each design)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        removed = self._delete_batch(keys)
        self._journal_remove(keys)
        return removed

    def _delete_once(self, key: int) -> bool:
        """Remove one occurrence of ``key`` from the tables (no journaling).

        Each TCF design implements it with its own delete kernel.
        """
        raise NotImplementedError

    def _delete_batch(self, keys: np.ndarray) -> int:
        """Remove one occurrence per key of a non-empty batch from the
        tables (no journaling); returns how many were found."""
        raise NotImplementedError

    # ----------------------------------------------------------------- journal
    def _journal_add(self, keys: np.ndarray, values: np.ndarray) -> None:
        if self.auto_resize:
            self._journal.add(keys, values)

    def _journal_remove(self, keys: np.ndarray) -> None:
        """The delete rule: one journaled copy per requested key."""
        if self.auto_resize:
            self._journal.remove(keys)

    # ------------------------------------------------------------------ insert
    def _place_batch(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One whole-batch insert attempt at the current geometry.

        Each TCF design implements it with its own insert kernel; returns
        the mask of keys placed.
        """
        raise NotImplementedError

    def _raise_if_unplaced(self, placed: np.ndarray) -> None:
        """Raise the :class:`FilterFullError` of a batch that left keys out."""
        if not placed.all():
            raise FilterFullError(
                f"{self.name} full: both blocks and the backing table rejected a key",
                n_items=self._n_items,
                n_slots=self.table.n_slots,
                load_factor=self.load_factor,
                batch_offset=int(np.argmin(placed)),
            )

    def _insert_with_growth(
        self,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        place: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> np.ndarray:
        """Place a batch, growing (``auto_resize``) and retrying only the unplaced keys.

        The one insert loop of both TCF designs: ``bulk_insert`` raises when
        the returned mask has a False, ``bulk_insert_mask`` returns it.
        ``place`` is the insert attempt, :meth:`_place_batch` by default; the
        point TCF's ``insert`` passes its per-item kernel.
        """
        place = place or self._place_batch
        if values is None:
            values = np.zeros(keys.size, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        self._maybe_grow()
        placed = place(keys, values)
        self._journal_add(keys[placed], values[placed])
        while not placed.all() and self._can_grow():
            self.grow()
            todo = np.flatnonzero(~placed)
            landed = todo[place(keys[todo], values[todo])]
            self._journal_add(keys[landed], values[landed])
            placed[landed] = True
        return placed

    # ------------------------------------------------------------------ growth
    def _can_grow(self) -> bool:
        return self.auto_resize

    def grow(self, extra_quotient_bits: int = 1) -> None:
        """Double-and-rehash ``extra_quotient_bits`` times, in place.

        Each doubling rebuilds the journal into a fresh table at 2x the
        slots.  The rebuild charges its inserts to the shared recorder and
        keeps its kernel records in this filter's :class:`KernelContext` —
        resize cost is real work, not an accounting blind spot.  Inside an
        open launch (the point TCF's ``bulk_insert``) that launch's record
        already absorbs the rebuild's events, so the twin keeps its own
        context and no event is counted twice.  If the doubled table still
        cannot hold the journal (pathological block skew), the factor
        doubles again.  The new tables live on the heap, detached from any
        shared segment.  A filter without a journal refuses.
        """
        if extra_quotient_bits < 1:
            raise ValueError("grow must grow the filter")
        if self._journal is None:
            raise UnsupportedOperationError(
                f"{type(self).__name__} keeps no key journal (built without "
                "auto_resize=True): its stored fingerprints cannot be "
                "re-derived, so the table cannot be rehashed larger"
            )
        keys, values = self._journal.arrays()
        for _ in range(extra_quotient_bits):
            factor = 2
            while True:
                bigger = type(self)(
                    self.table.n_slots * factor, self.config, recorder=self.recorder
                )
                if not self.kernels.in_launch:
                    bigger.kernels = self.kernels
                try:
                    if keys.size:
                        bigger.bulk_insert(keys, values)
                except FilterFullError:
                    factor *= 2
                    continue
                break
            self.table = bigger.table
            self.backing = bigger.backing
            self._n_items = bigger._n_items
            self._shared_scalars = None
            self.n_resizes += 1

    # --------------------------------------------------------------- snapshots
    def snapshot_config(self) -> dict:
        return {
            "n_slots": self.table.n_slots,
            "config": dataclasses.asdict(self.config),
            "auto_resize": self.auto_resize,
            "auto_resize_at": self.auto_resize_at,
        }

    @classmethod
    def _from_snapshot_config(cls, config: Mapping, recorder=None):
        return cls(
            config["n_slots"],
            TCFConfig(**config["config"]),
            recorder=recorder,
            auto_resize=config.get("auto_resize", False),
            auto_resize_at=config.get("auto_resize_at"),
        )

    def snapshot_state(self) -> Dict[str, np.ndarray]:
        state = {
            "table": self.table.slots.peek().copy(),
            "backing_keys": self.backing.keys.peek().copy(),
            "backing_values": self.backing.values.peek().copy(),
            "scalars": np.array(
                [self._n_items, self.backing._n_items, self.n_resizes],
                dtype=np.int64,
            ),
        }
        if self._journal is not None:
            journal_keys, journal_values = self._journal.arrays()
            state["journal_keys"] = journal_keys
            state["journal_values"] = journal_values
        return state

    # ------------------------------------------------------------ shared state
    def adopt_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Rebind the tables onto shared-memory views, zero-copy.

        The shared-memory allocation path of :mod:`repro.sharding`: the
        named sections (same layout as :meth:`snapshot_state`) become the
        live backing store, so every slot write goes straight to the shared
        segment.  The scalar counters are synchronised explicitly with
        :meth:`refresh_shared` / :meth:`flush_shared`.  A key journal stays
        on the heap (its arrays grow with every insert, which no fixed
        segment can hold), and any ``journal_*`` sections are ignored.
        """
        table = np.asarray(state["table"])
        if table.shape != self.table.slots.data.shape or table.dtype != self.table.slots.data.dtype:
            raise ValueError(
                f"cannot adopt a {table.dtype}{table.shape} table buffer; "
                f"need {self.table.slots.data.dtype}{self.table.slots.data.shape}"
            )
        keys = np.asarray(state["backing_keys"])
        values = np.asarray(state["backing_values"])
        if (
            keys.shape != self.backing.keys.data.shape
            or values.shape != self.backing.values.data.shape
        ):
            raise ValueError("backing-table buffer shapes do not match the filter")
        scalars = np.asarray(state["scalars"])
        if scalars.dtype != np.int64 or scalars.size != 3:
            raise ValueError("scalar section must be int64[3]")
        self.table.slots.data = table
        self.backing.keys.data = keys.astype(self.backing.keys.data.dtype, copy=False)
        self.backing.values.data = values.astype(self.backing.values.data.dtype, copy=False)
        self._shared_scalars = scalars
        self.refresh_shared()

    def refresh_shared(self) -> None:
        """Reload the scalar counters after external writes."""
        scalars = self._shared_scalars
        if scalars is None:
            raise ValueError("filter is not adopted onto shared buffers")
        self._n_items = int(scalars[0])
        self.backing._n_items = int(scalars[1])
        self.n_resizes = int(scalars[2])

    def flush_shared(self) -> None:
        """Write the scalar counters back into the shared buffer."""
        scalars = self._shared_scalars
        if scalars is None:
            raise ValueError("filter is not adopted onto shared buffers")
        scalars[0] = self._n_items
        scalars[1] = self.backing._n_items
        scalars[2] = self.n_resizes

    def restore_state(self, state: Mapping[str, np.ndarray]) -> None:
        restore_array(self.table.slots.peek(), state["table"], "table")
        restore_array(self.backing.keys.peek(), state["backing_keys"], "backing_keys")
        restore_array(
            self.backing.values.peek(), state["backing_values"], "backing_values"
        )
        scalars = np.asarray(state["scalars"])
        self._n_items = int(scalars[0])
        self.backing._n_items = int(scalars[1])
        self.n_resizes = int(scalars[2]) if scalars.size > 2 else 0
        if self._journal is not None:
            self._journal = KeyJournal()
            if "journal_keys" in state:
                self._journal.add(state["journal_keys"], state["journal_values"])
        if self._shared_scalars is not None:
            self.flush_shared()
