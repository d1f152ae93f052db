"""Shared lifecycle machinery (resize + snapshots) for the TCF family.

The TCF's power-of-two-choice addressing is *not* invertible: the stored
fingerprint ``((h1 >> 17) ^ (h2 << 3)) & mask`` cannot be mapped back to the
key, so — unlike the quotient filters, whose tables can be rehashed from the
stored fingerprints alone — a TCF cannot rebuild itself at a new geometry
from its own slots.  When resizing is requested (``auto_resize=True``) the
filter therefore keeps a host-side *journal*: a :class:`KeyJournal` of
append-only, capacity-doubling ``uint64`` key and value arrays, appended in
bulk on insert and pruned by one vectorised pass per delete batch.  Growing
the filter builds a fresh table at twice the slot count and bulk-inserts the
journal through the normal (event-charged) insert path, so resize cost shows
up honestly in the simulated hardware counters.

The journal is exact for true deletes; deleting a *false positive* removes a
stored slot but no journal entry, so after such a delete a resize can
resurrect at most that one phantom item — the same one the false positive
already claimed was present.  This mirrors the fundamental limit the paper
notes for fingerprint filters rather than hiding it.

:class:`TCFLifecycle` is mixed into both :class:`~repro.core.tcf.point_tcf.
PointTCF` and :class:`~repro.core.tcf.bulk_tcf.BulkTCF`; it relies on the
attributes they share (``table``, ``backing``, ``config``, ``_n_items``,
``recorder``) plus the journal state initialised by :meth:`_init_lifecycle`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ...gpusim.sorting import group_ranks, run_first_mask, stable_argsort
from ..base import restore_array
from ..exceptions import FilterFullError
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


class TCFLifecycle:
    """Journal-backed resize and snapshot support for the TCF family."""

    # ----------------------------------------------------------------- journal
    def _init_lifecycle(
        self, auto_resize: bool, auto_resize_at: Optional[float]
    ) -> None:
        self.auto_resize = bool(auto_resize)
        self.auto_resize_at = float(
            self.config.max_load_factor if auto_resize_at is None else auto_resize_at
        )
        if not 0.0 < self.auto_resize_at <= 1.0:
            raise ValueError("auto_resize_at must be in (0, 1]")
        self.n_resizes = 0
        #: Inserted (key, value) pairs; exists only when resizing is on.
        self._journal: Optional[KeyJournal] = KeyJournal() if self.auto_resize else None
        #: int64[3] shared-memory view of the scalar counters once the
        #: tables are adopted (:meth:`adopt_state`); None on the heap.
        self._shared_scalars: Optional[np.ndarray] = None

    def _journal_add(self, keys: np.ndarray, values: np.ndarray) -> None:
        if self._journal is not None:
            self._journal.add(keys, values)

    def _journal_remove(self, keys: np.ndarray) -> None:
        if self._journal is not None:
            self._journal.remove(keys)

    # ------------------------------------------------------------------ resize
    def _can_grow(self) -> bool:
        return self._journal is not None

    def _maybe_grow(self) -> None:
        """Grow ahead of an insert once the configured load factor is hit."""
        if self._journal is None:
            return
        while self.load_factor >= self.auto_resize_at:
            self._grow()

    def _grow(self) -> None:
        """Double-and-rehash: rebuild into a fresh table at 2x the slots.

        The rebuild charges its inserts to the shared recorder — resize cost
        is real work, not an accounting blind spot.  If the doubled table
        still cannot hold the journal (pathological block skew), the factor
        doubles again.
        """
        keys, values = self._journal.arrays()
        factor = 2
        while True:
            bigger = type(self)(
                self.table.n_slots * factor, self.config, recorder=self.recorder
            )
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
        if hasattr(self, "_block_lines_cache"):
            self._block_lines_cache = None
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
        :meth:`refresh_shared` / :meth:`flush_shared`.  Journaled filters
        cannot adopt: the journal's arrays grow with every insert, which no
        fixed segment can hold — the sharding layer keeps journals in the
        parent process instead.
        """
        if self._journal is not None:
            raise ValueError(
                "journaled (auto_resize=True) TCFs cannot adopt shared "
                "buffers; construct the shard with auto_resize=False"
            )
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
        """Reload the scalar counters and drop caches after external writes."""
        scalars = getattr(self, "_shared_scalars", None)
        if scalars is None:
            raise ValueError("filter is not adopted onto shared buffers")
        self._n_items = int(scalars[0])
        self.backing._n_items = int(scalars[1])
        self.n_resizes = int(scalars[2])
        if hasattr(self, "_block_lines_cache"):
            self._block_lines_cache = None

    def flush_shared(self) -> None:
        """Write the scalar counters back into the shared buffer."""
        scalars = getattr(self, "_shared_scalars", None)
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
        if hasattr(self, "_block_lines_cache"):
            self._block_lines_cache = None
        if getattr(self, "_shared_scalars", None) is not None:
            self.flush_shared()
