"""Point (device-side, per-item) API of the Two-Choice Filter.

The point TCF composes three mechanisms:

* **Power-of-two-choice hashing** — every item gets two candidate blocks; the
  insert goes to the less-full one, keeping the maximum block load within
  :math:`O(\\log\\log n)` of the average.
* **Cooperative-group block operations** — Algorithm 1: the group strides
  over the (cache-line-sized) block, ballots, elects a leader, and the leader
  writes the fingerprint with a single ``atomicCAS``.
* **Backing table** — a tiny double-hashing table (1/100th of the main table)
  that absorbs the <<1 % of items whose candidate blocks are both full,
  raising the achievable load factor from ~79.6 % to 90 %.

Plus the *shortcut optimisation*: when the primary block is less than 75 %
full, the secondary block is not probed at all, saving one cache-line read on
most inserts while the filter is below ~0.75 load.

Supported operations (Table 1): point/bulk insert, query and delete, plus
small-value association.  Counting is intentionally not supported — that is
the TCF's trade-off against the GQF.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...hashing import potc
from .config import POINT_TCF_DEFAULT
from .lifecycle import _MASK64, TwoChoiceFilter, subset


class PointTCF(TwoChoiceFilter):
    """Two-choice filter with a device-side point API.

    Constructed as :class:`~repro.core.tcf.lifecycle.TwoChoiceFilter`
    describes, with :data:`~repro.core.tcf.config.POINT_TCF_DEFAULT` as the
    default configuration.
    """

    name = "TCF"
    DEFAULT_CONFIG = POINT_TCF_DEFAULT
    ARRAY_PREFIX = "tcf"

    # --------------------------------------------------------------- internals
    def _derive(self, key: int) -> potc.PotcHash:
        return potc.derive(
            np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF),
            self.table.n_blocks,
            self.config.fingerprint_bits,
        )

    # ------------------------------------------------------------------ insert
    def insert(self, key: int, value: int = 0) -> bool:
        """Insert a key (optionally with a value).

        Raises :class:`FilterFullError` if both candidate blocks and the
        backing table are full; with ``auto_resize=True`` the filter grows
        instead and the insert always succeeds.  A one-key
        :meth:`_insert_with_growth` that places the key with the per-item
        :meth:`_insert_once`, outside any kernel launch.
        """
        keys = np.array([int(key) & _MASK64], dtype=np.uint64)
        placed = self._insert_with_growth(keys, np.array([value]), self._insert_once)
        self._raise_if_unplaced(placed)
        return True

    def _insert_once(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One two-choice insert attempt of a one-key batch at the current
        table geometry; the per-item reference of :meth:`_place_batch`.

        Returns the one-key placement mask: False when both candidate blocks
        and the backing table rejected the key.
        """
        key, value = int(keys[0]), int(values[0])
        h = self._derive(key)
        primary_block = self.table.load_block(h.primary)
        primary_fill = self.table.block_fill(h.primary, primary_block)

        loaded = {h.primary: primary_block}
        target_order = [h.primary, h.secondary]
        if primary_fill / self.config.block_size < self.config.shortcut_fill:
            # Shortcut: don't even read the secondary block.
            pass
        else:
            secondary_block = self.table.load_block(h.secondary)
            secondary_fill = self.table.block_fill(h.secondary, secondary_block)
            loaded[h.secondary] = secondary_block
            if secondary_fill < primary_fill:
                target_order = [h.secondary, h.primary]

        for block_idx in target_order:
            if self.table.insert(
                block_idx, int(h.fingerprint), value, block=loaded.get(block_idx)
            ):
                self._n_items += 1
                return np.array([True])

        placed = bool(self.backing.insert(key, value))
        self._n_items += int(placed)
        return np.array([placed])

    # ------------------------------------------------------------------- query
    def query(self, key: int) -> bool:
        """Membership query: primary block, secondary block, then backing."""
        return self.get_value(key) is not None

    def get_value(self, key: int) -> Optional[int]:
        """Return the associated value (0 if values disabled) or None."""
        h = self._derive(key)
        value = self.table.query(h.primary, int(h.fingerprint))
        if value is not None:
            return value
        value = self.table.query(h.secondary, int(h.fingerprint))
        if value is not None:
            return value
        return self.backing.query(int(key))

    # ------------------------------------------------------------------ delete
    def _delete_once(self, key: int) -> bool:
        """Tombstone one occurrence of ``key`` (no journaling)."""
        h = self._derive(key)
        if (
            self.table.delete(h.primary, int(h.fingerprint))
            or self.table.delete(h.secondary, int(h.fingerprint))
            or self.backing.delete(int(key))
        ):
            self._n_items -= 1
            return True
        return False

    # ---------------------------------------------------------------- bulk API
    # Every bulk call, whatever its size, takes the table's batched
    # two-choice replays (:class:`~repro.core.tcf.block.BlockedTable`'s
    # ``two_choice_*``); the point methods above are the per-item reference
    # they match bit for bit in state and events
    # (``tests/test_point_vectorized.py`` and
    # ``tests/test_bulk_route_parity.py`` pin this).  Keys the two blocks
    # cannot serve route through the backing table's batched primitives, in
    # batch order.  An empty batch launches nothing.

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """Point-style bulk insert: one cooperative group per item.

        (The genuinely different sorted bulk algorithm lives in
        :class:`~repro.core.tcf.bulk_tcf.BulkTCF`.)  :meth:`bulk_insert_mask`
        plus a raise: every placeable key is placed, then
        :class:`FilterFullError` reports the first key left out, so the
        table is at least as full as a per-item loop stopping at that key
        would leave it.
        """
        placed = self.bulk_insert_mask(np.asarray(keys, dtype=np.uint64), values)
        self._raise_if_unplaced(placed)
        return int(placed.size)

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Graceful batched insert: a per-key success mask instead of raising.

        The degrade-gracefully entry point applications such as the
        MetaHipMer k-mer phase use: keys that neither block nor the backing
        table can hold come back False and the filter stays consistent.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        with self.kernels.launch("tcf_point_bulk_insert"):
            return self._insert_with_growth(keys, values)

    def _place_batch(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Batched two-choice insert replaying the per-item decision stream.

        Returns the per-key placement mask (False only when the backing
        table also rejected the key).  The per-item :meth:`_insert_once` is
        the reference the replay is pinned to.
        """
        h = self._derive_batch(keys)
        words = self._pack_words(np.asarray(h.fingerprint), values)
        placed = self.table.two_choice_insert(h.primary, h.secondary, words)
        self._n_items += int(np.count_nonzero(placed))
        spill = np.flatnonzero(~placed)
        if spill.size:
            spilled = self.backing.bulk_insert(keys[spill], subset(values, spill))
            self._n_items += int(spilled.sum())
            placed[spill[spilled]] = True
        return placed

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        """Primary block, secondary block, then the backing table, per key."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        with self.kernels.launch("tcf_point_bulk_query"):
            h = self._derive_batch(keys)
            out = self.table.two_choice_query(h.primary, h.secondary, h.fingerprint)
            still = np.flatnonzero(~out)
            if still.size:
                out[still] = self.backing.bulk_query_values(keys[still])[0]
        return out

    def _delete_batch(self, keys: np.ndarray) -> int:
        """Tombstone one stored copy per key, in batch order: primary block,
        secondary block, then the backing table."""
        with self.kernels.launch("tcf_point_bulk_delete"):
            h = self._derive_batch(keys)
            removed = self.table.two_choice_delete(h.primary, h.secondary, h.fingerprint)
            self._n_items -= int(np.count_nonzero(removed))
            rest = np.flatnonzero(~removed)
            if rest.size:
                backing_removed = self.backing.bulk_delete(keys[rest])
                removed[rest] = backing_removed
                self._n_items -= int(backing_removed.sum())
        return int(np.count_nonzero(removed))
