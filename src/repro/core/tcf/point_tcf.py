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

from ...gpusim.kernel import point_launch
from ...hashing import potc
from ..base import prefers_sequential
from ..exceptions import FilterFullError
from .config import EMPTY_SLOT, POINT_TCF_DEFAULT, TOMBSTONE_SLOT
from .lifecycle import _MASK64, TwoChoiceFilter


class PointTCF(TwoChoiceFilter):
    """Two-choice filter with a device-side point API.

    Constructed as :class:`~repro.core.tcf.lifecycle.TwoChoiceFilter`
    describes, with :data:`~repro.core.tcf.config.POINT_TCF_DEFAULT` as the
    default configuration.
    """

    name = "TCF"
    DEFAULT_CONFIG = POINT_TCF_DEFAULT
    ARRAY_PREFIX = "tcf"

    @property
    def backing_fraction_used(self) -> float:
        """Fraction of inserted items that landed in the backing table."""
        if self._n_items == 0:
            return 0.0
        return self.backing.n_items / self._n_items

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
        instead and the insert always succeeds.  A one-key batch through
        :meth:`_insert_with_growth`, outside any kernel launch.
        """
        keys = np.array([int(key) & _MASK64], dtype=np.uint64)
        self._raise_if_unplaced(self._insert_with_growth(keys, np.array([value])))
        return True

    def _insert_once(self, key: int, value: int) -> bool:
        """One two-choice insert attempt at the current table geometry."""
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
                return True

        if self.backing.insert(int(key), value):
            self._n_items += 1
            return True
        raise FilterFullError(
            "TCF full: both blocks and the backing table rejected the insert",
            n_items=self._n_items,
            n_slots=self.table.n_slots,
            load_factor=self.load_factor,
        )

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
    # The batched point paths below replay the per-item decision stream over
    # plain integer state (the pattern established for the CPU VQF baseline):
    # two-choice routing is inherently sequential — every insert changes the
    # fills the next decision reads — so a compressed Python loop walks the
    # batch over integer block fills and lazily materialised free-slot /
    # match-offset lists, while slot placement and all simulated hardware
    # events are applied as whole-array operations.  Placements and deletions
    # consume each block's candidate slots in scan order, exactly as the
    # cooperative group's stride-and-ballot walk does, so table state *and*
    # events match the per-item loop bit for bit (``tests/
    # test_point_vectorized.py`` pins this).  Spills and misses route through
    # the already-calibrated BackingTable bulk primitives, in batch order.

    def _prefers_sequential(self, batch_size: int) -> bool:
        return prefers_sequential(batch_size)

    def _scan_geometry(self) -> tuple:
        """``(block_size, cg_size, n_strides, tail_divergent)`` of a block scan."""
        bs, g = self.config.block_size, self.config.cg_size
        return bs, g, -(-bs // g), 1 if bs % g else 0

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """Point-style bulk insert: one cooperative group per item.

        (The genuinely different sorted bulk algorithm lives in
        :class:`~repro.core.tcf.bulk_tcf.BulkTCF`.)  :meth:`bulk_insert_mask`
        plus a raise: every placeable key is placed, then
        :class:`FilterFullError` reports the first key left out, so the
        table is at least as full as a per-item loop stopping at that key
        would leave it.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        with self.kernels.launch(
            "tcf_point_bulk_insert", point_launch(len(keys), self.config.cg_size)
        ):
            self._raise_if_unplaced(self._insert_with_growth(keys, values))
        return int(keys.size)

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Graceful batched insert: a per-key success mask instead of raising.

        The degrade-gracefully entry point applications such as the
        MetaHipMer k-mer phase use: keys that neither block nor the backing
        table can hold come back False and the filter stays consistent.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        with self.kernels.launch(
            "tcf_point_bulk_insert", point_launch(len(keys), self.config.cg_size)
        ):
            return self._insert_with_growth(keys, values)

    def _place_batch(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Batched two-choice insert replaying the per-item decision stream.

        Returns the per-key placement mask (False only when the backing
        table also rejected the key).  Small batches run the per-item
        insert, which is the reference the replay is pinned to.
        """
        if self._prefers_sequential(int(keys.size)):
            placed = np.zeros(keys.size, dtype=bool)
            for i in range(keys.size):
                try:
                    placed[i] = self._insert_once(int(keys[i]), int(values[i]))
                except FilterFullError:
                    pass
            return placed
        h = self._derive_batch(keys)
        bs, g, n_strides, tail_div = self._scan_geometry()
        rows = self.table.rows()
        free_rows = (rows == EMPTY_SLOT) | (rows == TOMBSTONE_SLOT)
        live = (bs - free_rows.sum(axis=1)).astype(np.int64).tolist()
        lines = self.table.block_lines().tolist()
        words = self._pack_words(np.asarray(h.fingerprint), values)
        cas_extra = 1 if self.config.cas_spans_slots else 0
        shortcut_fill = self.config.shortcut_fill
        fill_instr = bs // max(1, g) + 1  # block_fill's strided count
        primaries = h.primary.tolist()
        secondaries = h.secondary.tolist()
        free_offsets: dict = {}
        next_free: dict = {}
        reads = instr = intr = div = atomics = n_cas = 0
        dest_flat = []
        dest_row = []
        spill_rows = []
        for i in range(len(primaries)):
            p, s = primaries[i], secondaries[i]
            lp = live[p]
            # load_block(primary) + block_fill.
            reads += lines[p]
            instr += fill_instr
            first, second = p, s
            if lp / bs >= shortcut_fill:
                ls = live[s]
                reads += lines[s]
                instr += fill_instr
                if ls < lp:
                    first, second = s, p
                candidates = (first, second)
            else:
                # Shortcut: the secondary block is never read, and the
                # primary has a free slot by definition of the threshold.
                candidates = (first,)
            placed = False
            for b in candidates:
                atomics += cas_extra
                if live[b] < bs:
                    offs = free_offsets.get(b)
                    if offs is None:
                        offs = np.flatnonzero(free_rows[b]).tolist()
                        free_offsets[b] = offs
                        next_free[b] = 0
                    o = offs[next_free[b]]
                    next_free[b] += 1
                    live[b] += 1
                    # Strides and ballots up to the free slot, leader
                    # election, the successful CAS, and the closing ballot.
                    strides = o // g + 1
                    instr += strides * g + 1
                    intr += strides + 2
                    if tail_div and strides == n_strides:
                        div += 1
                    atomics += 1
                    n_cas += 1
                    dest_flat.append(b * bs + o)
                    dest_row.append(i)
                    placed = True
                    break
                # Full block: the scan ballots every stride and gives up.
                instr += n_strides * g
                intr += n_strides
                div += tail_div
            if not placed:
                spill_rows.append(i)
        if dest_flat:
            self.table.slots.peek()[np.asarray(dest_flat, dtype=np.int64)] = words[dest_row]
        self.recorder.add(
            cache_line_reads=reads,
            instructions=instr,
            warp_intrinsics=intr,
            divergent_branches=div,
            atomic_ops=atomics,
            coalesced_bytes_read=32 * n_cas,
            coalesced_bytes_written=32 * n_cas,
        )
        self._n_items += len(dest_flat)
        placed_mask = np.ones(len(primaries), dtype=bool)
        if spill_rows:
            spill_idx = np.asarray(spill_rows, dtype=np.int64)
            spilled = self.backing.bulk_insert(keys[spill_idx], values[spill_idx])
            self._n_items += int(spilled.sum())
            placed_mask[spill_idx[~spilled]] = False
        return placed_mask

    def _scan_events(self, match: np.ndarray) -> tuple:
        """Per-key cooperative-scan events for a batch of block probes.

        ``match`` is the ``(n, block_size)`` vote mask of one scan each; the
        returned ``(found, instructions, intrinsics, divergences)`` mirror
        the stride-and-ballot walk: a hit stops at its stride (plus the
        leader election), a miss ballots every stride and pays the divergent
        tail stride when the block size is not a multiple of the group.
        """
        _bs, g, n_strides, tail_div = self._scan_geometry()
        found = match.any(axis=1)
        strides = np.argmax(match, axis=1) // g + 1
        instr = np.where(found, strides * g + 1, n_strides * g)
        intr = np.where(found, strides + 1, n_strides)
        if tail_div:
            divergent = np.count_nonzero(~found | (strides == n_strides))
        else:
            divergent = 0
        return found, int(instr.sum()), int(intr.sum()), int(divergent)

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        with self.kernels.launch(
            "tcf_point_bulk_query", point_launch(len(keys), self.config.cg_size)
        ):
            if self._prefers_sequential(int(keys.size)):
                for i, key in enumerate(keys):
                    out[i] = self.query(int(key))
            elif keys.size:
                out = self._bulk_query_vectorised(keys)
        return out

    def _bulk_query_vectorised(self, keys: np.ndarray) -> np.ndarray:
        """Whole-batch two-block probe with per-item-calibrated events.

        Fingerprints never collide with the empty/tombstone sentinels (the
        hash reserves and displaces them), so a word-level fingerprint match
        is always a live match — the liveness votes of the per-item scan are
        implied.  Keys missing both blocks fall through to the backing
        table's batched lookup, in batch order.
        """
        h = self._derive_batch(keys)
        rows = self.table.rows()
        lines = self.table.block_lines()
        vb = self.config.value_bits
        fps = np.asarray(h.fingerprint).astype(rows.dtype)

        def match_rows(blocks: np.ndarray, fp: np.ndarray) -> np.ndarray:
            gathered = rows[blocks]
            words = (gathered >> vb) if vb else gathered
            return words == fp[:, None]

        found, instr, intr, div = self._scan_events(match_rows(h.primary, fps))
        reads = int(lines[h.primary].sum())
        out = found.copy()
        miss = np.flatnonzero(~found)
        if miss.size:
            found2, i2, t2, d2 = self._scan_events(
                match_rows(h.secondary[miss], fps[miss])
            )
            reads += int(lines[h.secondary[miss]].sum())
            instr += i2
            intr += t2
            div += d2
            out[miss[found2]] = True
        self.recorder.add(
            cache_line_reads=reads,
            instructions=instr,
            warp_intrinsics=intr,
            divergent_branches=div,
        )
        still = np.flatnonzero(~out)
        if still.size:
            backing_found, _values = self.backing.bulk_query_values(keys[still])
            out[still] = backing_found
        return out

    def bulk_delete(self, keys: Sequence[int]) -> int:
        keys = np.asarray(keys, dtype=np.uint64)
        removed = 0
        with self.kernels.launch(
            "tcf_point_bulk_delete", point_launch(len(keys), self.config.cg_size)
        ):
            if self._prefers_sequential(int(keys.size)):
                hits = np.array([self._delete_once(int(key)) for key in keys], dtype=bool)
                self._journal_remove(keys[hits])
                removed = int(np.count_nonzero(hits))
            elif keys.size:
                removed = self._bulk_delete_vectorised(keys)
        return removed

    def _bulk_delete_vectorised(self, keys: np.ndarray) -> int:
        """Batched tombstoning replaying the per-item claim order.

        Requests against the same ``(block, fingerprint)`` — duplicate keys,
        or distinct keys aliasing to one fingerprint — consume the stored
        copies positionally in slot-scan order, exactly as sequential
        deletes do; a request that exhausts the primary block's copies falls
        through to the secondary, then to the backing table.
        """
        h = self._derive_batch(keys)
        bs, g, n_strides, tail_div = self._scan_geometry()
        rows = self.table.rows()
        lines = self.table.block_lines().tolist()
        vb = self.config.value_bits
        fps = np.asarray(h.fingerprint).astype(rows.dtype)
        # Per-request live-match bitmask of each candidate block (bit k set
        # when slot k holds the fingerprint); blocks fit a cache line, so at
        # most 64 slots and the mask fits one uint64.  Fingerprints never
        # equal the empty/tombstone sentinels, so a word match is live.
        weights = np.uint64(1) << np.arange(bs, dtype=np.uint64)

        def match_bits(blocks: np.ndarray) -> list:
            gathered = rows[blocks]
            words = (gathered >> vb) if vb else gathered
            return ((words == fps[:, None]) * weights).sum(axis=1).tolist()

        bits_primary = match_bits(h.primary)
        bits_secondary = match_bits(h.secondary)
        primaries = h.primary.tolist()
        secondaries = h.secondary.tolist()
        fp_list = fps.tolist()
        claim_bits: dict = {}
        removed = np.zeros(len(primaries), dtype=bool)
        tomb_flat = []
        backing_rows = []
        reads = instr = intr = div = atomics = n_cas = 0
        for i in range(len(primaries)):
            fp = fp_list[i]
            found = False
            for b, fresh in ((primaries[i], bits_primary), (secondaries[i], bits_secondary)):
                reads += lines[b]
                key = (b, fp)
                bits = claim_bits.get(key)
                if bits is None:
                    bits = fresh[i]
                if bits:
                    low = bits & -bits
                    claim_bits[key] = bits ^ low
                    o = low.bit_length() - 1
                    strides = o // g + 1
                    instr += strides * g + 1
                    intr += strides + 1
                    if tail_div and strides == n_strides:
                        div += 1
                    atomics += 1
                    n_cas += 1
                    tomb_flat.append(b * bs + o)
                    removed[i] = True
                    found = True
                    break
                claim_bits[key] = 0
                instr += n_strides * g
                intr += n_strides
                div += tail_div
            if not found:
                backing_rows.append(i)
        if tomb_flat:
            self.table.slots.peek()[np.asarray(tomb_flat, dtype=np.int64)] = (
                self.config.slot_dtype.type(TOMBSTONE_SLOT)
            )
        self.recorder.add(
            cache_line_reads=reads,
            instructions=instr,
            warp_intrinsics=intr,
            divergent_branches=div,
            atomic_ops=atomics,
            coalesced_bytes_read=32 * n_cas,
            coalesced_bytes_written=32 * n_cas,
        )
        self._n_items -= len(tomb_flat)
        if backing_rows:
            backing_idx = np.asarray(backing_rows, dtype=np.int64)
            backing_removed = self.backing.bulk_delete(keys[backing_idx])
            removed[backing_idx] = backing_removed
            self._n_items -= int(backing_removed.sum())
        self._journal_remove(keys[removed])
        return int(removed.sum())
