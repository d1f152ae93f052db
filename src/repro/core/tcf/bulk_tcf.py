"""Bulk (host-side, batched) API of the Two-Choice Filter.

The bulk TCF trades per-item latency for aggregate throughput (Section 4.2):

1. the incoming batch is **sorted** by destination block so that all keys for
   one block arrive together;
2. each block is staged in **shared memory**, merged with its existing
   (sorted) contents using a parallel zip, and written back to global memory
   as one **coalesced** cache-wide store;
3. blocks maintain their fingerprints in **sorted order**, so queries are a
   binary search (logarithmic per item, or linear for a batch).

Items whose primary block is full spill to their secondary block in a second
pass; the remaining handful go to the backing table, exactly as in the point
filter.  The default configuration uses 128-byte blocks of 64 16-bit slots,
which is why the bulk TCF needs ~33 % more space than the point filter for
the same false-positive rate (ε = 2B/2^f grows with the block size).

The hot paths are NumPy operations over the table reshaped to
``(n_blocks, block_size)``, walked in chunks of ``_CHUNK`` (64k) keys inside
each call's one kernel launch, so that no step but the sort holds a
batch-sized temporary — the host stand-in for staging one block tile at a
time in shared memory.  Hashing derives each chunk into compact batch
arrays: int32 primary and secondary blocks and packed slot words.  A
query probes chunk by chunk: primary rows, secondary rows, then the backing
table, which reuses the chunk's two hash mixes.  An insert pass sorts the
whole batch once by a combined ``(block, word)`` key and, in pass 1, runs
one successor search over every block (the modelled one-group-per-block
kernel); both stay global.  It then walks the sorted order in runs of whole
blocks of about one chunk: each run finds its blocks' free capacity with
one in-row lower bound (rows are sorted, so empties and tombstones lead),
ranks and accepts its items, writes them and re-sorts its rows.  Spills are
split off *positionally* (so duplicate fingerprint words can never be
mis-attributed to the wrong key) and concatenated in sorted order, so pass
2 sees the same spills as a whole-batch walk.  A delete hashes in chunks
and ranks its duplicate requests over the whole batch, then searches only
the candidate rows of its keys.  Apart from pass 1's successor search, no
step reads the whole table.  Every bulk call takes these paths, whatever
its size.  The per-item insert and delete serve only tables whose slot
words cannot be packed with the block index into one 64-bit sort key, and
stay as the reference the batch paths are tested against; point queries
probe per item.  Simulated hardware events are charged per touched block /
per probe exactly as the per-item path charges them, and every chunk gets
the charges it would get in one whole-batch step, so throughput figures
keep their meaning.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...gpusim.sharedmem import SharedMemoryTile, account_batched_tiles
from ...gpusim.sorting import (
    device_lower_bound,
    device_sort_by_key,
    group_ranks,
    run_first_mask,
    stable_argsort,
)
from ...hashing import potc
from .config import BULK_TCF_DEFAULT, EMPTY_SLOT, TOMBSTONE_SLOT
from .lifecycle import TwoChoiceFilter, subset

#: Keys per chunk of a bulk call's walk: a chunk's int64 temporaries
#: (512 KiB) stay in the L2 cache instead of streaming from DRAM.
_CHUNK = 1 << 16


def _block_runs(starts: np.ndarray, n_items: int) -> List[Tuple[int, int, int, int]]:
    """Split a sorted batch into runs of whole blocks of about ``_CHUNK`` items.

    ``starts`` holds the first sorted position of each touched block.  A run
    begins at the block holding every ``_CHUNK``-th item, so it spans at
    least one whole block.  Returns ``(t0, t1, k0, k1)`` per run: its
    touched-block range and its item range.
    """
    firsts = np.searchsorted(starts, np.arange(0, n_items, _CHUNK), side="right") - 1
    cuts = firsts[run_first_mask(firsts)]
    t_ends = np.append(cuts[1:], starts.size)
    k_ends = np.append(starts[cuts[1:]], n_items)
    return list(zip(cuts.tolist(), t_ends.tolist(), starts[cuts].tolist(), k_ends.tolist()))


class BulkTCF(TwoChoiceFilter):
    """Two-choice filter optimised for batched (bulk) operation.

    Constructed as :class:`~repro.core.tcf.lifecycle.TwoChoiceFilter`
    describes, with the 16-bit / 64-slot
    :data:`~repro.core.tcf.config.BULK_TCF_DEFAULT` layout as the default
    configuration.
    """

    name = "Bulk TCF"
    DEFAULT_CONFIG = BULK_TCF_DEFAULT
    ARRAY_PREFIX = "bulk-tcf"

    # --------------------------------------------------------------- internals
    def _sorted_block_merge(
        self, block_idx: int, new_words: np.ndarray
    ) -> np.ndarray:
        """Merge new slot words into a block, keeping it sorted.

        Returns the words that did **not** fit (overflow).  The merge happens
        in a shared-memory staging tile and is written back as one coalesced
        store, which is the key optimisation of the bulk TCF.
        """
        start, stop = self.table.block_bounds(block_idx)
        with SharedMemoryTile(self.table.slots, start, stop, self.recorder) as tile:
            current = tile.view()
            live_mask = (current != EMPTY_SLOT) & (current != TOMBSTONE_SLOT)
            live = current[live_mask]
            free_slots = self.config.block_size - live.size
            accepted = new_words[:free_slots]
            overflow = new_words[free_slots:]
            merged = np.sort(np.concatenate([live, accepted]))
            padded = np.full(self.config.block_size, EMPTY_SLOT, dtype=current.dtype)
            padded[: merged.size] = merged
            tile.replace(np.sort(padded))
            self.recorder.add(instructions=self.config.block_size)
        return overflow

    # --------------------------------------------------------------- bulk insert
    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """Sorted, two-pass bulk insert.

        Pass 1 routes every item to its primary block; overflow from full
        blocks is re-routed in pass 2 to the secondary block; anything still
        left goes to the backing table.  Every placeable key is placed before
        anything is raised; a :class:`FilterFullError` fires only if the
        backing table also overflows — unless ``auto_resize=True``, in which
        case the filter grows and retries the unplaced remainder.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        self._raise_if_unplaced(self._insert_with_growth(keys, values))
        return int(keys.size)

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Graceful bulk insert: a per-key success mask instead of raising.

        The same insert as :meth:`bulk_insert`, but keys that do not fit
        once growth is exhausted come back False rather than surfacing a
        :class:`FilterFullError` — the partial-success entry point the
        bulk-job service builds its per-item reports on.
        """
        return self._insert_with_growth(np.asarray(keys, dtype=np.uint64), values)

    def _address(
        self, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per key: primary block, secondary block and packed slot word.

        Derived chunk by chunk into compact batch arrays — int32 blocks (a
        table has far fewer than 2^31 blocks) and slot-dtype words — so no
        batch-length 64-bit hash is ever held.
        """
        primary = np.empty(keys.size, dtype=np.int32)
        secondary = np.empty(keys.size, dtype=np.int32)
        words = np.empty(keys.size, dtype=self.config.slot_dtype)
        for lo in range(0, keys.size, _CHUNK):
            hi = lo + _CHUNK
            h = self._derive_batch(keys[lo:hi])
            primary[lo:hi] = h.primary
            secondary[lo:hi] = h.secondary
            words[lo:hi] = self._pack_words(h.fingerprint, subset(values, slice(lo, hi)))
        return primary, secondary, words

    def _place_batch(self, keys: np.ndarray, values: Optional[np.ndarray]) -> np.ndarray:
        """One whole-batch insert attempt at the current table geometry."""
        if self.table.flat_key_shift is None:  # (block, word) keys do not pack
            h = self._derive_batch(keys)
            words = self._pack_words(h.fingerprint, values)
            return self._bulk_insert_sequential(keys, values, h, words)
        return self._bulk_insert_vectorised(keys, values, *self._address(keys, values))

    def _merge_pass(
        self,
        words: np.ndarray,
        blocks: np.ndarray,
        positions: Optional[np.ndarray],
        kernel_name: str,
        scan_all_blocks: bool,
    ) -> np.ndarray:
        """One merge pass over a batch; returns the spilled batch positions.

        ``blocks``/``positions`` are aligned subsets of the batch (candidate
        block and original batch index per item; ``None`` when the items are
        the whole batch, in order).  The batch is sorted once by a combined
        ``(block, word)`` key, so items arrive at each block in ascending
        word order with ties in batch order — the same acceptance set as
        per-item sorted merges, with spills tracked *positionally* (never by
        word value, so duplicate words cannot be mis-attributed).  The
        sorted order is then merged in runs of whole blocks (see
        :func:`_block_runs`), each with its own temporaries.
        """
        shift = np.uint64(self.table.flat_key_shift)
        sort_keys = blocks.astype(np.uint64)
        sort_keys <<= shift
        sort_keys |= words
        # The sort carries each item's batch position as its value (the
        # sort's own permutation when the items are the whole batch).
        sorted_keys, sorted_positions = device_sort_by_key(
            sort_keys, positions, self.recorder
        )
        del sort_keys, positions
        n_items = sorted_keys.size
        if scan_all_blocks:
            # Successor search over every table block (one group per block).
            block_starts = device_lower_bound(
                sorted_keys,
                np.arange(self.table.n_blocks, dtype=np.uint64) << shift,
                self.recorder,
            )
            counts_all = np.diff(np.append(block_starts, n_items))
            touched = np.flatnonzero(counts_all)
            starts = block_starts[touched]
            counts = counts_all[touched]
        else:
            # The sorted blocks are the sort keys' high bits; group
            # boundaries are plain diffs (np.unique would re-sort and lazily
            # import numpy.ma).
            sorted_blocks = (sorted_keys >> shift).view(np.int64)
            starts = np.flatnonzero(run_first_mask(sorted_blocks))
            touched = sorted_blocks[starts]
            counts = np.diff(np.append(starts, n_items))
            del sorted_blocks

        data = self.table.slots.peek()
        block_size = self.config.block_size
        smallest_live = self.config.slot_dtype.type(TOMBSTONE_SLOT + 1)
        spills = []
        with self.kernels.launch(kernel_name):
            for t0, t1, k0, k1 in _block_runs(starts, n_items):
                run_blocks, run_counts = touched[t0:t1], counts[t0:t1]
                # Rows are ascending with empties (0) and tombstones (1)
                # first, so the lower bound of the smallest live word is the
                # free count.
                free = self.table.row_lower_bound(run_blocks, smallest_live)
                rank = np.arange(k0, k1) - np.repeat(starts[t0:t1], run_counts)
                accept = rank < np.repeat(free, run_counts)
                n_accepted = np.minimum(run_counts, free)
                if accept.any():
                    # Accepted words land in the leading free slots of their
                    # row (empties/tombstones lead) and one batched per-row
                    # sort restores the block invariant.  A sort key's low
                    # slot-width bits are its word.
                    dest_blocks = np.repeat(run_blocks, n_accepted)
                    flat = dest_blocks * block_size + rank[accept]
                    data[flat] = sorted_keys[k0:k1][accept].astype(data.dtype)
                self.table.resort_rows(run_blocks[n_accepted > 0])
                spills.append(sorted_positions[k0:k1][~accept])
            # Every touched block is staged, merged and written back, whether
            # or not any of its items fit (mirrors the per-item tile cycle).
            account_batched_tiles(
                self.table.slots,
                int(touched.size),
                block_size,
                self.recorder,
                rewritten=True,
                instructions_per_tile=block_size,
            )
        return np.concatenate(spills) if spills else sorted_positions

    def _bulk_insert_vectorised(
        self,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        primary: np.ndarray,
        secondary: np.ndarray,
        words: np.ndarray,
    ) -> np.ndarray:
        placed_mask = np.ones(keys.size, dtype=bool)
        spilled = self._merge_pass(
            words, primary, None, "bulk_tcf_insert_pass1", scan_all_blocks=True
        )
        inserted = keys.size - spilled.size
        if spilled.size:
            leftovers = self._merge_pass(
                words[spilled],
                secondary[spilled],
                spilled,
                "bulk_tcf_insert_pass2",
                scan_all_blocks=False,
            )
            inserted += spilled.size - leftovers.size
            spilled = leftovers
        if spilled.size:
            placed = self.backing.bulk_insert(keys[spilled], subset(values, spilled))
            inserted += int(np.count_nonzero(placed))
            placed_mask[spilled[~placed]] = False
        self._n_items += inserted
        return placed_mask

    def _bulk_insert_sequential(
        self,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        h: potc.PotcHash,
        words: np.ndarray,
    ) -> np.ndarray:
        """Per-item two-pass insert: the path of tables whose (block, word)
        keys do not pack, and the reference of the whole-batch merge."""
        inserted = 0
        placed_mask = np.ones(keys.size, dtype=bool)
        # ---- pass 1: primary blocks --------------------------------------
        order_keys, order_idx = device_sort_by_key(
            h.primary.astype(np.int64), recorder=self.recorder
        )
        overflow_positions: List[np.ndarray] = []
        block_starts = device_lower_bound(
            order_keys, np.arange(self.table.n_blocks), self.recorder
        )
        with self.kernels.launch("bulk_tcf_insert_pass1"):
            for block_idx in range(self.table.n_blocks):
                lo = int(block_starts[block_idx])
                if block_idx + 1 < self.table.n_blocks:
                    hi = int(block_starts[block_idx + 1])
                else:
                    hi = order_keys.size
                if lo >= hi:
                    continue
                idx = order_idx[lo:hi]
                # Stable word sort keeps batch order among equal words, so the
                # spilled tail maps back to the right original items even when
                # the batch contains duplicate fingerprint words.
                idx_sorted = idx[stable_argsort(words[idx])]
                new_words = words[idx_sorted]
                spill = self._sorted_block_merge(block_idx, new_words)
                n_in = new_words.size - spill.size
                inserted += n_in
                if spill.size:
                    overflow_positions.append(idx_sorted[n_in:])

        # ---- pass 2: secondary blocks -------------------------------------
        leftovers = np.array([], dtype=np.int64)
        if overflow_positions:
            o_positions = np.concatenate(overflow_positions)
            sort_sec, sort_idx = device_sort_by_key(
                h.secondary[o_positions].astype(np.int64), recorder=self.recorder
            )
            still: List[np.ndarray] = []
            sec_blocks = sort_sec[run_first_mask(sort_sec)]
            with self.kernels.launch("bulk_tcf_insert_pass2"):
                for block_idx in sec_blocks:
                    sel = o_positions[sort_idx[sort_sec == block_idx]]
                    sel_sorted = sel[stable_argsort(words[sel])]
                    new_words = words[sel_sorted]
                    spill = self._sorted_block_merge(int(block_idx), new_words)
                    n_in = new_words.size - spill.size
                    inserted += n_in
                    if spill.size:
                        still.append(sel_sorted[n_in:])
            if still:
                leftovers = np.concatenate(still)

        # ---- pass 3: backing table ------------------------------------------
        for pos in leftovers:
            value = 0 if values is None else int(values[pos])
            if self.backing.insert(int(keys[pos]), value):
                inserted += 1
            else:
                placed_mask[int(pos)] = False

        self._n_items += inserted
        return placed_mask

    # ---------------------------------------------------------------- bulk query
    def _search_block(self, block_idx: int, fingerprint: int) -> Optional[int]:
        """Binary-search a sorted block for a fingerprint; return value or None."""
        block = self.table.load_block(block_idx)
        vb = self.config.value_bits
        self.recorder.add(instructions=int(np.log2(max(2, self.config.block_size))))
        # The fingerprint's slot words start at ``fingerprint << vb``.
        pos = np.searchsorted(block, block.dtype.type(int(fingerprint) << vb), side="left")
        if pos < block.size and int(block[pos]) >> vb == int(fingerprint):
            return int(block[pos]) & ((1 << vb) - 1)
        return None

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        """Query a batch of keys (binary search in up to two blocks + backing),
        chunk by chunk inside one launch."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return out
        with self.kernels.launch("bulk_tcf_query"):
            for lo in range(0, keys.size, _CHUNK):
                out[lo : lo + _CHUNK] = self._query_chunk(keys[lo : lo + _CHUNK])
        return out

    def _query_chunk(self, keys: np.ndarray) -> np.ndarray:
        """Probe one chunk: primary rows, secondary rows, then the backing
        table, which probes with the chunk's own hash mixes."""
        h = self._derive_batch(keys)
        # A fingerprint's slot words span [lo, lo | value mask].
        lo_w = self._pack_words(h.fingerprint, None)
        vb = self.config.value_bits
        hi_w = lo_w | lo_w.dtype.type((1 << vb) - 1) if vb else lo_w
        found = self._probe_rows(h.primary, lo_w, hi_w)
        miss = np.flatnonzero(~found)
        if miss.size:
            hit2 = self._probe_rows(h.secondary[miss], lo_w[miss], hi_w[miss])
            found[miss[hit2]] = True
            still = miss[~hit2]
            if still.size:
                found[still] = self.backing.bulk_contains(
                    keys[still], (h.h1[still], h.h2[still])
                )
        return found

    def _probe_rows(self, blocks: np.ndarray, lo_w: np.ndarray, hi_w: np.ndarray) -> np.ndarray:
        """Batched in-row binary search: a fingerprint is present iff the
        successor of its word range's lower bound falls inside the range
        (one staged line + log2(B) steps per probe)."""
        block_size = self.config.block_size
        data = self.table.slots.peek()
        pos = self.table.row_lower_bound(blocks, lo_w)
        successor = np.minimum(blocks.astype(np.int64) * block_size + pos, data.size - 1)
        found = (pos < block_size) & (data[successor] <= hi_w)
        search_instr = int(np.log2(max(2, block_size)))
        self.recorder.add(
            cache_line_reads=int(blocks.size),
            instructions=search_instr * int(blocks.size),
        )
        return found

    # ------------------------------------------------------------------ point API
    def insert(self, key: int, value: int = 0) -> bool:
        """Point insert (single-item bulk merge)."""
        return (
            self.bulk_insert(np.array([key], dtype=np.uint64), np.array([value], dtype=np.uint64))
            == 1
        )

    def query(self, key: int) -> bool:
        """Point query: per-item binary searches, in a one-probe launch."""
        with self.kernels.launch("bulk_tcf_query"):
            return self.get_value(key) is not None

    def get_value(self, key: int) -> Optional[int]:
        h = self._derive_batch(np.array([key], dtype=np.uint64))
        fp = int(h.fingerprint[0])
        for block_idx in (int(h.primary[0]), int(h.secondary[0])):
            value = self._search_block(block_idx, fp)
            if value is not None:
                return value
        return self.backing.query(int(key))

    def _delete_once(self, key: int) -> bool:
        """Delete one occurrence of ``key`` from the tables (no journaling)."""
        h = self._derive_batch(np.array([key], dtype=np.uint64))
        fp = int(h.fingerprint[0])
        vb = self.config.value_bits
        for block_idx in (int(h.primary[0]), int(h.secondary[0])):
            start, stop = self.table.block_bounds(block_idx)
            with SharedMemoryTile(self.table.slots, start, stop, self.recorder) as tile:
                block = tile.view()
                fps = (block >> vb) if vb else block
                matches = np.flatnonzero(
                    (fps == fp) & (block != EMPTY_SLOT) & (block != TOMBSTONE_SLOT)
                )
                if matches.size:
                    kept = np.delete(block, matches[0])
                    new_block = np.concatenate(
                        [kept, np.array([EMPTY_SLOT], dtype=block.dtype)]
                    )
                    tile.replace(np.sort(new_block))
                    self._n_items -= 1
                    return True
        if self.backing.delete(int(key)):
            self._n_items -= 1
            return True
        return False

    def _delete_batch(self, keys: np.ndarray) -> int:
        """Delete one stored occurrence per requested key (batched).

        The vectorised path resolves the whole batch against the primary
        blocks (batched binary search + positional ranking, so duplicate
        requests consume distinct stored copies), retries the misses against
        the secondary blocks, and hands what is left to the backing table.

        Like the real GPU kernel, the batch is *unordered*: requests resolve
        pass by pass (all primaries, then all secondaries, then backing), not
        in strict batch order.  When distinct keys collide on a fingerprint
        *and* one key's primary block is another's secondary, which stored
        copy gets consumed can therefore differ from per-item deletion order
        — the same which-copy ambiguity fingerprint filters already have for
        colliding deletes, not a new hazard.
        """
        if self.table.flat_key_shift is None:  # (block, word) keys do not pack
            with self.kernels.launch("bulk_tcf_delete"):
                hits = [self._delete_once(int(key)) for key in keys]
            return sum(hits)

        primary, secondary, lo_w = self._address(keys, None)
        shift = np.uint64(self.table.flat_key_shift)
        word_mask = (np.uint64(1) << shift) - np.uint64(1)
        # Every fingerprint's word interval [lo, hi) spans 2^value_bits words
        # (no wrap: packed (block, word) keys leave the word under 64 bits).
        word_span = np.uint64(1) << np.uint64(self.config.value_bits)
        block_size = self.config.block_size
        data = self.table.slots.peek()
        removed = np.zeros(keys.size, dtype=bool)
        with self.kernels.launch("bulk_tcf_delete"):
            pending = np.arange(keys.size)
            for candidates in (primary, secondary):
                if pending.size == 0:
                    break
                probe_lo = candidates[pending].astype(np.uint64)
                probe_lo <<= shift
                probe_lo |= lo_w[pending]
                # Rank duplicate (block, fingerprint) requests in batch order
                # so each consumes a distinct stored slot.  Everything below
                # stays in this sorted order.
                order = stable_argsort(probe_lo)
                probe_lo = probe_lo[order]
                rank = group_ranks(probe_lo)
                blocks = (probe_lo >> shift).view(np.int64)
                words = probe_lo & word_mask
                del probe_lo
                # The stored copies of a fingerprint are one sorted span of
                # its candidate row: two in-row searches bound it.
                lo = self.table.row_lower_bound(blocks, words)
                n_avail = self.table.row_lower_bound(blocks, words + word_span) - lo
                take = rank < n_avail
                # Each request stages its candidate block (read + one pass).
                account_batched_tiles(
                    self.table.slots,
                    int(pending.size),
                    block_size,
                    self.recorder,
                    rewritten=False,
                )
                hits = order[take]
                if hits.size:
                    hit_blocks = blocks[take]
                    data[hit_blocks * block_size + lo[take] + rank[take]] = EMPTY_SLOT
                    # The probes were sorted by block, so the touched blocks
                    # dedupe with a plain first-occurrence flag.
                    self.table.resort_rows(hit_blocks[run_first_mask(hit_blocks)])
                    # Hits recompact and write their block back (per request,
                    # as the per-item path re-stages the block every time).
                    self.recorder.add(
                        shared_memory_accesses=block_size * int(hits.size),
                        cache_line_writes=int(hits.size),
                    )
                    removed[pending[hits]] = True
                pending = pending[order[~take]]
            if pending.size:
                removed[pending] = self.backing.bulk_delete(keys[pending])
        n_removed = int(np.count_nonzero(removed))
        self._n_items -= n_removed
        return n_removed
