"""Cooperative-group block operations for the TCF (paper Algorithm 1).

A TCF table is an array of fixed-size blocks, each sized to fit within one
GPU cache line.  All point operations are performed by a cooperative group
that strides over the block, ballots on which lanes found a match / empty
slot, elects a leader with ``__ffs`` and lets the leader attempt an
``atomicCAS``.  On CAS failure the group re-ballots among the remaining
candidates, exactly as Algorithm 1 describes.

:class:`BlockedTable` owns the slot array (a
:class:`~repro.gpusim.memory.DeviceArray`, so every access is accounted as
cache-line traffic) and implements the block-level insert / query / delete /
fill primitives that :class:`~repro.core.tcf.point_tcf.PointTCF` and the
CPU VQF baseline compose with power-of-two-choice hashing.  Next to them sit
their batched replays (``two_choice_insert`` / ``two_choice_query`` /
``two_choice_delete``): a whole batch over each key's two candidate blocks,
with the same table state and simulated events as a loop of the per-item
calls.  Both designs' bulk calls run these replays; the CPU VQF's insert
differs only in re-reading the block on every attempt, one argument of the
insert replay.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...gpusim.atomics import atomic_cas
from ...gpusim.memory import DeviceArray
from ...gpusim.stats import StatsRecorder
from ...gpusim.warp import CooperativeGroup
from .config import EMPTY_SLOT, TOMBSTONE_SLOT, TCFConfig


class BlockedTable:
    """A table of cache-line-sized blocks of fingerprint slots.

    Parameters
    ----------
    n_blocks:
        Number of blocks.
    config:
        The TCF configuration (block size, fingerprint width, CG size).
    recorder:
        Stats recorder shared with the owning filter.
    name:
        Label used for the underlying device allocation.
    """

    def __init__(
        self,
        n_blocks: int,
        config: TCFConfig,
        recorder: StatsRecorder,
        name: str = "tcf-table",
    ) -> None:
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        self.n_blocks = int(n_blocks)
        self.config = config
        self.recorder = recorder
        self.slots = DeviceArray(
            self.n_blocks * config.block_size,
            config.slot_dtype,
            recorder,
            fill=EMPTY_SLOT,
            name=name,
        )
        self._cg = CooperativeGroup(config.cg_size, recorder)
        self._block_lines: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ sizes
    @property
    def n_slots(self) -> int:
        return self.n_blocks * self.config.block_size

    @property
    def nbytes(self) -> int:
        """Packed size of the table in bytes (space-accounting view)."""
        return (self.n_slots * self.config.packed_slot_bits + 7) // 8

    def block_lines(self) -> np.ndarray:
        """Cache lines spanned by each block's slot row (alignment-aware)."""
        if self._block_lines is None:
            bs = self.config.block_size
            starts = np.arange(self.n_blocks, dtype=np.int64) * bs
            per_line = self.slots.slots_per_line
            self._block_lines = (starts + bs - 1) // per_line - starts // per_line + 1
        return self._block_lines

    def block_bounds(self, block_idx: int) -> Tuple[int, int]:
        """Return the ``[start, stop)`` slot range of a block."""
        if not 0 <= block_idx < self.n_blocks:
            raise IndexError(f"block {block_idx} out of range")
        start = block_idx * self.config.block_size
        return start, start + self.config.block_size

    # --------------------------------------------------------------- slot pack
    def pack(self, fingerprint: int, value: int = 0) -> int:
        """Pack a fingerprint and value into one slot word."""
        vb = self.config.value_bits
        word = (int(fingerprint) << vb) | (int(value) & ((1 << vb) - 1) if vb else 0)
        return word

    def unpack(self, word: int) -> Tuple[int, int]:
        """Split a slot word into (fingerprint, value)."""
        vb = self.config.value_bits
        word = int(word)
        if vb == 0:
            return word, 0
        return word >> vb, word & ((1 << vb) - 1)

    # ------------------------------------------------------------------- fill
    def load_block(self, block_idx: int) -> np.ndarray:
        """Cooperatively load a block (one coalesced cache-line read)."""
        start, stop = self.block_bounds(block_idx)
        return self.slots.read_range(start, stop)

    def block_fill(self, block_idx: int, block: Optional[np.ndarray] = None) -> int:
        """Number of live (non-empty, non-tombstone) slots in a block."""
        if block is None:
            block = self.load_block(block_idx)
        self.recorder.add(instructions=self.config.block_size // max(1, self.config.cg_size) + 1)
        return int(np.count_nonzero((block != EMPTY_SLOT) & (block != TOMBSTONE_SLOT)))

    # ------------------------------------------------------------------ insert
    def insert(
        self,
        block_idx: int,
        fingerprint: int,
        value: int = 0,
        block: Optional[np.ndarray] = None,
    ) -> bool:
        """Algorithm 1: cooperative-group insert of a fingerprint into a block.

        Returns True on success, False when the block has no free slot.
        The group strides over the block, ballots for lanes that saw an
        empty/tombstone slot, elects a leader and CASes the packed word in;
        on CAS failure the group retries with the next candidate slot.

        ``block`` may carry an already-loaded copy of the block (the caller
        read it to check the fill), in which case no additional cache-line
        read is charged — mirroring the real kernel, which keeps the block in
        registers/shared memory between the fill check and the insert.
        """
        cg = self._cg
        start, stop = self.block_bounds(block_idx)
        word = self.pack(fingerprint, value)
        if block is None:
            block = self.load_block(block_idx)
        else:
            block = np.array(block, copy=True)
        if self.config.cas_spans_slots:
            # A 12-bit slot does not fill the 16-bit CAS word; roughly half
            # the inserts need a second atomic and may retry due to
            # neighbouring-slot writes. Model that extra atomic here.
            self.recorder.add(atomic_ops=1)
        for lane_indices in cg.strided_indices(0, self.config.block_size):
            lane_values = block[lane_indices]
            votes = (lane_values == EMPTY_SLOT) | (lane_values == TOMBSTONE_SLOT)
            ballot = cg.ballot(votes)
            while ballot:
                leader = cg.elect_leader(ballot)
                slot_offset = int(lane_indices[leader])
                slot_index = start + slot_offset
                expected = block[slot_offset]
                swapped, _old = atomic_cas(self.slots, slot_index, expected, word)
                if swapped:
                    cg.ballot(np.ones(1, dtype=bool))
                    return True
                # The leader lost the race (value changed under it); clear its
                # bit and re-ballot among the remaining candidates.
                block[slot_offset] = self.slots.peek(slot_index)
                ballot &= ~(1 << leader)
                self.recorder.add(divergent_branches=1)
        return False

    # ------------------------------------------------------------------- query
    def query(self, block_idx: int, fingerprint: int) -> Optional[int]:
        """Cooperative search for a fingerprint; returns the value or None."""
        cg = self._cg
        block = self.load_block(block_idx)
        vb = self.config.value_bits
        for lane_indices in cg.strided_indices(0, self.config.block_size):
            lane_values = block[lane_indices]
            if vb:
                shift = np.uint64(vb) if lane_values.dtype == np.uint64 else vb
                lane_fps = lane_values >> shift
            else:
                lane_fps = lane_values
            votes = (
                (lane_fps == fingerprint)
                & (lane_values != EMPTY_SLOT)
                & (lane_values != TOMBSTONE_SLOT)
            )
            ballot = cg.ballot(votes)
            if ballot:
                leader = cg.elect_leader(ballot)
                _fp, value = self.unpack(int(block[int(lane_indices[leader])]))
                return value
        return None

    def contains(self, block_idx: int, fingerprint: int) -> bool:
        """Membership check in one block."""
        return self.query(block_idx, fingerprint) is not None

    # ------------------------------------------------------------------ delete
    def delete(self, block_idx: int, fingerprint: int) -> bool:
        """Tombstone one matching fingerprint with a single atomicCAS."""
        cg = self._cg
        start, _stop = self.block_bounds(block_idx)
        block = self.load_block(block_idx)
        vb = self.config.value_bits
        for lane_indices in cg.strided_indices(0, self.config.block_size):
            lane_values = block[lane_indices]
            lane_fps = lane_values >> vb if vb else lane_values
            votes = (
                (lane_fps == fingerprint)
                & (lane_values != EMPTY_SLOT)
                & (lane_values != TOMBSTONE_SLOT)
            )
            ballot = cg.ballot(votes)
            while ballot:
                leader = cg.elect_leader(ballot)
                slot_offset = int(lane_indices[leader])
                expected = block[slot_offset]
                swapped, _old = atomic_cas(
                    self.slots, start + slot_offset, expected, TOMBSTONE_SLOT
                )
                if swapped:
                    return True
                ballot &= ~(1 << leader)
        return False

    # ------------------------------------------------ batched two-choice replays
    # The batched counterparts of insert / query / delete above, over each
    # key's two candidate blocks, as the point TCF and the CPU VQF compose
    # them.  Two-choice routing is inherently sequential (every insert
    # changes the fills the next decision reads), so the insert and the
    # delete walk the batch in a compressed Python loop over plain integer
    # fills and lazily built free-slot lists / match bitmasks, while slot
    # writes and all simulated hardware events are applied as whole-array
    # operations.  Placements and deletions consume each block's candidate
    # slots in scan order, exactly as the cooperative group's
    # stride-and-ballot walk does, so table state *and* events match a loop
    # of per-item calls bit for bit.  Fingerprints never equal the empty /
    # tombstone sentinels (the hash displaces them), so a fingerprint match
    # is a live match.  Each replay returns a per-key mask; the caller keeps
    # its item count and hands what the blocks could not serve to its
    # backing table, if it has one.

    def _scan_geometry(self) -> Tuple[int, int, int, int]:
        """``(block_size, cg_size, n_strides, tail_divergent)`` of a block scan."""
        bs, g = self.config.block_size, self.config.cg_size
        return bs, g, -(-bs // g), 1 if bs % g else 0

    def _match_rows(self, blocks: np.ndarray, fingerprints: np.ndarray) -> np.ndarray:
        """``(n, block_size)`` votes: which slots of ``blocks[i]`` hold ``fingerprints[i]``."""
        gathered = self.rows()[blocks]
        vb = self.config.value_bits
        words = (gathered >> vb) if vb else gathered
        return words == fingerprints[:, None]

    def _scan_events(self, match: np.ndarray) -> Tuple[np.ndarray, int, int, int]:
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

    def two_choice_insert(
        self,
        primary: np.ndarray,
        secondary: np.ndarray,
        words: np.ndarray,
        reread: bool = False,
    ) -> np.ndarray:
        """Batched two-choice insert of packed slot ``words``, in batch order.

        Per key: load the primary block and count its fill; at or above the
        shortcut fill, load the secondary too and try the less full block
        first; then :meth:`insert` into the first block with a free slot,
        reusing the copy the fill check loaded.  ``reread`` charges one more
        block read per insert attempt, for a caller whose per-item insert
        reloads the block instead.  Returns the mask of keys placed; a key
        whose two blocks are both full is left out and the walk goes on.
        """
        bs, g, n_strides, tail_div = self._scan_geometry()
        rows = self.rows()
        free_rows = (rows == EMPTY_SLOT) | (rows == TOMBSTONE_SLOT)
        live = (bs - free_rows.sum(axis=1)).astype(np.int64).tolist()
        lines = self.block_lines().tolist()
        cas_extra = 1 if self.config.cas_spans_slots else 0
        shortcut_fill = self.config.shortcut_fill
        fill_instr = bs // max(1, g) + 1  # block_fill's strided count
        primaries = primary.tolist()
        secondaries = secondary.tolist()
        free_offsets: dict = {}
        next_free: dict = {}
        reads = instr = intr = div = atomics = n_cas = 0
        dest_flat = []
        dest_row = []
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
            for b in candidates:
                if reread:
                    reads += lines[b]
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
                    break
                # Full block: the scan ballots every stride and gives up.
                instr += n_strides * g
                intr += n_strides
                div += tail_div
        if dest_flat:
            self.slots.peek()[np.asarray(dest_flat, dtype=np.int64)] = words[dest_row]
        self.recorder.add(
            cache_line_reads=reads,
            instructions=instr,
            warp_intrinsics=intr,
            divergent_branches=div,
            atomic_ops=atomics,
            coalesced_bytes_read=32 * n_cas,
            coalesced_bytes_written=32 * n_cas,
        )
        placed = np.zeros(len(primaries), dtype=bool)
        placed[dest_row] = True
        return placed

    def two_choice_query(
        self, primary: np.ndarray, secondary: np.ndarray, fingerprints: np.ndarray
    ) -> np.ndarray:
        """Batched two-block probe: :meth:`query` on each key's primary
        block, then on the secondary blocks of the primary's misses.
        Returns the mask of keys found."""
        lines = self.block_lines()
        fps = np.asarray(fingerprints).astype(self.config.slot_dtype)
        found, instr, intr, div = self._scan_events(self._match_rows(primary, fps))
        reads = int(lines[primary].sum())
        miss = np.flatnonzero(~found)
        if miss.size:
            found2, i2, t2, d2 = self._scan_events(
                self._match_rows(secondary[miss], fps[miss])
            )
            reads += int(lines[secondary[miss]].sum())
            instr += i2
            intr += t2
            div += d2
            found[miss[found2]] = True
        self.recorder.add(
            cache_line_reads=reads,
            instructions=instr,
            warp_intrinsics=intr,
            divergent_branches=div,
        )
        return found

    def two_choice_delete(
        self, primary: np.ndarray, secondary: np.ndarray, fingerprints: np.ndarray
    ) -> np.ndarray:
        """Batched tombstoning: :meth:`delete` on each key's primary block,
        then its secondary, in batch order.

        Requests against the same ``(block, fingerprint)`` — duplicate keys,
        or distinct keys aliasing to one fingerprint — consume the stored
        copies positionally in slot-scan order, exactly as sequential
        deletes do.  Returns the mask of keys tombstoned.
        """
        bs, g, n_strides, tail_div = self._scan_geometry()
        lines = self.block_lines().tolist()
        fps = np.asarray(fingerprints).astype(self.config.slot_dtype)
        # Per-request match bitmask of each candidate block (bit k set when
        # slot k holds the fingerprint); blocks fit a cache line, so at most
        # 64 slots and the mask fits one uint64.
        weights = np.uint64(1) << np.arange(bs, dtype=np.uint64)

        def match_bits(blocks: np.ndarray) -> list:
            return (self._match_rows(blocks, fps) * weights).sum(axis=1).tolist()

        bits_primary = match_bits(primary)
        bits_secondary = match_bits(secondary)
        primaries = primary.tolist()
        secondaries = secondary.tolist()
        fp_list = fps.tolist()
        claim_bits: dict = {}
        removed = np.zeros(len(primaries), dtype=bool)
        tomb_flat = []
        reads = instr = intr = div = atomics = n_cas = 0
        for i in range(len(primaries)):
            fp = fp_list[i]
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
                    break
                claim_bits[key] = 0
                instr += n_strides * g
                intr += n_strides
                div += tail_div
        if tomb_flat:
            self.slots.peek()[np.asarray(tomb_flat, dtype=np.int64)] = TOMBSTONE_SLOT
        self.recorder.add(
            cache_line_reads=reads,
            instructions=instr,
            warp_intrinsics=intr,
            divergent_branches=div,
            atomic_ops=atomics,
            coalesced_bytes_read=32 * n_cas,
            coalesced_bytes_written=32 * n_cas,
        )
        return removed

    # ------------------------------------------------------- batched (bulk) view
    def rows(self) -> np.ndarray:
        """Host-side ``(n_blocks, block_size)`` view of the slot array.

        Writes through; callers charge the appropriate staged-tile traffic
        via :func:`repro.gpusim.sharedmem.account_batched_tiles`.
        """
        return self.slots.peek().reshape(self.n_blocks, self.config.block_size)

    def resort_rows(self, block_indices: np.ndarray) -> None:
        """Re-sort the given blocks ascending (host-side, writes through).

        The bulk TCF's row invariant — every block ascending, so empties (0)
        and tombstones (1) sit in front of the live fingerprint words — is
        what makes the batched in-row binary search (:meth:`row_lower_bound`)
        possible.
        """
        if block_indices.size == 0:
            return
        rows = self.rows()
        staged = rows[block_indices]
        staged.sort(axis=1)
        rows[block_indices] = staged

    @property
    def flat_key_shift(self) -> Optional[int]:
        """Bit shift packing ``(block, slot word)`` into one uint64 sort key.

        ``None`` when a slot word plus the block index cannot fit 64 bits
        (only reachable with 64-bit slot words), in which case the bulk paths
        fall back to per-item probing.
        """
        shift = 8 * self.config.slot_dtype.itemsize
        if self.n_blocks > (1 << (64 - shift)):
            return None
        return shift

    def row_lower_bound(self, blocks: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Batched in-row binary search: per probe, the first slot offset of
        ``blocks[i]``'s row whose word is >= ``words[i]`` (or ``words``, when
        one word is searched in every row).

        A branchless lower bound over the sorted rows — log2(B) strided
        gathers for the whole batch, the vectorised equivalent of the
        cooperative group's in-tile binary search.  Host-side helper; callers
        charge one staged line and log2(B) instructions per probe.
        """
        data = self.slots.peek()
        bs = self.config.block_size
        row_start = blocks.astype(np.int64) * bs
        targets = np.asarray(words)
        if targets.dtype != data.dtype:  # slot-dtype words compare as they are
            targets = targets.astype(np.uint64)
        # Branchless lower bound on flat positions: the answer lies in
        # [pos, pos + n]; each step halves n, and every gather stays inside
        # the row (pos + half <= row_start + bs - 1), for any block size.
        # (A plain multiply-add beats a masked ``np.add(..., where=)``.)
        pos = row_start.copy()
        n = bs
        while n > 1:
            half = n // 2
            pos += (data[pos + half] < targets) * half
            n -= half
        pos += data[pos] < targets
        return pos - row_start

    # --------------------------------------------------------------- iterate
    def fills(self) -> np.ndarray:
        """Per-block live-slot counts (host-side, for load-variance tests)."""
        data = self.slots.peek().reshape(self.n_blocks, self.config.block_size)
        live = (data != EMPTY_SLOT) & (data != TOMBSTONE_SLOT)
        return live.sum(axis=1)
