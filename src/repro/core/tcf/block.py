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
fill primitives that :class:`~repro.core.tcf.point_tcf.PointTCF` composes
with power-of-two-choice hashing.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

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

    def block_free(self, block_idx: int, block: Optional[np.ndarray] = None) -> int:
        """Number of insertable (empty or tombstoned) slots in a block."""
        if block is None:
            block = self.load_block(block_idx)
        return int(np.count_nonzero((block == EMPTY_SLOT) | (block == TOMBSTONE_SLOT)))

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
        targets = np.asarray(words, dtype=np.uint64)
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
    def iter_live_slots(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(block_idx, fingerprint, value)`` for every live slot.

        Host-side enumeration helper (used for resize / merge / testing);
        does not count device traffic.
        """
        data = self.slots.peek()
        for flat_index in np.flatnonzero((data != EMPTY_SLOT) & (data != TOMBSTONE_SLOT)):
            block_idx = int(flat_index) // self.config.block_size
            fp, value = self.unpack(int(data[flat_index]))
            yield block_idx, fp, value

    def live_count(self) -> int:
        """Total number of live slots (host-side, unaccounted)."""
        data = self.slots.peek()
        return int(np.count_nonzero((data != EMPTY_SLOT) & (data != TOMBSTONE_SLOT)))

    def fills(self) -> np.ndarray:
        """Per-block live-slot counts (host-side, for load-variance tests)."""
        data = self.slots.peek().reshape(self.n_blocks, self.config.block_size)
        live = (data != EMPTY_SLOT) & (data != TOMBSTONE_SLOT)
        return live.sum(axis=1)
