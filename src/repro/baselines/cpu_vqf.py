"""CPU vector quotient filter (VQF) baseline for the CPU-vs-GPU comparison.

The VQF (Pandey et al., SIGMOD 2021) is the CPU ancestor of the TCF: items
are hashed to one of two cache-line-sized blocks (power-of-two-choice), and
fingerprints inside a block are stored compactly using quotienting with two
per-block metadata words.  On the CPU the block is manipulated with AVX-512
vector instructions — hence the name.

For the Table 4 comparison the structural behaviour is what matters: two
cache lines probed per query, one written per insert, no kicking, no
counting.  This reproduction reuses the blocked table from the TCF with a
64-slot block (one 64-byte cache line of 8-bit fingerprints on the CPU is
too small to be interesting; the published VQF uses 48 slots per 512-bit
block pair — we use the same fingerprint budget) and exposes the CPU thread
count to the throughput harness.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.base import AbstractFilter, FilterCapabilities, prefers_sequential, restore_array
from ..core.exceptions import FilterFullError, UnsupportedOperationError
from ..core.tcf.block import BlockedTable
from ..core.tcf.config import EMPTY_SLOT, TOMBSTONE_SLOT, TCFConfig
from ..gpusim.kernel import KernelContext, point_launch
from ..gpusim.stats import StatsRecorder
from ..hashing import potc
from .cpu_cqf import KNL_THREADS

#: VQF block layout: 48 slots of 8-bit fingerprints per 512-bit block pair.
VQF_CONFIG = TCFConfig(
    fingerprint_bits=8,
    block_size=48,
    cg_size=1,
    shortcut_fill=0.75,
    backing_fraction=0.01,
    max_load_factor=0.94,
)


class CPUVectorQuotientFilter(AbstractFilter):
    """Multi-threaded CPU vector quotient filter (Table 4 baseline).

    Parameters
    ----------
    n_slots:
        Total fingerprint slots.
    n_threads:
        Worker threads available (272 on KNL).
    recorder:
        Optional stats recorder.
    """

    name = "VQF (CPU)"

    def __init__(
        self,
        n_slots: int,
        n_threads: int = KNL_THREADS,
        recorder: Optional[StatsRecorder] = None,
    ) -> None:
        super().__init__(recorder)
        self.config = VQF_CONFIG
        n_blocks = max(2, (int(n_slots) + self.config.block_size - 1) // self.config.block_size)
        self.table = BlockedTable(n_blocks, self.config, self.recorder, name="cpu-vqf-table")
        self.n_threads = int(n_threads)
        self._n_items = 0
        self.kernels = KernelContext(self.recorder)

    @classmethod
    def for_capacity(
        cls, n_items: int, recorder: Optional[StatsRecorder] = None
    ) -> "CPUVectorQuotientFilter":
        n_slots = int(np.ceil(n_items / VQF_CONFIG.max_load_factor))
        return cls(n_slots, recorder=recorder)

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
            values=False,
            resizable=False,
        )

    @classmethod
    def nominal_nbytes(cls, n_slots: int) -> int:
        return (n_slots * VQF_CONFIG.packed_slot_bits + 7) // 8

    # ------------------------------------------------------------------- sizes
    @property
    def capacity(self) -> int:
        return int(self.table.n_slots * self.config.max_load_factor)

    @property
    def n_slots(self) -> int:
        return self.table.n_slots

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

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

    # ------------------------------------------------------------------ point API
    def insert(self, key: int, value: int = 0) -> bool:
        if value:
            raise UnsupportedOperationError("the VQF does not associate values")
        h = potc.derive(
            np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF),
            self.table.n_blocks,
            self.config.fingerprint_bits,
        )
        primary_fill = self.table.block_fill(h.primary)
        order = [h.primary, h.secondary]
        if primary_fill / self.config.block_size >= self.config.shortcut_fill:
            secondary_fill = self.table.block_fill(h.secondary)
            if secondary_fill < primary_fill:
                order = [h.secondary, h.primary]
        for block_idx in order:
            if self.table.insert(block_idx, int(h.fingerprint)):
                self._n_items += 1
                return True
        raise FilterFullError(
            "VQF: both candidate blocks are full",
            n_items=self._n_items,
            n_slots=self.table.n_slots,
            load_factor=self.load_factor,
        )

    def query(self, key: int) -> bool:
        h = potc.derive(
            np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF),
            self.table.n_blocks,
            self.config.fingerprint_bits,
        )
        if self.table.contains(h.primary, int(h.fingerprint)):
            return True
        return self.table.contains(h.secondary, int(h.fingerprint))

    def delete(self, key: int) -> bool:
        h = potc.derive(
            np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF),
            self.table.n_blocks,
            self.config.fingerprint_bits,
        )
        for block_idx in (h.primary, h.secondary):
            if self.table.delete(block_idx, int(h.fingerprint)):
                self._n_items -= 1
                return True
        return False

    def count(self, key: int) -> int:
        raise UnsupportedOperationError("the VQF does not support counting")

    def get_value(self, key: int) -> Optional[int]:
        raise UnsupportedOperationError("the VQF does not associate values")

    # ---------------------------------------------------------------- bulk API
    def _prefers_sequential(self, batch_size: int) -> bool:
        """Tiny batches keep the per-item route; the whole-batch emulation
        below also assumes the VQF's single-lane cooperative groups."""
        return prefers_sequential(batch_size) or self.config.cg_size != 1

    def _derive_batch(self, keys: np.ndarray) -> potc.PotcHash:
        return potc.derive(
            keys.astype(np.uint64),
            self.table.n_blocks,
            self.config.fingerprint_bits,
        )

    def _bulk_insert_vectorised(self, keys: np.ndarray) -> None:
        """Batched two-choice insert replaying the per-item decision stream.

        The two-choice routing is inherently sequential (each insert changes
        the fills the next decision reads), so a compressed Python loop walks
        the batch over plain integer block fills — no per-slot cooperative-
        group machinery, no per-item DeviceArray staging — while the slot
        placement and all simulated hardware events are applied as whole-
        batch array operations afterwards.  Placements consume each block's
        free slots in scan order, exactly as the single-lane group's
        first-free ballot does, so table state *and* events match the
        per-item loop bit for bit.
        """
        h = self._derive_batch(keys)
        bs = self.config.block_size
        rows = self.table.rows()
        free_mask = (rows == EMPTY_SLOT) | (rows == TOMBSTONE_SLOT)
        live = (bs - free_mask.sum(axis=1)).astype(np.int64).tolist()
        lines = self.table.block_lines().tolist()
        cas_extra = 1 if self.config.cas_spans_slots else 0
        shortcut = self.config.shortcut_fill
        primaries = h.primary.tolist()
        secondaries = h.secondary.tolist()
        words = np.asarray(h.fingerprint)
        free_offsets: dict = {}
        next_free: dict = {}
        reads = instr = intr = atomics = n_cas = 0
        dest_flat = []
        dest_row = []
        overflowed = False
        for i in range(len(primaries)):
            p, s = primaries[i], secondaries[i]
            lp = live[p]
            # block_fill(primary): one block fetch + a strided fill count.
            reads += lines[p]
            instr += bs + 1
            first, second = p, s
            if lp / bs >= shortcut:
                ls = live[s]
                reads += lines[s]
                instr += bs + 1
                if ls < lp:
                    first, second = s, p
            placed = False
            for b in (first, second):
                # table.insert: block fetch (+ the extra atomic a sub-CAS-word
                # slot costs), then the single-lane scan for a free slot.
                reads += lines[b]
                atomics += cas_extra
                if live[b] < bs:
                    offs = free_offsets.get(b)
                    if offs is None:
                        offs = np.flatnonzero(free_mask[b]).tolist()
                        free_offsets[b] = offs
                        next_free[b] = 0
                    o = offs[next_free[b]]
                    next_free[b] += 1
                    live[b] += 1
                    # o+1 strided steps and ballots, leader election, the
                    # successful CAS, and the closing ballot.
                    instr += o + 2
                    intr += o + 3
                    atomics += 1
                    n_cas += 1
                    dest_flat.append(b * bs + o)
                    dest_row.append(i)
                    placed = True
                    break
                # Full block: the scan ballots across every slot and gives up.
                instr += bs
                intr += bs
            if not placed:
                overflowed = True
                break
        if dest_flat:
            data = self.table.slots.peek()
            data[np.asarray(dest_flat, dtype=np.int64)] = words[dest_row].astype(
                data.dtype
            )
        self.recorder.add(
            cache_line_reads=reads,
            instructions=instr,
            warp_intrinsics=intr,
            atomic_ops=atomics,
            coalesced_bytes_read=32 * n_cas,
            coalesced_bytes_written=32 * n_cas,
        )
        self._n_items += len(dest_flat)
        if overflowed:
            raise FilterFullError(
                "VQF: both candidate blocks are full",
                n_items=self._n_items,
                n_slots=self.table.n_slots,
                load_factor=self.load_factor,
                batch_offset=len(dest_flat),
            )

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        keys = np.asarray(keys, dtype=np.uint64)
        if values is not None and np.any(np.asarray(values)):
            raise UnsupportedOperationError("the VQF does not associate values")
        with self.kernels.launch("cpu_vqf_insert", point_launch(keys.size, 1)):
            if self._prefers_sequential(int(keys.size)):
                for key in keys:
                    self.insert(int(key))
            elif keys.size:
                self._bulk_insert_vectorised(keys)
        return int(keys.size)

    def _bulk_query_vectorised(self, keys: np.ndarray) -> np.ndarray:
        """Whole-batch two-block probe with per-item-calibrated events.

        Each probe gathers its candidate row and finds the first matching
        slot in one vectorised scan; the recorded events mirror the
        single-lane group's ballot-per-slot walk with its early exit
        (fingerprints never collide with the empty/tombstone sentinels, so a
        word match is a live match).
        """
        h = self._derive_batch(keys)
        bs = self.config.block_size
        rows = self.table.rows()
        lines = self.table.block_lines()
        fingerprints = np.asarray(h.fingerprint)

        def scan(blocks: np.ndarray, fps: np.ndarray):
            match = rows[blocks] == fps[:, None]
            found = match.any(axis=1)
            steps = np.where(found, np.argmax(match, axis=1) + 2, bs)
            return found, int(steps.sum())

        found, events1 = scan(h.primary, fingerprints)
        reads = int(lines[h.primary].sum())
        instr = intr = events1
        out = found.copy()
        miss = np.flatnonzero(~found)
        if miss.size:
            found2, events2 = scan(h.secondary[miss], fingerprints[miss])
            reads += int(lines[h.secondary[miss]].sum())
            instr += events2
            intr += events2
            out[miss[found2]] = True
        self.recorder.add(
            cache_line_reads=reads, instructions=instr, warp_intrinsics=intr
        )
        return out

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.size, dtype=bool)
        with self.kernels.launch("cpu_vqf_query", point_launch(keys.size, 1)):
            if self._prefers_sequential(int(keys.size)):
                for i, key in enumerate(keys):
                    out[i] = self.query(int(key))
            elif keys.size:
                out = self._bulk_query_vectorised(keys)
        return out

    # --------------------------------------------------------------- lifecycle
    def snapshot_config(self) -> dict:
        return {"n_slots": self.table.n_slots, "n_threads": self.n_threads}

    def snapshot_state(self) -> dict:
        return {
            "table": self.table.slots.peek().copy(),
            "scalars": np.array([self._n_items], dtype=np.int64),
        }

    def restore_state(self, state) -> None:
        restore_array(self.table.slots.peek(), state["table"], "table")
        self._n_items = int(np.asarray(state["scalars"])[0])
