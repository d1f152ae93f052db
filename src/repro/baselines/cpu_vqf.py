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

The bulk insert, query and delete are the point TCF's batched two-choice
replays on :class:`~repro.core.tcf.block.BlockedTable`, with this design's
own kernel launches (``cpu_vqf_*``) and no backing table.  The one
difference is the insert's: the VQF's point :meth:`insert` re-reads the
block on every attempt, so its replay charges that read too.  The point
methods stay the per-item reference the replays are pinned to.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.base import AbstractFilter, FilterCapabilities, restore_array
from ..core.exceptions import FilterFullError, UnsupportedOperationError
from ..core.tcf.block import BlockedTable
from ..core.tcf.config import TCFConfig
from ..gpusim.kernel import KernelContext
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
    def _derive_batch(self, keys: np.ndarray) -> potc.PotcHash:
        return potc.derive(
            keys.astype(np.uint64),
            self.table.n_blocks,
            self.config.fingerprint_bits,
        )

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The design's one batched insert, reported per key: a key whose two
        blocks are both full comes back False, and every later key is still
        tried.  The point TCF's insert replay, with the block read this
        design's :meth:`insert` repeats on every attempt."""
        keys = np.asarray(keys, dtype=np.uint64)
        if values is not None and np.any(np.asarray(values)):
            raise UnsupportedOperationError("the VQF does not associate values")
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        with self.kernels.launch("cpu_vqf_insert"):
            h = self._derive_batch(keys)
            placed = self.table.two_choice_insert(
                h.primary, h.secondary, h.fingerprint, reread=True
            )
        self._n_items += int(np.count_nonzero(placed))
        return placed

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """:meth:`bulk_insert_mask` plus one :class:`FilterFullError` when a
        key was left out (after every placeable key is placed)."""
        placed = self.bulk_insert_mask(np.asarray(keys, dtype=np.uint64), values)
        if not placed.all():
            raise FilterFullError(
                "VQF: both candidate blocks are full",
                n_items=self._n_items,
                n_slots=self.table.n_slots,
                load_factor=self.load_factor,
                batch_offset=int(np.argmin(placed)),
            )
        return int(placed.size)

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        with self.kernels.launch("cpu_vqf_query"):
            h = self._derive_batch(keys)
            return self.table.two_choice_query(h.primary, h.secondary, h.fingerprint)

    def bulk_delete(self, keys: Sequence[int]) -> int:
        """Remove one stored copy per key, in batch order, as a loop of
        :meth:`delete` does."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        with self.kernels.launch("cpu_vqf_delete"):
            h = self._derive_batch(keys)
            removed = self.table.two_choice_delete(h.primary, h.secondary, h.fingerprint)
        n_removed = int(np.count_nonzero(removed))
        self._n_items -= n_removed
        return n_removed

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
