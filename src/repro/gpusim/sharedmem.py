"""Block-shared memory staging used by the bulk TCF.

The bulk TCF loads each block of the table into shared memory, performs all
reads/writes with shared-memory atomics, and finally writes the block back to
global memory as one coalesced cache-wide store (Section 4.2 of the paper).
:class:`SharedMemoryTile` models that staging buffer: loads/stores against
global memory are counted as coalesced line transactions, while accesses to
the tile itself are counted as (much cheaper) shared-memory accesses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .memory import DeviceArray
from .stats import StatsRecorder


def account_batched_tiles(
    source: DeviceArray,
    n_tiles: int,
    tile_elems: int,
    recorder: Optional[StatsRecorder] = None,
    rewritten: bool = True,
    instructions_per_tile: int = 0,
) -> None:
    """Record the traffic of staging ``n_tiles`` equal-sized tiles at once.

    The vectorised bulk paths operate on many blocks as one whole-array
    operation instead of entering a :class:`SharedMemoryTile` context per
    block.  This helper charges exactly what ``n_tiles`` stage / ``view()`` /
    ``replace()`` / flush cycles would have: one coalesced line load and (when
    ``rewritten``) one coalesced line store per tile, plus two shared-memory
    accesses per element (read into shared, write back after the merge).
    Passing ``rewritten=False`` models read-only staging (queries), which
    costs the load and a single pass over the tile.
    """
    if n_tiles <= 0 or tile_elems <= 0:
        return
    recorder = recorder if recorder is not None else source.recorder
    lines_per_tile = max(1, (tile_elems * source.itemsize + source.cache_line_bytes - 1)
                         // source.cache_line_bytes)
    events = {
        "cache_line_reads": n_tiles * lines_per_tile,
        "shared_memory_accesses": n_tiles * tile_elems * (2 if rewritten else 1),
    }
    if rewritten:
        events["cache_line_writes"] = n_tiles * lines_per_tile
    if instructions_per_tile:
        events["instructions"] = n_tiles * instructions_per_tile
    recorder.add(**events)


class SharedMemoryTile:
    """A staging copy of a contiguous region of a :class:`DeviceArray`.

    Parameters
    ----------
    source:
        The device array being staged.
    start, stop:
        The staged element range ``[start, stop)``.
    recorder:
        Stats recorder; defaults to the source array's recorder.
    """

    def __init__(
        self,
        source: DeviceArray,
        start: int,
        stop: int,
        recorder: Optional[StatsRecorder] = None,
    ) -> None:
        if not 0 <= start <= stop <= source.size:
            raise IndexError(
                f"tile range [{start}, {stop}) outside array of size {source.size}"
            )
        self.source = source
        self.start = int(start)
        self.stop = int(stop)
        self.recorder = recorder if recorder is not None else source.recorder
        # Cooperative, coalesced load of the whole tile.
        self.local = np.array(source.read_range(start, stop), copy=True)
        self._dirty = False

    @property
    def size(self) -> int:
        return self.stop - self.start

    # -- shared-memory accesses ------------------------------------------------
    def read(self, offset: int):
        """Read one element from the tile (shared-memory access)."""
        self.recorder.add(shared_memory_accesses=1)
        return self.local[offset]

    def write(self, offset: int, value) -> None:
        """Write one element into the tile (shared-memory access)."""
        self.recorder.add(shared_memory_accesses=1)
        self.local[offset] = value
        self._dirty = True

    def view(self) -> np.ndarray:
        """Whole-tile view (counted as one shared access per element)."""
        self.recorder.add(shared_memory_accesses=self.size)
        return self.local

    def replace(self, values: np.ndarray) -> None:
        """Replace the whole tile contents (e.g. after a merge)."""
        values = np.asarray(values, dtype=self.local.dtype)
        if values.size != self.size:
            raise ValueError("replacement must match the tile size")
        self.recorder.add(shared_memory_accesses=self.size)
        self.local = np.array(values, copy=True)
        self._dirty = True

    # -- write-back ----------------------------------------------------------
    def flush(self) -> None:
        """Write the tile back to global memory as a coalesced store."""
        if self._dirty:
            self.source.write_range(self.start, self.local)
            self._dirty = False

    def __enter__(self) -> "SharedMemoryTile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
