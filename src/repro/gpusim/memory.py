"""Simulated GPU device memory with cache-line accounting.

:class:`DeviceArray` wraps a NumPy array and records every access as one or
more 128-byte cache-line transactions in a :class:`~repro.gpusim.stats.
StatsRecorder`.  The filters in this reproduction do all of their table
accesses through these wrappers, so the number of transactions counted per
operation matches the paper's first-principles analysis (e.g. "two cache-line
probes per TCF query", ":math:`\\log(1/\\varepsilon)` cache misses per Bloom
filter insert").

:class:`DeviceAllocator` tracks total allocated bytes, which is what the
MetaHipMer memory-accounting experiment (Table 3) reports.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .stats import GLOBAL_RECORDER, StatsRecorder


class DeviceArray:
    """A typed array living in simulated GPU global memory.

    Parameters
    ----------
    shape:
        Shape of the array (int or tuple).
    dtype:
        NumPy dtype of each element.
    recorder:
        Stats recorder receiving the cache-line transaction counts.
    cache_line_bytes:
        Memory-transaction granularity (128 bytes on V100/A100).
    fill:
        Optional fill value for initialisation.
    name:
        Debug label used in ``repr``.
    """

    def __init__(
        self,
        shape,
        dtype,
        recorder: Optional[StatsRecorder] = None,
        cache_line_bytes: int = 128,
        fill=0,
        name: str = "devarray",
    ) -> None:
        self.data = np.full(shape, fill, dtype=dtype)
        self.recorder = recorder if recorder is not None else GLOBAL_RECORDER
        self.cache_line_bytes = int(cache_line_bytes)
        self.name = name

    # -- basic properties --------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def itemsize(self) -> int:
        return int(self.data.itemsize)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DeviceArray(name={self.name!r}, shape={self.data.shape}, "
            f"dtype={self.data.dtype}, nbytes={self.nbytes})"
        )

    # -- cache-line helpers --------------------------------------------------
    @property
    def slots_per_line(self) -> int:
        """How many elements fit in a single cache line (at least 1)."""
        return max(1, self.cache_line_bytes // self.itemsize)

    def line_of(self, index: int) -> int:
        """Return the cache-line number containing flat element ``index``."""
        return int(index) // self.slots_per_line

    def lines_in_range(self, start: int, stop: int) -> int:
        """Number of distinct cache lines touched by ``[start, stop)``."""
        if stop <= start:
            return 0
        first = self.line_of(start)
        last = self.line_of(stop - 1)
        return last - first + 1

    # -- accounted accesses ---------------------------------------------------
    def read(self, index: int):
        """Read a single element, counting one cache-line read."""
        self.recorder.add(cache_line_reads=1)
        return self.data[index]

    def write(self, index: int, value) -> None:
        """Write a single element, counting one cache-line write."""
        self.recorder.add(cache_line_writes=1)
        self.data[index] = value

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """Read ``[start, stop)``; counts the distinct cache lines touched.

        This models a cooperative group (or a single thread) streaming over a
        contiguous region: contiguous accesses coalesce into full-line
        transactions.
        """
        lines = self.lines_in_range(start, stop)
        if lines:
            self.recorder.add(cache_line_reads=lines)
        return self.data[start:stop]

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Write a contiguous range starting at ``start`` (coalesced)."""
        stop = start + len(values)
        lines = self.lines_in_range(start, stop)
        if lines:
            self.recorder.add(
                cache_line_writes=lines,
            )
        self.data[start:stop] = values

    # -- unaccounted "host" access --------------------------------------------
    def peek(self, index=None):
        """Host-side debug access that does not count any transaction."""
        if index is None:
            return self.data
        return self.data[index]


class DeviceAllocator:
    """Tracks device-memory allocations for memory-accounting experiments.

    The MetaHipMer integration (Table 3) reports how much GPU/host memory the
    TCF and the k-mer hash table consume.  Filters register their backing
    arrays with an allocator so applications can report structure footprints
    without reaching into implementation details.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        self.capacity_bytes = capacity_bytes
        self.allocations: dict[str, int] = {}

    def register(self, label: str, nbytes: int) -> None:
        """Record an allocation of ``nbytes`` under ``label`` (accumulates)."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        new_total = self.total_bytes + nbytes
        if self.capacity_bytes is not None and new_total > self.capacity_bytes:
            raise MemoryError(
                f"device OOM: requested {nbytes} bytes for {label!r}, "
                f"{self.total_bytes} already allocated of {self.capacity_bytes}"
            )
        self.allocations[label] = self.allocations.get(label, 0) + nbytes

    def release(self, label: str) -> None:
        """Release every allocation recorded under ``label``."""
        self.allocations.pop(label, None)

    @property
    def total_bytes(self) -> int:
        """Total bytes currently registered."""
        return sum(self.allocations.values())

    def report(self) -> dict[str, int]:
        """Return a copy of the allocation table."""
        return dict(self.allocations)
