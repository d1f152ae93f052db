"""Kernel-launch abstraction for the GPU execution-model simulator.

Point filters map one cooperative group per item; bulk filters map one thread
(or one cooperative group) per *region* or per *block*.  The number of
threads a kernel exposes determines how well it saturates the GPU, which is
the mechanism behind the paper's observation that bulk-filter insert
throughput grows with the filter size (Section 6.2).

:class:`KernelLaunch` records the launch geometry and the logical operation
count so :mod:`repro.gpusim.perfmodel` can combine the event trace and the
exposed parallelism into an estimated execution time.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator
from .stats import KernelStats, StatsRecorder
from .warp import WARP_SIZE


@dataclass
class LaunchConfig:
    """Geometry of a simulated kernel launch.

    Attributes
    ----------
    n_work_items:
        Logical work items (items inserted, regions processed, ...).
    threads_per_item:
        Threads cooperating on each work item (the cooperative-group size for
        point filters, 1 for region-per-thread bulk kernels).
    block_size:
        CUDA thread-block size; only used for reporting.
    """

    n_work_items: int
    threads_per_item: int = 1
    block_size: int = 256

    def __post_init__(self) -> None:
        if self.n_work_items < 0:
            raise ValueError("work-item count must be non-negative")
        if self.threads_per_item <= 0:
            raise ValueError("threads_per_item must be positive")
        if self.block_size <= 0 or self.block_size % WARP_SIZE:
            raise ValueError("block_size must be a positive multiple of 32")


@dataclass
class KernelRecord:
    """One recorded kernel: its geometry plus the stats it produced."""

    name: str
    config: LaunchConfig
    stats: KernelStats = field(default_factory=KernelStats)


class KernelContext:
    """Collects the kernels launched while running a benchmark phase.

    Filters call :meth:`launch` around each simulated kernel.  The context
    stores per-kernel stats and exposes aggregate summaries for the perf
    model.  When no context is active, launches still record into the
    filter's stats recorder (so functional tests need no ceremony).
    """

    def __init__(self, recorder: StatsRecorder) -> None:
        self.recorder = recorder
        self.kernels: list[KernelRecord] = []
        self._open = 0

    @contextlib.contextmanager
    def launch(self, name: str, config: LaunchConfig) -> Iterator[KernelRecord]:
        """Scope the events of one kernel launch."""
        record = KernelRecord(name=name, config=config)
        self.recorder.add(kernel_launches=1)
        record.stats.kernel_launches = 1
        with self.recorder.section(f"kernel:{name}"):
            # Nest a throwaway recorder section by stacking the record stats.
            self.recorder._active.append(record.stats)
            self._open += 1
            try:
                yield record
            finally:
                self._open -= 1
                self.recorder._active.pop()
        self.kernels.append(record)

    @property
    def in_launch(self) -> bool:
        """Whether a launch of this context is open (its record absorbs
        every event recorded until it closes)."""
        return self._open > 0

    # -- aggregate views -------------------------------------------------------
    @property
    def total_stats(self) -> KernelStats:
        """Sum of the stats of every recorded kernel."""
        out = KernelStats()
        for k in self.kernels:
            out.merge(k.stats)
        return out

    def kernels_named(self, prefix: str) -> list[KernelRecord]:
        """All kernels whose name starts with ``prefix``."""
        return [k for k in self.kernels if k.name.startswith(prefix)]


def point_launch(n_items: int, cg_size: int) -> LaunchConfig:
    """Launch geometry for a point-API kernel: one group per item."""
    return LaunchConfig(n_work_items=n_items, threads_per_item=cg_size)


def bulk_region_launch(n_regions: int) -> LaunchConfig:
    """Launch geometry for a bulk kernel mapping one thread per region."""
    return LaunchConfig(n_work_items=n_regions, threads_per_item=1)


def bulk_block_launch(n_blocks: int, cg_size: int) -> LaunchConfig:
    """Launch geometry for a bulk kernel mapping one group per table block."""
    return LaunchConfig(n_work_items=n_blocks, threads_per_item=cg_size)


def bulk_tile_launch(n_tiles: int, cg_size: int) -> LaunchConfig:
    """Launch geometry for a batched-merge kernel: one group per staged tile.

    The vectorised bulk-TCF passes only stage the blocks that actually
    receive (or lose) items, so the exposed parallelism is the number of
    *touched* blocks, not the whole table.  A zero-tile launch (every item
    already resolved) degenerates to a single bookkeeping work item.
    """
    return LaunchConfig(n_work_items=max(1, n_tiles), threads_per_item=cg_size)
