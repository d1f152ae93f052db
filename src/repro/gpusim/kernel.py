"""Kernel-launch records for the GPU execution-model simulator.

A filter opens one :meth:`KernelContext.launch` around each simulated
kernel.  The launch charges one ``kernel_launches`` event, scopes the events
the kernel records into a ``kernel:<name>`` recorder section, and keeps a
per-launch :class:`KernelRecord` of its name and stats.

The exposed parallelism that decides how well a kernel saturates the GPU —
the mechanism behind the paper's observation that bulk-filter insert
throughput grows with the filter size (Section 6.2) — is not recorded here.
Each filter's ``active_threads`` in :mod:`repro.analysis.adapters` gives it
to :mod:`repro.gpusim.perfmodel` at the paper's nominal scale.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator
from .stats import KernelStats, StatsRecorder


@dataclass
class KernelRecord:
    """One recorded kernel: its name plus the stats it produced."""

    name: str
    stats: KernelStats = field(default_factory=KernelStats)


class KernelContext:
    """Collects the kernels launched while running a benchmark phase.

    Filters call :meth:`launch` around each simulated kernel.  The context
    stores per-kernel stats and exposes aggregate summaries of them.  Every
    launch also records into the filter's stats recorder, so functional
    tests need no ceremony.
    """

    def __init__(self, recorder: StatsRecorder) -> None:
        self.recorder = recorder
        self.kernels: list[KernelRecord] = []
        self._open = 0

    @contextlib.contextmanager
    def launch(self, name: str) -> Iterator[KernelRecord]:
        """Scope the events of one kernel launch."""
        record = KernelRecord(name=name)
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
    def launch_open(self) -> bool:
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

