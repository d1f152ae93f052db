"""Hardware-event counters recorded by the GPU execution-model simulator.

Every filter operation in this reproduction executes *functionally* against
simulated device memory and, as a side effect, records the hardware events
that dominate GPU filter performance according to the paper's design
analysis (Section 3): cache-line transactions, atomic operations and their
retries, thread divergence inside cooperative groups, lock acquisitions and
thrash, and the number of slots shifted by Robin-Hood insertion.

The counters are deliberately cheap plain-integer attributes so that the
functional simulation stays fast enough to run millions of operations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Tuple
import contextlib
import threading


@dataclass
class KernelStats:
    """Accumulated hardware events for one (or more) simulated kernels.

    All attributes are plain counters; :meth:`merge` adds another stats
    object into this one.  The performance model scales them by an
    operation-count factor with :func:`repro.gpusim.perfmodel.scale_stats`.
    """

    #: Number of 128-byte cache-line read transactions issued to global memory.
    cache_line_reads: int = 0
    #: Number of 128-byte cache-line write transactions issued to global memory.
    cache_line_writes: int = 0
    #: Bytes read through coalesced (full-line) accesses.
    coalesced_bytes_read: int = 0
    #: Bytes written through coalesced (full-line) accesses.
    coalesced_bytes_written: int = 0
    #: Reads and writes served from block-shared memory (bulk TCF staging).
    shared_memory_accesses: int = 0
    #: Global-memory atomic operations (CAS, OR, ADD, EXCH).
    atomic_ops: int = 0
    #: atomicCAS operations whose comparison failed and had to retry.
    cas_retries: int = 0
    #: Ballot / vote warp intrinsics executed.
    warp_intrinsics: int = 0
    #: Branches on which lanes of a cooperative group diverged.
    divergent_branches: int = 0
    #: Successful lock acquisitions (point GQF region locks).
    lock_acquisitions: int = 0
    #: Failed lock attempts, i.e. thrash events caused by contention.
    lock_failures: int = 0
    #: Remainder slots moved by Robin-Hood shifting (GQF/SQF inserts+deletes).
    slots_shifted: int = 0
    #: Simple arithmetic/logic instructions executed (approximate).
    instructions: int = 0
    #: Number of kernel launches performed.
    kernel_launches: int = 0
    #: Number of items sorted by thrust-like device primitives.
    items_sorted: int = 0
    #: Number of items passed through reduce_by_key.
    items_reduced: int = 0
    #: Logical operations (inserts/queries/deletes) covered by these stats.
    operations: int = 0

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Add ``other``'s counters into this object and return ``self``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def copy(self) -> "KernelStats":
        """Return an independent copy of this stats object."""
        out = KernelStats()
        out.merge(self)
        return out

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __add__(self, other: "KernelStats") -> "KernelStats":
        out = self.copy()
        out.merge(other)
        return out


#: A thread's share of a recorder: the thread (None for the folded shares of
#: finished threads), its total and its sections.
_Share = Tuple[Optional[threading.Thread], KernelStats, Dict[str, KernelStats]]


class _ThreadShare(threading.local):
    """One thread's share of a recorder, which only that thread writes: its
    sinks (its total, then its open scopes, innermost last) and its sections."""

    def __init__(self, recorder: "StatsRecorder") -> None:
        self.sinks: List[KernelStats] = [KernelStats()]
        self.sections: Dict[str, KernelStats] = {}
        recorder._register(self.sinks[0], self.sections)


class StatsRecorder:
    """A hierarchical recorder of :class:`KernelStats`.

    Filters hold a recorder and funnel every simulated hardware event through
    it.  Benchmarks use :meth:`section` to scope the events of a particular
    phase (e.g. "inserts" vs "positive queries") so that throughput can be
    derived per phase.

    One recorder may serve several threads.  Each thread records into its own
    share (its total, its sections and its open scopes), which no other
    thread writes, so an event costs no lock and no update is lost;
    :attr:`total`, :attr:`sections` and :meth:`section_stats` sum every
    thread's share when read.  A helper thread working for a caller records
    its part with :meth:`capture`, and the caller adds the result.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clear()

    def _clear(self) -> None:
        with self._lock:
            self._retired: _Share = (None, KernelStats(), {})
            self._shares: List[_Share] = []
        self._local = _ThreadShare(self)

    def _register(self, total: KernelStats, sections: Dict[str, KernelStats]) -> None:
        """Add the calling thread's new share; fold in those of finished threads."""
        with self._lock:
            live = []
            for share in self._shares:
                if share[0].is_alive():
                    live.append(share)
                else:
                    _, retired, retired_sections = self._retired
                    retired.merge(share[1])
                    for name, stats in share[2].items():
                        retired_sections.setdefault(name, KernelStats()).merge(stats)
            live.append((threading.current_thread(), total, sections))
            self._shares = live

    # -- event sinks ------------------------------------------------------
    def add(self, **events: int) -> None:
        """Record raw event counts, e.g. ``rec.add(atomic_ops=1)``."""
        for sink in self._local.sinks:
            for name, value in events.items():
                setattr(sink, name, getattr(sink, name) + value)

    @property
    def total(self) -> KernelStats:
        """Every event recorded, summed over the threads (a snapshot)."""
        total = KernelStats()
        with self._lock:
            for _, share, _ in (self._retired, *self._shares):
                total.merge(share)
        return total

    @property
    def sections(self) -> Dict[str, KernelStats]:
        """Each section's events, summed over the threads (a snapshot)."""
        sections: Dict[str, KernelStats] = {}
        with self._lock:
            for _, _, share in (self._retired, *self._shares):
                for name, stats in share.items():
                    sections.setdefault(name, KernelStats()).merge(stats)
        return sections

    # -- scopes -----------------------------------------------------------
    @contextlib.contextmanager
    def scope(self, stats: KernelStats) -> Iterator[KernelStats]:
        """Also record the calling thread's events into ``stats`` while the
        block runs (a kernel launch scopes its record this way)."""
        sinks = self._local.sinks
        sinks.append(stats)
        try:
            yield stats
        finally:
            sinks.pop()

    @contextlib.contextmanager
    def section(self, name: str) -> Iterator[KernelStats]:
        """Context manager scoping events into a named section.

        Nested sections each receive the events recorded while active.
        Re-entering a section name accumulates into the same stats object,
        which holds the calling thread's share of the section.
        """
        sections = self._local.sections  # registers a new thread's share
        with self._lock:  # readers walk this dict under the lock
            stats = sections.setdefault(name, KernelStats())
        with self.scope(stats):
            yield stats

    @contextlib.contextmanager
    def capture(self) -> Iterator[KernelStats]:
        """Record the calling thread's events only into the yielded stats,
        not into its share, while the block runs.  A helper thread runs its
        part of a caller's work this way, and the caller adds the result to
        its own open scopes (``rec.add(**captured.as_dict())``)."""
        local = self._local
        own, local.sinks = local.sinks, [KernelStats()]
        try:
            yield local.sinks[0]
        finally:
            local.sinks = own

    def section_stats(self, name: str) -> KernelStats:
        """Return the stats recorded for ``name`` (empty if never entered)."""
        return self.sections.get(name, KernelStats())

    def reset(self) -> None:
        """Clear the total, every section, and every thread's open scopes."""
        self._clear()


#: A module-level "null" recorder used by structures created without an
#: explicit recorder.  It still counts (cheaply) but nobody reads it unless
#: the caller passes their own recorder.
GLOBAL_RECORDER = StatsRecorder()
