"""Multi-tenant filter registry: named filters, memory accounting, LRU
eviction to snapshots, restore-on-demand.

The service's "millions of users" axis: thousands of named filters can be
registered, but only as many stay resident as the memory budget allows.
The registry tracks each resident filter's ``nbytes``; when the budget is
exceeded, least-recently-used unpinned filters are saved to snapshot files
(via the crash-safe :func:`repro.lifecycle.snapshot.save_filter`) and
dropped from memory, then transparently restored on the next access.

Concurrency contract:

* **Single-flight, fail-fast setup** — concurrent ``get_or_create`` calls
  for the same name build the filter exactly once; the losers wait on the
  winner and fail fast with the same error if construction fails (the slot
  is cleared so a later call may retry).
* **Pinning** — :meth:`acquire` pins an entry while a worker holds it, so
  eviction never snapshots a filter mid-mutation.
* **Per-filter serialization** — the simulated filters are not thread-safe;
  every entry carries an ``op_lock`` that workers hold for the duration of
  a batch, serializing mutations per filter while different filters proceed
  in parallel.
"""

from __future__ import annotations

import contextlib
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.base import AbstractFilter
from ..core.exceptions import SnapshotError
from ..lifecycle.snapshot import load_filter, save_filter
from .faults import NO_FAULTS, FaultInjector
from .jobs import UnknownFilterError


@dataclass
class _Entry:
    """Registry bookkeeping for one named filter."""

    name: str
    factory: Callable[[], AbstractFilter]
    filt: Optional[AbstractFilter] = None
    snapshot_path: Optional[pathlib.Path] = None
    pins: int = 0
    last_used: int = 0
    #: Serializes batch execution against this filter (filters are not
    #: thread-safe); held by workers for the duration of one batch.
    op_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Set once construction (the single-flight winner) finished, in either
    #: direction; ``error`` carries the failure for the fail-fast losers.
    built: threading.Event = field(default_factory=threading.Event)
    error: Optional[BaseException] = None
    #: True when a torn snapshot forced the ``"recreate"`` restore policy:
    #: the resident filter is an empty twin awaiting a journal refill.
    recreated: bool = False


class FilterRegistry:
    """Named filters with memory accounting and LRU snapshot eviction."""

    def __init__(
        self,
        snapshot_dir,
        memory_budget_bytes: int = 256 * 1024 * 1024,
        torn_restore_policy: str = "error",
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if torn_restore_policy not in ("error", "recreate"):
            raise ValueError(
                f"torn_restore_policy must be 'error' or 'recreate', "
                f"got {torn_restore_policy!r}"
            )
        self.snapshot_dir = pathlib.Path(snapshot_dir)
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.torn_restore_policy = torn_restore_policy
        self.faults = fault_injector or NO_FAULTS
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._clock = 0
        self.stats = {
            "evictions": 0,
            "restores": 0,
            "torn_restores": 0,
            "failed_evictions": 0,
        }

    # ----------------------------------------------------------- inventory
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(
                entry.filt.nbytes
                for entry in self._entries.values()
                if entry.filt is not None
            )

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def recreated_names(self) -> List[str]:
        """Filters rebuilt empty after a torn restore (they need a refill)."""
        with self._lock:
            return sorted(name for name, e in self._entries.items() if e.recreated)

    # ------------------------------------------------------------- create
    def get_or_create(self, name: str, factory: Callable[[], AbstractFilter]) -> None:
        """Register ``name``, building its filter exactly once (single-flight).

        Concurrent callers for the same name wait for the first builder; if
        it raises, every waiter fails fast with the same exception and the
        name is cleared so a later call can retry.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = _Entry(name=name, factory=factory)
                self._entries[name] = entry
                builder = True
            else:
                builder = False
        if not builder:
            entry.built.wait()
            if entry.error is not None:
                raise entry.error
            return
        try:
            filt = factory()
        except BaseException as exc:
            entry.error = exc
            with self._lock:
                self._entries.pop(name, None)
            entry.built.set()
            raise
        with self._lock:
            entry.filt = filt
            entry.last_used = self._next_tick()
        entry.built.set()
        self._evict_to_budget()

    def register_snapshot(
        self, name: str, factory: Callable[[], AbstractFilter], snapshot_path=None
    ) -> None:
        """Adopt an on-disk snapshot as a registered, non-resident filter.

        The recovery path: a restarted service re-registers each tenant
        against its last snapshot instead of building a fresh filter; the
        first :meth:`acquire` restores it (or, under the ``"recreate"``
        policy, rebuilds an empty twin for the journal replay to refill).
        """
        path = (
            pathlib.Path(snapshot_path)
            if snapshot_path is not None
            else self.snapshot_dir / f"{name}.rpro"
        )
        entry = _Entry(name=name, factory=factory, snapshot_path=path)
        entry.built.set()
        with self._lock:
            self._entries[name] = entry

    def _next_tick(self) -> int:
        self._clock += 1
        return self._clock

    # ------------------------------------------------------------- access
    @contextlib.contextmanager
    def acquire(self, name: str):
        """Pin the named filter for use, restoring it from disk if evicted.

        Yields the :class:`_Entry`; callers take ``entry.op_lock`` around
        mutations.
        """
        entry = self._pin(name)
        try:
            yield entry
        finally:
            with self._lock:
                entry.pins -= 1
            self._evict_to_budget()

    def _pin(self, name: str) -> _Entry:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownFilterError(f"no filter named {name!r} is registered")
        entry.built.wait()
        if entry.error is not None:
            raise entry.error
        with self._lock:
            entry.pins += 1
            entry.last_used = self._next_tick()
        # Restore outside the registry lock (loads can be large); the entry
        # op_lock makes concurrent restorers of the same filter single-flight.
        if entry.filt is None:
            with entry.op_lock:
                if entry.filt is None:
                    try:
                        self._restore(entry)
                    except BaseException:
                        with self._lock:
                            entry.pins -= 1
                        raise
        return entry

    def ensure_resident(self, entry: _Entry) -> AbstractFilter:
        """Restore ``entry`` if an in-flight eviction raced the pin.

        A pin taken *during* an eviction (the evictor holds its own pin, so
        ``pins == 0`` was already false-checked) keeps future evictions away
        but cannot stop the one in progress; callers therefore re-check
        residency under the ``op_lock`` they hold before touching the
        filter.
        """
        if entry.filt is None:
            self._restore(entry)
        assert entry.filt is not None
        return entry.filt

    def _restore(self, entry: _Entry) -> None:
        assert entry.snapshot_path is not None
        try:
            entry.filt = load_filter(entry.snapshot_path)
            self._bump("restores")
        except SnapshotError:
            self._bump("torn_restores")
            if self.torn_restore_policy == "error":
                raise
            # Recreate an empty filter of the same shape; the journal replay
            # layer above is responsible for refilling it.
            entry.filt = entry.factory()
            entry.recreated = True

    def _bump(self, stat: str) -> None:
        """Increment a counter under the registry lock.

        ``dict[key] += 1`` is a read-modify-write: two workers restoring
        different filters at once can lose one of the increments without
        the lock (op_lock only serializes per filter, not across filters).
        """
        with self._lock:
            self.stats[stat] += 1

    # ------------------------------------------------------------ eviction
    def _evict_to_budget(self) -> None:
        while True:
            with self._lock:
                resident = sum(
                    e.filt.nbytes for e in self._entries.values() if e.filt is not None
                )
                if resident <= self.memory_budget_bytes:
                    return
                candidates = [
                    e
                    for e in self._entries.values()
                    if e.filt is not None and e.pins == 0 and e.built.is_set()
                ]
                if not candidates:
                    return
                victim = min(candidates, key=lambda e: e.last_used)
                # Hold the pin while snapshotting so a concurrent acquire
                # cannot mutate the filter mid-save.
                victim.pins += 1
            try:
                self._evict(victim)
            finally:
                with self._lock:
                    victim.pins -= 1

    def _evict(self, entry: _Entry) -> None:
        path = self.snapshot_dir / f"{entry.name}.rpro"
        with entry.op_lock:
            if entry.filt is None:
                return
            try:
                save_filter(entry.filt, path)
            except Exception:
                # A failed save must never lose data: keep the filter
                # resident and report the fault instead of evicting blind.
                self._bump("failed_evictions")
                return
            self.faults.on_snapshot_saved(entry.name, path)
            entry.snapshot_path = path
            evicted = entry.filt
            entry.filt = None
            # The snapshot is durable; release any external resources the
            # evicted filter held (worker pools, shared-memory segments).
            if hasattr(evicted, "close"):
                evicted.close()
            self._bump("evictions")

    def flush(self) -> None:
        """Snapshot every resident filter (shutdown/checkpoint path)."""
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            with entry.op_lock:
                if entry.filt is not None:
                    path = self.snapshot_dir / f"{entry.name}.rpro"
                    save_filter(entry.filt, path)
                    entry.snapshot_path = path

    def close_resident(self) -> None:
        """Release resident filters' external resources (shutdown path).

        Filters backed by OS resources that outlive the process — a sharded
        filter's ``/dev/shm`` segments and worker pool — must be closed
        explicitly, or the segments linger until every finalizer runs.  Each
        closable filter is snapshotted first (eviction semantics: durable
        before dropped), then closed and de-residented so a later access
        restores from disk instead of touching a closed object.  Heap-only
        filters have no ``close`` and are left resident untouched.
        """
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            with entry.op_lock:
                filt = entry.filt
                if filt is None or not hasattr(filt, "close"):
                    continue
                path = self.snapshot_dir / f"{entry.name}.rpro"
                try:
                    save_filter(filt, path)
                    entry.snapshot_path = path
                    entry.filt = None
                except Exception:
                    # An unsaveable filter still must not leak its segments;
                    # it stays formally resident so the data-loss is visible
                    # (acquire raises on the closed filter, not silently
                    # empty).
                    self._bump("failed_evictions")
                filt.close()
