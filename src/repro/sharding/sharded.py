"""A hash-partitioned filter running its shards across processes.

:class:`ShardedFilter` wraps N instances of one bulk filter class (the
bulk GQF or bulk TCF), routes every key to a shard with the deterministic
:mod:`~repro.sharding.router`, and executes bulk operations shard-parallel
on long-lived, shard-affine worker processes.  Shard tables live in
``multiprocessing.shared_memory`` segments (:mod:`~repro.sharding.
sharedmem`) that worker processes adopt zero-copy, so **no table state is
ever pickled** — per operation, only the routed key batches travel to the
workers and only results plus hardware-event deltas travel back.  The
paper's MetaHipMer use case is exactly this shape: one logical k-mer set
too big for one table, spread over hash-disjoint partitions that never
need to coordinate per item.

Differential parity is the design's backbone, exactly as for every bulk
path before it (PRs 1-4): with one shard, the routed batch preserves the
caller's key order bit for bit, so a 1-shard :class:`ShardedFilter` must
produce the identical table state *and* the identical hardware-event
counts as the unsharded filter; with N shards, each shard must equal an
unsharded filter fed that shard's keys.  ``tests/test_sharding.py`` pins
both.

Execution and failure model
---------------------------
* ``max_workers = W`` worker processes start lazily, one
  ``multiprocessing.Pipe`` each; worker ``slot`` owns the shards
  ``i % W == slot``.  A shard's tasks therefore always reach the same
  process, whose twin keeps its memoised table decode between tasks
  unless a per-shard *mutation epoch* says the segment changed
  (:mod:`~repro.sharding.worker` states the sync contract).
* At most one task per shard is ever in flight (bulk calls dispatch one
  task per shard and wait), so shard tables need no cross-process locks.
  Each dispatch round sends every worker at most one task before reading
  the replies, so payloads larger than the pipe buffer cannot deadlock
  when ``n_shards > W``.
* A worker that dies (e.g. the deterministic ``shard_worker_kill`` fault)
  shows up as a broken pipe or an end-of-file on its pipe; the filter
  replaces that worker and retries its unfinished shards once.  The
  injected kill fires *before* any mutation, making the retry exact; a
  real mid-batch crash makes the retry at-least-once (counts may inflate,
  membership is preserved) — the same contract as the service's journal
  replay.
* ``close()`` stops and joins the workers and unlinks every segment;
  finalizers on the worker set and on each segment are the backstop when
  ``close()`` is never called.

Growth is in place and goes through one ``grow`` per shard: ``grow()``
grows every shard, and under ``auto_resize=True`` an insert grows the
shards whose projected occupancy crosses the threshold before it is
dispatched, and again any shard that still leaves keys out (bulk and point
inserts alike).  A shard grows through its own ``grow`` — quotient
extension for the GQF family, journal replay for the TCF — and is rebound
to a fresh, larger segment.  A journaled TCF shard's
:class:`~repro.core.tcf.lifecycle.KeyJournal` is held by its parent twin,
on the heap (arrays that grow with every insert cannot inhabit a fixed
shared segment), so the twin's own ``grow``, snapshot, restore and merge
see it.  Worker twins hold none, so this filter writes each shard's
journal from its dispatch results, under the TCF's one delete rule: one
journaled copy per requested key.  Shard
*count* is fixed for life: the TCF's fingerprints are not invertible, so
keys can never be re-routed between shards; this matches the paper's
observation that fingerprint filters cannot re-partition themselves.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..core.base import AbstractFilter, FilterCapabilities
from ..core.exceptions import FilterFullError, UnsupportedOperationError
from ..core.tcf.lifecycle import KeyJournal, TwoChoiceFilter
from ..gpusim.stats import StatsRecorder
from ..lifecycle.merge import merge
from ..lifecycle.snapshot import _resolve_class
from .router import DEFAULT_ROUTER_SEED, partition, shard_ids
from .sharedmem import ShardStore
from .worker import MUTATING_OPS, run_on_twin, serve


class _ShardWorker:
    """One long-lived worker process and the parent's end of its pipe."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(target=serve, args=(child,), daemon=True)
        self.process.start()
        # Only the worker may hold its end: the parent's copy would hide the
        # end-of-file that signals the worker's death.
        child.close()

    def stop(self, kill: bool = False) -> None:
        """Ask the worker to exit and join it; ``kill`` skips the request."""
        if not kill:
            try:
                self.conn.send(None)
            except OSError:
                # The pipe is broken, so the worker is already exiting.
                kill = True
        if kill:
            self.process.kill()
        self.conn.close()
        self.process.join(timeout=10.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.process.close()


class _WorkerTraceback(Exception):
    """Carries a worker-side traceback as the cause of a re-raised error."""


def _stop_workers(workers: List[Optional[_ShardWorker]], kill: bool = False) -> None:
    for slot, worker in enumerate(workers):
        if worker is not None:
            workers[slot] = None
            worker.stop(kill)


def expand(twin: AbstractFilter, extra_quotient_bits: int) -> None:
    """Grow a shard's parent twin in place.  Called through this module
    name, which perfbench/trace.py wraps as its ``lifecycle.expand`` layer."""
    twin.grow(extra_quotient_bits)


def _share(twin: AbstractFilter) -> ShardStore:
    """Copy a twin's tables into a fresh segment and adopt it.

    The ``journal_*`` sections stay out: a TCF twin's key journal stays on
    the heap, since it grows with every insert.
    """
    store = ShardStore.allocate(
        {
            name: array
            for name, array in twin.snapshot_state().items()
            if not name.startswith("journal_")
        }
    )
    twin.adopt_state(store.views())
    return store


class ShardedFilter(AbstractFilter):
    """N hash-disjoint shards of one bulk filter class, run shard-parallel.

    Parameters
    ----------
    n_shards:
        Number of partitions (fixed for the filter's lifetime).
    inner:
        The shard filter class (e.g. ``BulkGQF``/``BulkTCF``) or its
        ``"module:ClassName"`` spelling; must support shared-state adoption
        (``adopt_state``/``refresh_shared``/``flush_shared``).
    inner_config:
        ``snapshot_config``-shaped constructor kwargs for **one shard** —
        size shards at ``1/n_shards`` of the logical capacity.
    recorder:
        Parent stats recorder; worker event deltas merge into it, so the
        sharded event accounting matches the unsharded accounting.
    auto_resize / auto_resize_at:
        Grow shards in place past the load threshold, or when a key finds
        no space (defaults to the shard design's recommended load factor).
    router_seed:
        Routing-hash seed (recorded in snapshots; change it and a restored
        filter would route keys to the wrong shards).
    max_workers:
        Number of worker processes; ``None`` means ``min(n_shards,
        cpu_count)``; ``0`` runs shard tasks inline in the parent process
        (no workers — useful for debugging and for the differential tests'
        tight loops).
    faults:
        Optional fault injector providing ``on_shard_task(token) -> bool``
        (the service's ``shard_worker_kill`` site).
    shard_configs:
        Per-shard config overrides (used by snapshot restore, where
        grown shards may have diverged geometries).
    """

    name = "Sharded"

    def __init__(
        self,
        n_shards: int,
        inner: Union[str, Type[AbstractFilter]],
        inner_config: Dict[str, object],
        recorder: Optional[StatsRecorder] = None,
        auto_resize: bool = False,
        auto_resize_at: Optional[float] = None,
        router_seed: int = DEFAULT_ROUTER_SEED,
        max_workers: Optional[int] = None,
        faults: Optional[object] = None,
        shard_configs: Optional[Sequence[Dict[str, object]]] = None,
    ) -> None:
        super().__init__(recorder)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if isinstance(inner, str):
            module, _, cls_name = inner.partition(":")
            inner = _resolve_class(module, cls_name)
        for hook in ("adopt_state", "refresh_shared", "flush_shared"):
            if not hasattr(inner, hook):
                raise TypeError(
                    f"{inner.__name__} has no {hook}() and cannot back a "
                    f"shared-memory shard"
                )
        if not inner.capabilities().supports("insert", "bulk"):
            raise TypeError(f"{inner.__name__} has no bulk insert path to shard")
        self.n_shards = int(n_shards)
        self._inner_class = inner
        self.router_seed = int(router_seed)
        self.faults = faults
        if shard_configs is not None and len(shard_configs) != self.n_shards:
            raise ValueError(
                f"{len(shard_configs)} shard configs for {self.n_shards} shards"
            )
        base = dict(inner_config)
        # Shards must never grow *inside* a worker: in-place growth would
        # reallocate the table off its shared segment.  Growing a shard is
        # the parent's job (see _expand_shard).
        base["auto_resize"] = False
        self.inner_config = base
        configs = (
            [dict(cfg) for cfg in shard_configs]
            if shard_configs is not None
            else [dict(base) for _ in range(self.n_shards)]
        )
        #: Whether each parent twin holds its shard's key journal: a TCF
        #: cannot re-derive its keys from its slots, so growing a shard
        #: replays the journal this filter writes on the twin.
        self._journaled = bool(auto_resize) and issubclass(inner, TwoChoiceFilter)
        self._twins: List[AbstractFilter] = []
        self._stores: List[ShardStore] = []
        self._configs: List[Dict[str, object]] = []
        for cfg in configs:
            cfg = dict(cfg)
            cfg["auto_resize"] = False
            twin = inner._from_snapshot_config(cfg, recorder=self.recorder)
            if self._journaled:
                twin._journal = KeyJournal()
            self._twins.append(twin)
            self._stores.append(_share(twin))
            self._configs.append(cfg)
        self._init_growth(auto_resize, auto_resize_at)
        self._max_workers = (
            min(self.n_shards, os.cpu_count() or 1)
            if max_workers is None
            else int(max_workers)
        )
        #: Per-shard mutation epochs: bumped by every write to a segment.
        self._epochs = [0] * self.n_shards
        #: Epoch each parent twin last synced at (None: must refresh).
        self._synced: List[Optional[int]] = [0] * self.n_shards
        #: Worker ``slot`` owns the shards ``i % len(self._workers) == slot``.
        self._workers: List[Optional[_ShardWorker]] = [None] * max(1, self._max_workers)
        self._finalize_workers = weakref.finalize(self, _stop_workers, self._workers)
        self._lock = threading.Lock()
        self._closed = False
        self._op_seq = 0
        self.worker_restarts = 0

    # ------------------------------------------------------------------ meta
    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        # The wrapper's own surface; per-instance support additionally
        # requires the shard class to support the operation (see
        # inner_capabilities).
        return FilterCapabilities(
            point_insert=True,
            bulk_insert=True,
            point_query=True,
            bulk_query=True,
            point_delete=True,
            bulk_delete=True,
            point_count=True,
            bulk_count=True,
            values=True,
            resizable=True,
        )

    @property
    def inner_capabilities(self) -> FilterCapabilities:
        return self._inner_class.capabilities()

    # ----------------------------------------------------------------- sizes
    def _synced_twin(self, i: int) -> AbstractFilter:
        """Shard ``i``'s parent twin, refreshed if its segment changed since."""
        twin = self._twins[i]
        if self._synced[i] != self._epochs[i]:
            twin.refresh_shared()
            self._synced[i] = self._epochs[i]
        return twin

    def _refresh_all(self) -> None:
        for i in range(self.n_shards):
            self._synced_twin(i)

    @property
    def capacity(self) -> int:
        self._refresh_all()
        return sum(t.capacity for t in self._twins)

    @property
    def n_slots(self) -> int:
        self._refresh_all()
        return sum(t.n_slots for t in self._twins)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self._twins)

    @property
    def n_items(self) -> int:
        self._refresh_all()
        return sum(t.n_items for t in self._twins)

    @property
    def n_occupied_slots(self) -> int:
        self._refresh_all()
        return sum(t.n_occupied_slots for t in self._twins)

    @property
    def recommended_load_factor(self) -> float:
        return self._twins[0].recommended_load_factor

    @property
    def false_positive_rate(self) -> float:
        return max(t.false_positive_rate for t in self._twins)

    def shard_items(self) -> List[int]:
        """Per-shard logical item counts (the balance diagnostic)."""
        self._refresh_all()
        return [t.n_items for t in self._twins]

    # ------------------------------------------------------------- dispatch
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the sharded filter is closed")

    def _task_spec(self, i: int, op: str, kill: bool) -> Dict[str, object]:
        epoch = self._epochs[i]
        return {
            "shard": i,
            "handle": self._stores[i].handle(),
            "module": self._inner_class.__module__,
            "name": self._inner_class.__qualname__,
            "config": self._configs[i],
            "kill": kill,
            "epoch": epoch,
            "flush_epoch": epoch + (op in MUTATING_OPS),
        }

    def _run_inline(
        self,
        op: str,
        i: int,
        keys: Optional[np.ndarray],
        values: Optional[np.ndarray],
    ) -> Dict[str, object]:
        epoch = self._epochs[i]
        stale = self._synced[i] != epoch
        self._synced[i] = None
        record = run_on_twin(self._twins[i], stale, op, keys, values)
        self._synced[i] = epoch + (op in MUTATING_OPS)
        record["shard"] = i
        record["events"] = {}
        return record

    def _dispatch(
        self,
        op: str,
        batches: Dict[int, Tuple[Optional[np.ndarray], Optional[np.ndarray]]],
    ) -> Dict[int, Dict[str, object]]:
        """Run one task per shard; returns each shard's result record.

        A mutating operation bumps the epoch of every shard it was sent to,
        whatever its outcome.
        """
        self._op_seq += 1
        try:
            if self._max_workers == 0:
                return {i: self._run_inline(op, i, k, v) for i, (k, v) in batches.items()}
            return self._run_pooled(op, batches)
        finally:
            if op in MUTATING_OPS:
                for i in batches:
                    self._epochs[i] += 1

    def _send(
        self,
        slot: int,
        i: int,
        op: str,
        may_kill: bool,
        batch: Tuple[Optional[np.ndarray], Optional[np.ndarray]],
    ) -> bool:
        """Send shard ``i``'s task to worker ``slot``; False if it is dead."""
        kill = bool(
            may_kill
            and self.faults is not None
            and self.faults.on_shard_task(f"{self._op_seq}:{i}")
        )
        worker = self._workers[slot]
        if worker is None:
            worker = self._workers[slot] = _ShardWorker()
        try:
            worker.conn.send((self._task_spec(i, op, kill), op, *batch))
        except OSError:
            return False
        return True

    def _run_pooled(
        self,
        op: str,
        batches: Dict[int, Tuple[Optional[np.ndarray], Optional[np.ndarray]]],
    ) -> Dict[int, Dict[str, object]]:
        """Run the shard tasks on their owning workers, round by round.

        A worker whose pipe breaks has died: it is replaced and its
        unfinished shards are retried once; shard tables live in
        parent-owned segments, so a dead worker loses no state.
        """
        n_workers = len(self._workers)
        outs: Dict[int, Dict[str, object]] = {}
        pending = dict(batches)
        for attempt in range(2):
            queues: Dict[int, List[int]] = {}
            for i in pending:
                queues.setdefault(i % n_workers, []).append(i)
            dead: List[int] = []
            failure: Optional[Tuple[BaseException, str]] = None
            try:
                while queues and failure is None:
                    sent: Dict[int, int] = {}
                    for slot, queue in queues.items():
                        i = queue.pop(0)
                        if self._send(slot, i, op, attempt == 0, pending[i]):
                            sent[slot] = i
                        else:
                            dead.append(slot)
                    for slot, i in sent.items():
                        try:
                            record = self._workers[slot].conn.recv()
                        except (EOFError, OSError):
                            dead.append(slot)
                            continue
                        if "exception" in record:
                            failure = failure or (record["exception"], record["traceback"])
                            continue
                        outs[i] = record
                        self.recorder.add(**record["events"])
                    queues = {slot: q for slot, q in queues.items() if q and slot not in dead}
            except BaseException:
                # Interrupted mid-round: replies may still be in flight, so
                # no pipe can be trusted; workers restart on the next call.
                _stop_workers(self._workers, kill=True)
                raise
            for slot in dead:
                self._workers[slot].stop(kill=True)
                self._workers[slot] = None
                self.worker_restarts += 1
            if failure is not None:
                exc, worker_traceback = failure
                raise exc from _WorkerTraceback(worker_traceback)
            pending = {i: pending[i] for i in pending if i not in outs}
            if not pending:
                return outs
        raise RuntimeError(
            f"shard workers died twice running {op!r} on shards "
            f"{sorted(pending)}; giving up"
        )

    def _raise_full(self, i: int, message: str) -> None:
        twin = self._synced_twin(i)
        raise FilterFullError(
            f"shard {i}/{self.n_shards}: {message}",
            n_items=twin.n_items,
            n_slots=twin.n_slots,
            load_factor=twin.load_factor,
        )

    def warm_up(self) -> None:
        """Start the workers (and fault in their twins) ahead of timing."""
        with self._lock:
            self._check_open()
            self._dispatch("noop", {i: (None, None) for i in range(self.n_shards)})

    # ---------------------------------------------------------------- growth
    def _expand_shard(self, i: int, extra_quotient_bits: int = 1) -> None:
        """Grow shard ``i`` in place and rebind it onto a fresh, larger segment."""
        twin = self._synced_twin(i)
        expand(twin, extra_quotient_bits)
        old_store, self._stores[i] = self._stores[i], _share(twin)
        config = dict(twin.snapshot_config())
        config["auto_resize"] = False
        self._configs[i] = config
        self._epochs[i] += 1
        self.n_resizes += 1
        old_store.close()

    def _pre_grow(self, incoming: np.ndarray) -> None:
        """Expand shards whose projected occupancy crosses the threshold."""
        for i in range(self.n_shards):
            twin = self._synced_twin(i)
            while (
                twin.n_occupied_slots + int(incoming[i])
                >= self.auto_resize_at * twin.n_slots
            ):
                self._expand_shard(i)

    def grow(self, extra_quotient_bits: int = 1) -> None:
        """Grow every shard in place (auto-resize grows them lazily).

        ``n_resizes`` counts shard expansions: one per shard here.
        """
        with self._lock:
            self._check_open()
            for i in range(self.n_shards):
                self._expand_shard(i, extra_quotient_bits)

    # ------------------------------------------------------------- bulk API
    def _partition(
        self, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]]]:
        order, offsets = partition(keys, self.n_shards, self.router_seed)
        routed = keys[order]
        routed_values = values[order] if values is not None else None
        batches: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        for i in range(self.n_shards):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if hi > lo:
                batches[i] = (
                    routed[lo:hi],
                    routed_values[lo:hi] if routed_values is not None else None,
                )
        return order, offsets, batches

    def _insert_values(
        self, keys: np.ndarray, values: Optional[Sequence[int]]
    ) -> Optional[np.ndarray]:
        """``values`` as uint64; zeros in place of None when journaling.

        Journals store one value per key (a TCF treats None as zeros), while
        unjournaled shards keep None so no value array travels to workers.
        """
        if values is not None:
            return np.ascontiguousarray(values, dtype=np.uint64)
        if self._journaled:
            return np.zeros(keys.size, dtype=np.uint64)
        return None

    def bulk_insert(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> int:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        with self._lock:
            missed = self._insert(keys, values)
            if missed:
                i = min(missed)
                self._raise_full(i, f"{missed[i].size} of {keys.size} keys did not fit")
        return int(keys.size)

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        mask = np.ones(keys.size, dtype=bool)
        with self._lock:
            for positions in self._insert(keys, values).values():
                mask[positions] = False
        return mask

    def _insert(
        self, keys: np.ndarray, values: Optional[Sequence[int]]
    ) -> Dict[int, np.ndarray]:
        """Route a batch to its shards and place it; the caller holds the lock.

        Returns, per shard that left keys out, their positions in ``keys``.
        Under ``auto_resize`` the shards are pre-grown for the batch, and a
        shard that still leaves keys out is expanded and sent just those
        keys again, until it holds them all, so no key is applied twice.
        """
        if keys.size == 0:
            return {}
        self._check_open()
        values = self._insert_values(keys, values)
        if self.auto_resize:
            counts = np.bincount(
                shard_ids(keys, self.n_shards, self.router_seed),
                minlength=self.n_shards,
            )
            self._pre_grow(counts)
        order, offsets, batches = self._partition(keys, values)
        positions = {i: order[offsets[i] : offsets[i + 1]] for i in batches}
        missed: Dict[int, np.ndarray] = {}
        while batches:
            resend: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
            for i, record in self._dispatch("insert", batches).items():
                shard_keys, shard_values = batches[i]
                left = np.asarray(record["result"], dtype=np.int64)
                if self._journaled:
                    self._twins[i]._journal.add(
                        np.delete(shard_keys, left), np.delete(shard_values, left)
                    )
                if not left.size:
                    continue
                positions[i] = positions[i][left]
                if self.auto_resize:
                    self._expand_shard(i)
                    resend[i] = (
                        shard_keys[left],
                        shard_values[left] if shard_values is not None else None,
                    )
                else:
                    missed[i] = positions[i]
            batches = resend
        return missed

    def _gather(self, op: str, keys: Sequence[int], dtype) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=dtype)
        with self._lock:
            self._check_open()
            order, offsets, batches = self._partition(keys, None)
            outs = self._dispatch(op, batches)
            routed = np.zeros(keys.size, dtype=dtype)
            for i, record in outs.items():
                lo, hi = int(offsets[i]), int(offsets[i + 1])
                routed[lo:hi] = np.asarray(record["result"], dtype=dtype)
            out = np.zeros(keys.size, dtype=dtype)
            out[order] = routed
            return out

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        return self._gather("query", keys, bool)

    def bulk_count(self, keys: Sequence[int]) -> np.ndarray:
        if not self.inner_capabilities.supports("count", "bulk"):
            raise UnsupportedOperationError(
                f"{self._inner_class.__name__} shards do not support counting"
            )
        return self._gather("count", keys, np.int64)

    def bulk_delete(self, keys: Sequence[int]) -> int:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        with self._lock:
            self._check_open()
            _order, _offsets, batches = self._partition(keys, None)
            outs = self._dispatch("delete", batches)
            removed = 0
            for i, record in outs.items():
                removed += int(record["result"])
                if self._journaled:
                    self._twins[i]._journal.remove(batches[i][0])
            return removed

    # ------------------------------------------------------------- point API
    def _shard_of(self, key: int) -> int:
        return int(shard_ids(np.array([key], dtype=np.uint64), self.n_shards,
                             self.router_seed)[0])

    def _local_op(self, key: int, fn_name: str, *args):
        """Run a point operation on the owning shard, in-process.

        The parent's twins are adopted onto the same segments the workers
        use, so point operations are plain in-process calls — sync the twin
        first, flush its scalars after.  A write bumps the shard's epoch and
        leaves the parent twin, its writer, in sync.
        """
        i = self._shard_of(int(key))
        twin = self._synced_twin(i)
        try:
            return getattr(twin, fn_name)(int(key), *args)
        finally:
            twin.flush_shared()
            if fn_name in ("insert", "delete"):
                self._epochs[i] += 1
                self._synced[i] = self._epochs[i]

    def insert(self, key: int, value: int = 0) -> bool:
        """Insert one key on its shard.  Under ``auto_resize`` the shard is
        pre-grown for it, and grown again while the key finds no space, as
        the bulk path does."""
        with self._lock:
            self._check_open()
            i = self._shard_of(int(key))
            if self.auto_resize:
                incoming = np.zeros(self.n_shards, dtype=np.int64)
                incoming[i] = 1
                self._pre_grow(incoming)
            while True:
                try:
                    ok = bool(self._local_op(key, "insert", value))
                    break
                except FilterFullError:
                    if not self.auto_resize:
                        raise
                    self._expand_shard(i)
            if ok and self._journaled:
                self._twins[i]._journal.add([key], [value])
            return ok

    def query(self, key: int) -> bool:
        with self._lock:
            self._check_open()
            return bool(self._local_op(key, "query"))

    def count(self, key: int) -> int:
        with self._lock:
            self._check_open()
            return int(self._local_op(key, "count"))

    def delete(self, key: int) -> bool:
        with self._lock:
            self._check_open()
            removed = bool(self._local_op(key, "delete"))
            if self._journaled:
                self._twins[self._shard_of(int(key))]._journal.remove([key])
            return removed

    def get_value(self, key: int) -> Optional[int]:
        with self._lock:
            self._check_open()
            return self._local_op(key, "get_value")

    # --------------------------------------------------------------- merging
    def merged(self, recorder: Optional[StatsRecorder] = None) -> AbstractFilter:
        """Collapse the shards into one unsharded filter (k-way merge)."""
        self._refresh_all()
        if self.n_shards == 1:
            twin = self._twins[0]
            config = dict(twin.snapshot_config())
            # A journaled shard's copy keeps its journal, as merge() does.
            config["auto_resize"] = self._journaled
            out = self._inner_class._from_snapshot_config(
                config, recorder=recorder if recorder is not None else StatsRecorder()
            )
            out.restore_state(twin.snapshot_state())
            return out
        return merge(*self._twins, recorder=recorder)

    # -------------------------------------------------------------- lifecycle
    def snapshot_config(self) -> Dict[str, object]:
        return {
            "n_shards": self.n_shards,
            "inner_module": self._inner_class.__module__,
            "inner_name": self._inner_class.__qualname__,
            "inner_config": dict(self.inner_config),
            "shard_configs": [dict(cfg) for cfg in self._configs],
            "auto_resize": self.auto_resize,
            "auto_resize_at": self.auto_resize_at,
            "router_seed": self.router_seed,
            "max_workers": self._max_workers,
        }

    @classmethod
    def _from_snapshot_config(
        cls, config: Mapping, recorder: Optional[StatsRecorder] = None
    ) -> "ShardedFilter":
        return cls(
            config["n_shards"],
            f"{config['inner_module']}:{config['inner_name']}",
            dict(config["inner_config"]),
            recorder=recorder,
            auto_resize=config.get("auto_resize", False),
            auto_resize_at=config.get("auto_resize_at"),
            router_seed=config.get("router_seed", DEFAULT_ROUTER_SEED),
            max_workers=config.get("max_workers"),
            shard_configs=config.get("shard_configs"),
        )

    def snapshot_state(self) -> Dict[str, np.ndarray]:
        self._refresh_all()
        state: Dict[str, np.ndarray] = {}
        for i, twin in enumerate(self._twins):
            for name, array in twin.snapshot_state().items():
                state[f"shard{i}/{name}"] = array
        return state

    def restore_state(self, state: Mapping[str, np.ndarray]) -> None:
        for i in range(self.n_shards):
            prefix = f"shard{i}/"
            sub = {
                name[len(prefix):]: array
                for name, array in state.items()
                if name.startswith(prefix)
            }
            self.restore_shard(i, sub)

    def restore_shard(self, i: int, state: Mapping[str, np.ndarray]) -> None:
        """Overwrite shard ``i`` with an inner-class ``snapshot_state``
        (a journaled shard's ``journal_*`` sections replace its journal)."""
        twin = self._twins[i]
        twin.restore_state(state)
        twin.flush_shared()
        # The restore may leave memos keyed to the old contents: bump the
        # epoch without marking any twin in sync, so every twin refreshes.
        self._epochs[i] += 1
        self._synced[i] = None

    # --------------------------------------------------------------- teardown
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._finalize_workers()
            # Drop the adopted views before unlinking so the mappings can
            # be released immediately rather than at process exit.
            self._twins = []
            stores, self._stores = self._stores, []
            for store in stores:
                store.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if self._closed:
            return f"ShardedFilter(n_shards={self.n_shards}, closed)"
        return (
            f"ShardedFilter(n_shards={self.n_shards}, "
            f"inner={self._inner_class.__name__}, items={self.n_items})"
        )
