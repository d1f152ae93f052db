"""A hash-partitioned filter running its shards across processes.

:class:`ShardedFilter` wraps N instances of one bulk filter class (the
bulk GQF or bulk TCF), routes every key to a shard with the deterministic
:mod:`~repro.sharding.router`, and executes bulk operations shard-parallel
on a ``ProcessPoolExecutor``.  Shard tables live in
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
* At most one task per shard is ever in flight (bulk calls dispatch one
  task per shard and wait), so shard tables need no cross-process locks.
* A worker that dies (e.g. the deterministic ``shard_worker_kill`` fault)
  breaks the pool; the filter rebuilds the pool and retries each
  unfinished shard once.  The injected kill fires *before* any mutation,
  making the retry exact; a real mid-batch crash makes the retry
  at-least-once (counts may inflate, membership is preserved) — the same
  contract as the service's journal replay.
* ``close()`` shuts the pool down and unlinks every segment; a finalizer
  on each segment is the backstop when ``close()`` is never called.

Resizing (``auto_resize=True``) *rebalances in place*: before an insert
batch is dispatched, any shard whose projected occupancy crosses the
threshold is expanded through :func:`repro.lifecycle.resize.expand` —
quotient extension for the GQF family, journal replay for the TCF (each
shard's :class:`~repro.core.tcf.lifecycle.KeyJournal` lives in the parent,
since arrays that grow with every insert cannot inhabit a fixed shared
segment) — and rebound to a fresh, larger segment.  Shard
*count* is fixed for life: the TCF's fingerprints are not invertible, so
keys can never be re-routed between shards; this matches the paper's
observation that fingerprint filters cannot re-partition themselves.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..core.base import AbstractFilter, FilterCapabilities
from ..core.exceptions import FilterFullError, UnsupportedOperationError
from ..core.tcf.lifecycle import KeyJournal, TCFLifecycle
from ..gpusim.stats import StatsRecorder
from ..lifecycle.merge import merge
from ..lifecycle.resize import expand
from ..lifecycle.snapshot import _resolve_class
from .router import DEFAULT_ROUTER_SEED, partition, shard_ids
from .sharedmem import ShardStore
from .worker import _execute_op, run_shard_task


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
        Enable in-place per-shard rebalancing past the load threshold
        (defaults to the shard design's recommended load factor).
    router_seed:
        Routing-hash seed (recorded in snapshots; change it and a restored
        filter would route keys to the wrong shards).
    max_workers:
        Pool width; ``None`` means ``min(n_shards, cpu_count)``; ``0``
        runs shard tasks inline in the parent process (no pool — useful
        for debugging and for the differential tests' tight loops).
    faults:
        Optional fault injector providing ``on_shard_task(token) -> bool``
        (the service's ``shard_worker_kill`` site).
    shard_configs:
        Per-shard config overrides (used by snapshot restore, where
        rebalanced shards may have diverged geometries).
    """

    name = "Sharded"
    bulk_insert_atomic = False

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
        self.auto_resize = bool(auto_resize)
        self.faults = faults
        if shard_configs is not None and len(shard_configs) != self.n_shards:
            raise ValueError(
                f"{len(shard_configs)} shard configs for {self.n_shards} shards"
            )
        base = dict(inner_config)
        # Shards must never grow *inside* a worker: in-place growth would
        # reallocate the table off its shared segment.  Rebalancing is the
        # parent's job (see _expand_shard).
        base["auto_resize"] = False
        self.inner_config = base
        configs = (
            [dict(cfg) for cfg in shard_configs]
            if shard_configs is not None
            else [dict(base) for _ in range(self.n_shards)]
        )
        self._twins: List[AbstractFilter] = []
        self._stores: List[ShardStore] = []
        self._configs: List[Dict[str, object]] = []
        for cfg in configs:
            cfg = dict(cfg)
            cfg["auto_resize"] = False
            twin = inner._from_snapshot_config(cfg, recorder=self.recorder)
            store = ShardStore.allocate(twin.snapshot_state())
            twin.adopt_state(store.views())
            self._twins.append(twin)
            self._stores.append(store)
            self._configs.append(cfg)
        self.auto_resize_at = float(
            self._twins[0].recommended_load_factor
            if auto_resize_at is None
            else auto_resize_at
        )
        if not 0.0 < self.auto_resize_at <= 1.0:
            raise ValueError("auto_resize_at must be in (0, 1]")
        #: Parent-side key journals, one per shard (TCF shards only): a TCF
        #: cannot re-derive its keys from its slots, so rebalancing replays
        #: the journal kept here.
        self._journals: Optional[List[KeyJournal]] = (
            [KeyJournal() for _ in range(self.n_shards)]
            if self.auto_resize and isinstance(self._twins[0], TCFLifecycle)
            else None
        )
        self._max_workers = (
            min(self.n_shards, os.cpu_count() or 1)
            if max_workers is None
            else int(max_workers)
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False
        self._op_seq = 0
        self.n_rebalances = 0
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
    def _refresh_all(self) -> None:
        for twin in self._twins:
            twin.refresh_shared()

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

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=max(1, self._max_workers))
        return self._pool

    def _recycle_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.worker_restarts += 1

    def _task_spec(self, i: int, kill: bool) -> Dict[str, object]:
        return {
            "shard": i,
            "handle": self._stores[i].handle(),
            "module": self._inner_class.__module__,
            "name": self._inner_class.__qualname__,
            "config": self._configs[i],
            "kill": kill,
        }

    def _run_inline(
        self,
        op: str,
        i: int,
        keys: Optional[np.ndarray],
        values: Optional[np.ndarray],
    ) -> Dict[str, object]:
        twin = self._twins[i]
        twin.refresh_shared()
        result: object = None
        error: Optional[Dict[str, object]] = None
        try:
            result = _execute_op(twin, op, keys, values)
        except FilterFullError as exc:
            error = {"type": "filter_full", "message": exc.message}
        finally:
            twin.flush_shared()
        return {"shard": i, "result": result, "error": error, "events": {}}

    def _dispatch(
        self,
        op: str,
        batches: Dict[int, Tuple[Optional[np.ndarray], Optional[np.ndarray]]],
    ) -> Dict[int, Dict[str, object]]:
        """Run one task per shard; returns each shard's result record.

        Worker deaths (``BrokenProcessPool``) recycle the pool and retry
        each unfinished shard once; shard tables live in parent-owned
        segments, so a dead worker loses no state.
        """
        self._op_seq += 1
        if self._max_workers == 0:
            return {i: self._run_inline(op, i, k, v) for i, (k, v) in batches.items()}
        outs: Dict[int, Dict[str, object]] = {}
        pending = dict(batches)
        for attempt in range(2):
            pool = self._ensure_pool()
            futures = {}
            for i, (keys, values) in pending.items():
                kill = bool(
                    attempt == 0
                    and self.faults is not None
                    and self.faults.on_shard_task(f"{self._op_seq}:{i}")
                )
                futures[i] = pool.submit(
                    run_shard_task, self._task_spec(i, kill), op, keys, values
                )
            broken = False
            for i, future in futures.items():
                try:
                    record = future.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                outs[i] = record
                self.recorder.add(**record["events"])
            pending = {i: pending[i] for i in pending if i not in outs}
            if not pending:
                return outs
            if broken:
                self._recycle_pool()
        raise RuntimeError(
            f"shard worker pool died twice running {op!r} on shards "
            f"{sorted(pending)}; giving up"
        )

    def _raise_full(self, i: int, message: str) -> None:
        twin = self._twins[i]
        twin.refresh_shared()
        raise FilterFullError(
            f"shard {i}/{self.n_shards}: {message}",
            n_items=twin.n_items,
            n_slots=twin.n_slots,
            load_factor=twin.load_factor,
        )

    def warm_up(self) -> None:
        """Spin the worker pool up (and fault in the twins) ahead of timing."""
        with self._lock:
            self._check_open()
            self._dispatch("noop", {i: (None, None) for i in range(self.n_shards)})

    # ------------------------------------------------------------ rebalance
    def _expand_shard(self, i: int, extra_quotient_bits: int = 1) -> None:
        """Grow shard ``i`` and rebind it onto a fresh, larger segment."""
        twin = self._twins[i]
        twin.refresh_shared()
        if self._journals is not None:
            # TCF: lend the parent-held journal to the twin for the rebuild,
            # then detach it again (it cannot live in the fixed segment).
            twin._journal = self._journals[i]
            try:
                expand(twin, extra_quotient_bits)
            finally:
                twin._journal = None
            twin._shared_scalars = None
            new_twin = twin
        else:
            new_twin = expand(twin, extra_quotient_bits)
        new_store = ShardStore.allocate(new_twin.snapshot_state())
        new_twin.adopt_state(new_store.views())
        old_store = self._stores[i]
        self._twins[i] = new_twin
        self._stores[i] = new_store
        config = dict(new_twin.snapshot_config())
        config["auto_resize"] = False
        self._configs[i] = config
        self.n_rebalances += 1
        old_store.close()

    def _pre_grow(self, incoming: np.ndarray) -> None:
        """Expand shards whose projected occupancy crosses the threshold."""
        for i in range(self.n_shards):
            twin = self._twins[i]
            twin.refresh_shared()
            while (
                twin.n_occupied_slots + int(incoming[i])
                >= self.auto_resize_at * twin.n_slots
            ):
                self._expand_shard(i)
                twin = self._twins[i]

    def rebalance(self, extra_quotient_bits: int = 1) -> None:
        """Expand every shard (manual rebalance; auto mode does it lazily)."""
        with self._lock:
            self._check_open()
            for i in range(self.n_shards):
                self._expand_shard(i, extra_quotient_bits)

    def resized(self, extra_quotient_bits: int = 1) -> "ShardedFilter":
        """Grow in place and return self (the lifecycle ``expand`` hook).

        Unlike the GQF's out-of-place ``resized``, the sharded filter
        rebalances its own segments; returning ``self`` keeps
        ``lifecycle.expand(service_entry.filt)`` working unchanged.
        """
        self.rebalance(extra_quotient_bits)
        return self

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
        if self._journals is not None:
            return np.zeros(keys.size, dtype=np.uint64)
        return None

    def bulk_insert(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> int:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        values = self._insert_values(keys, values)
        with self._lock:
            self._check_open()
            if self.auto_resize:
                counts = np.bincount(
                    shard_ids(keys, self.n_shards, self.router_seed),
                    minlength=self.n_shards,
                )
                self._pre_grow(counts)
            _order, _offsets, batches = self._partition(keys, values)
            outs = self._dispatch("insert", batches)
            inserted = 0
            for i, record in outs.items():
                shard_keys, shard_values = batches[i]
                if record["error"] is None:
                    inserted += int(record["result"])
                    if self._journals is not None:
                        self._journals[i].add(shard_keys, shard_values)
                    continue
                if not self.auto_resize:
                    self._raise_full(i, str(record["error"]["message"]))
                # Pre-growth should make this unreachable; if cluster skew
                # still filled the shard, expand it and retry the shard's
                # batch through the graceful mask path.  Keys the failed
                # attempt already placed are re-applied — at-least-once
                # semantics (counts may inflate, membership is exact), the
                # same contract as the service's journal replay.
                self._expand_shard(i)
                retry = self._dispatch("insert_mask", {i: batches[i]})[i]
                if retry["error"] is not None:
                    self._raise_full(i, str(retry["error"]["message"]))
                mask = np.asarray(retry["result"], dtype=bool)
                inserted += int(np.count_nonzero(mask))
                if self._journals is not None:
                    self._journals[i].add(shard_keys[mask], shard_values[mask])
            return inserted

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        values = self._insert_values(keys, values)
        with self._lock:
            self._check_open()
            order, offsets, batches = self._partition(keys, values)
            outs = self._dispatch("insert_mask", batches)
            mask = np.zeros(keys.size, dtype=bool)
            routed_mask = np.zeros(keys.size, dtype=bool)
            for i, record in outs.items():
                lo, hi = int(offsets[i]), int(offsets[i + 1])
                shard_mask = np.asarray(record["result"], dtype=bool)
                routed_mask[lo:hi] = shard_mask
                if self._journals is not None:
                    shard_keys, shard_values = batches[i]
                    self._journals[i].add(shard_keys[shard_mask], shard_values[shard_mask])
            mask[order] = routed_mask
            return mask

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
                if self._journals is not None:
                    self._journals[i].remove(batches[i][0])
            return removed

    # ------------------------------------------------------------- point API
    def _shard_of(self, key: int) -> int:
        return int(shard_ids(np.array([key], dtype=np.uint64), self.n_shards,
                             self.router_seed)[0])

    def _local_op(self, key: int, fn_name: str, *args):
        """Run a point operation on the owning shard, in-process.

        The parent's twins are adopted onto the same segments the workers
        use, so point operations are plain in-process calls — refresh the
        scalars first, flush them after.
        """
        twin = self._twins[self._shard_of(int(key))]
        twin.refresh_shared()
        try:
            return getattr(twin, fn_name)(int(key), *args)
        finally:
            twin.flush_shared()

    def insert(self, key: int, value: int = 0) -> bool:
        with self._lock:
            self._check_open()
            i = self._shard_of(int(key))
            if self.auto_resize:
                incoming = np.zeros(self.n_shards, dtype=np.int64)
                incoming[i] = 1
                self._pre_grow(incoming)
            ok = bool(self._local_op(key, "insert", value))
            if ok and self._journals is not None:
                self._journals[i].add([key], [value])
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
            if removed and self._journals is not None:
                self._journals[self._shard_of(int(key))].remove([key])
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
            out = self._inner_class._from_snapshot_config(
                dict(twin.snapshot_config()),
                recorder=recorder if recorder is not None else StatsRecorder(),
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
            if self._journals is not None:
                journal_keys, journal_values = self._journals[i].arrays()
                state[f"shard{i}/journal_keys"] = journal_keys
                state[f"shard{i}/journal_values"] = journal_values
        return state

    def restore_state(self, state: Mapping[str, np.ndarray]) -> None:
        for i, twin in enumerate(self._twins):
            prefix = f"shard{i}/"
            sub = {
                name[len(prefix):]: array
                for name, array in state.items()
                if name.startswith(prefix)
            }
            journal_keys = sub.pop("journal_keys", None)
            journal_values = sub.pop("journal_values", None)
            twin.restore_state(sub)
            if self._journals is not None:
                self._journals[i] = KeyJournal()
                if journal_keys is not None:
                    self._journals[i].add(journal_keys, journal_values)

    # --------------------------------------------------------------- teardown
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
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
