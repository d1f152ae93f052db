"""The per-process shard executor.

A :class:`~repro.sharding.sharded.ShardedFilter` runs ``W`` long-lived
worker processes, each looping in :func:`serve` on its end of one
``multiprocessing.Pipe``; worker ``slot`` owns the shards ``i % W ==
slot``, so a shard's tasks always land on the same process.  Each worker
keeps one *twin* filter per shard it owns: an empty filter built from the
shard's snapshot config whose tables are then **adopted** onto the shard's
shared-memory segment — so the twin is a zero-copy window onto the same
table bytes the parent sees.  Only the key batch travels to the worker and
only the operation result plus a hardware-event delta travel back.

Synchronisation contract (the parent never runs two tasks on one shard
concurrently):

1. ``refresh_shared()`` at task start — reload the scalar counters and
   drop memoised decodes — **only when the segment changed since this
   twin last flushed it**.  The parent keeps one *mutation epoch* per
   shard, bumped by every path that can write the segment (bulk insert and
   delete dispatches, parent-side point writes, restores, growth); a
   task spec carries the epoch the segment is at (``epoch``) and the one
   it will be at once the task is done (``flush_epoch``).  A twin whose
   recorded epoch equals ``epoch`` left the segment byte for byte as it is,
   so its memoised whole-table decode is still valid and is reused;
2. run the bulk operation (mutations write straight through to the
   segment);
3. ``flush_shared()`` at task end — publish the scalar counters, even
   when the operation failed mid-batch (partial inserts must stay
   accounted) — and record ``flush_epoch`` as the twin's epoch.

The parent's own twins (inline mode, point operations, size queries)
follow the same rule.

An insert runs the shard's ``bulk_insert_mask`` and returns the positions
the shard could not place (empty when all of them landed): the parent
raises a :class:`~repro.core.exceptions.FilterFullError` with the shard's
occupancy snapshot, or grows the shard and resends just those keys
when auto-resize is on.  An exception travels back to the parent and is
re-raised there.  The deterministic ``shard_worker_kill`` fault arrives
pre-decided by the parent's injector as ``spec["kill"]`` and terminates
the worker process before any mutation — exercising the
worker-replacement and segment-leak-guard paths without touching table
state.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.base import AbstractFilter
from ..gpusim.stats import StatsRecorder
from ..lifecycle.snapshot import _resolve_class
from .sharedmem import ShardStore

#: Exit status of an injected shard-worker kill (visible in process diagnostics).
KILL_EXIT_CODE = 73

#: Operations that can write a shard's segment (and so bump its epoch).
MUTATING_OPS = frozenset({"insert", "delete"})


@dataclass
class _Twin:
    shm_name: str
    store: ShardStore
    filt: AbstractFilter
    #: Epoch at which this twin last flushed the segment (None: unknown).
    epoch: Optional[int] = None


#: Per-process twin cache: shard index -> twin.  One worker serves one
#: ShardedFilter, so the shard index is a stable key; a changed segment
#: name means the shard was grown into a new segment and the stale
#: twin + mapping must be dropped.
_TWINS: Dict[int, _Twin] = {}


def _twin_for(spec: Dict[str, object]) -> _Twin:
    shard = int(spec["shard"])  # type: ignore[arg-type]
    handle = spec["handle"]
    shm_name = str(handle["shm_name"])  # type: ignore[index]
    cached = _TWINS.get(shard)
    if cached is not None and cached.shm_name == shm_name:
        return cached
    if cached is not None:
        # Rebalanced shard: release the old twin before the old mapping so
        # the (already unlinked) segment can actually be reclaimed.
        _TWINS.pop(shard)
        del cached
    store = ShardStore.attach(handle)  # type: ignore[arg-type]
    cls = _resolve_class(str(spec["module"]), str(spec["name"]))
    config = dict(spec["config"])  # type: ignore[arg-type]
    filt = cls._from_snapshot_config(config, recorder=StatsRecorder())
    filt.adopt_state(store.views())
    twin = _Twin(shm_name, store, filt)
    _TWINS[shard] = twin
    return twin


def _events_since(recorder: StatsRecorder, before: Dict[str, int]) -> Dict[str, int]:
    after = recorder.total.as_dict()
    return {name: after[name] - before[name] for name in after if after[name] != before[name]}


def _execute_op(
    filt: AbstractFilter,
    op: str,
    keys: Optional[np.ndarray],
    values: Optional[np.ndarray],
) -> object:
    """The one shard-op switch, shared by pool workers and inline mode."""
    if op == "noop":
        return True
    if op == "insert":
        return np.flatnonzero(~filt.bulk_insert_mask(keys, values)).tolist()
    if op == "query":
        return filt.bulk_query(keys)
    if op == "count":
        return filt.bulk_count(keys)
    if op == "delete":
        return filt.bulk_delete(keys)
    raise ValueError(f"unknown shard operation {op!r}")


def run_on_twin(
    filt: AbstractFilter,
    stale: bool,
    op: str,
    keys: Optional[np.ndarray],
    values: Optional[np.ndarray],
) -> Dict[str, object]:
    """Steps 1-3 of the sync contract on one twin (workers and inline mode)."""
    if stale:
        filt.refresh_shared()
    try:
        result = _execute_op(filt, op, keys, values)
    finally:
        filt.flush_shared()
    return {"result": result, "refreshed": stale}


def run_shard_task(
    spec: Dict[str, object],
    op: str,
    keys: Optional[np.ndarray],
    values: Optional[np.ndarray],
) -> Dict[str, object]:
    """Execute one bulk operation against one shard (see module doc)."""
    if spec.get("kill"):
        # Injected worker death: before attach/mutation, so a retry of the
        # same batch cannot duplicate effects.  os._exit skips all cleanup,
        # like a real SIGKILL would.
        os._exit(KILL_EXIT_CODE)
    twin = _twin_for(spec)
    stale = twin.epoch != spec["epoch"]
    # Unknown until the task finishes: an unexpected error mid-batch must
    # force the next task to refresh.
    twin.epoch = None
    before = twin.filt.recorder.total.as_dict()
    record = run_on_twin(twin.filt, stale, op, keys, values)
    twin.epoch = int(spec["flush_epoch"])  # type: ignore[call-overload]
    record["shard"] = spec["shard"]
    record["events"] = _events_since(twin.filt.recorder, before)
    return record


def serve(conn) -> None:
    """A worker process's main loop: one task in, one record out, until ``None``.

    Every task is a ``(spec, op, keys, values)`` tuple; the reply is the
    task record, or ``{"exception": exc, "traceback": text}`` when the
    operation raised.
    """
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent is gone
            return
        if task is None:
            return
        try:
            reply = run_shard_task(*task)
        except Exception as exc:
            reply = {"exception": exc, "traceback": traceback.format_exc()}
        conn.send(reply)
