"""The per-process shard executor.

:func:`run_shard_task` is the only function a
:class:`~repro.sharding.sharded.ShardedFilter` submits to its
``ProcessPoolExecutor``.  Each worker process keeps one *twin* filter per
shard index: an empty filter built from the shard's snapshot config whose
tables are then **adopted** onto the shard's shared-memory segment — so
the twin is a zero-copy window onto the same table bytes the parent and
every sibling worker see.  Only the key batch travels to the worker and
only the operation result plus a hardware-event delta travel back.

Synchronisation contract (the parent never runs two tasks on one shard
concurrently):

1. ``refresh_shared()`` at task start — reload the scalar counters and
   drop memoised decodes, because another process may have mutated the
   tables since this worker's last task on the shard;
2. run the bulk operation (mutations write straight through to the
   segment);
3. ``flush_shared()`` at task end — publish the scalar counters, even
   when the operation failed mid-batch (partial inserts must stay
   accounted).

A capacity failure is returned as data (not raised): the parent re-raises
it as a :class:`~repro.core.exceptions.FilterFullError` enriched with the
shard's occupancy snapshot, or rebalances when auto-resize is on.  The
deterministic ``shard_worker_kill`` fault arrives pre-decided by the
parent's injector as ``spec["kill"]`` and terminates the worker process
before any mutation — exercising the pool-recovery and segment-leak-guard
paths without touching table state.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.base import AbstractFilter
from ..core.exceptions import FilterFullError
from ..gpusim.stats import StatsRecorder
from ..lifecycle.snapshot import _resolve_class
from .sharedmem import ShardStore

#: Exit status of an injected shard-worker kill (visible in pool diagnostics).
KILL_EXIT_CODE = 73

#: Per-process twin cache: shard index -> (segment name, store, twin).  One
#: pool serves one ShardedFilter, so the shard index is a stable key; a
#: changed segment name means the shard was rebalanced into a new segment
#: and the stale twin + mapping must be dropped.
_TWINS: Dict[int, Tuple[str, ShardStore, AbstractFilter]] = {}


def _twin_for(spec: Dict[str, object]) -> AbstractFilter:
    shard = int(spec["shard"])  # type: ignore[arg-type]
    handle = spec["handle"]
    shm_name = str(handle["shm_name"])  # type: ignore[index]
    cached = _TWINS.get(shard)
    if cached is not None and cached[0] == shm_name:
        return cached[2]
    if cached is not None:
        # Rebalanced shard: release the old twin before the old mapping so
        # the (already unlinked) segment can actually be reclaimed.
        _TWINS.pop(shard)
        del cached
    store = ShardStore.attach(handle)  # type: ignore[arg-type]
    cls = _resolve_class(str(spec["module"]), str(spec["name"]))
    config = dict(spec["config"])  # type: ignore[arg-type]
    twin = cls._from_snapshot_config(config, recorder=StatsRecorder())
    twin.adopt_state(store.views())
    _TWINS[shard] = (shm_name, store, twin)
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
        return filt.bulk_insert(keys, values)
    if op == "insert_mask":
        return filt.bulk_insert_mask(keys, values)
    if op == "query":
        return filt.bulk_query(keys)
    if op == "count":
        return filt.bulk_count(keys)
    if op == "delete":
        return filt.bulk_delete(keys)
    raise ValueError(f"unknown shard operation {op!r}")


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
    twin.refresh_shared()
    before = twin.recorder.total.as_dict()
    result: object = None
    error: Optional[Dict[str, object]] = None
    try:
        result = _execute_op(twin, op, keys, values)
    except FilterFullError as exc:
        error = {"type": "filter_full", "message": exc.message}
    finally:
        twin.flush_shared()
    return {
        "shard": spec["shard"],
        "result": result,
        "events": _events_since(twin.recorder, before),
        "error": error,
    }
