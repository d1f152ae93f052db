"""In-memory span tracer that wraps the public entry points of each layer.

The traced run patches wrappers onto module and class attributes — on the
module the *caller* imports from, since ``from x import f`` binds its own
name — records one span per call and restores every original afterwards.
A span carries its name, start and end (``time.perf_counter``), the span
that was open on the same thread when it started (its parent), the current
phase or job id, and optional counters.  Spans stay in memory and are
written out once, when the run ends.

A layer's *self time* is the sum of its spans' durations minus the part of
each span covered by its child spans.  Children on one thread nest inside
their parent, so the covered part is the sum of the children's durations.

Spans are recorded only in the process that created the tracer: forked pool
workers inherit the patched attributes, but their spans would never reach
the parent, so there the wrappers call straight through.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


#: Phases whose spans are kept in the trace file but left out of the
#: per-layer numbers (filter set-up and warm-up, end-of-run checks).
UNTIMED_PHASES = ("setup", "check")


class Tracer:
    """Collects spans from every thread of the tracing process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.phase = "setup"
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``counts(args, kwargs, result)`` may return a dict of counters that
        is stored on the span.
        """
        if os.getpid() != self._pid:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "phase": getattr(self._local, "job", None) or self.phase,
            "thread": threading.get_ident(),
        }
        if counts is not None:
            record["counts"] = counts(args, kwargs, result)
        with self._lock:
            self.spans.append(record)
        return result

    def set_job(self, job: Optional[str]) -> None:
        """Tag the calling thread's next spans with a job id (None: the phase)."""
        self._local.job = job

    def wrap(self, name: str, fn: Callable, counts=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    # --------------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))

    def patch_instance(self, obj, attr: str, name: str, counts=None) -> None:
        """Wrap a bound method on one object (removed by :meth:`restore`)."""
        self._patches.append((obj, attr, None))
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), counts))

    def patch_context(self, owner: type, attr: str, name: str) -> None:
        """Wrap a context-manager method: span its enter and exit only."""
        original = owner.__dict__[attr]
        tracer = self

        class _Timed:
            def __init__(self, cm) -> None:
                self._cm = cm

            def __enter__(self):
                return tracer.call(name, self._cm.__enter__, (), {})

            def __exit__(self, *exc_info):
                return tracer.call(name, self._cm.__exit__, exc_info, {})

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return _Timed(original(*args, **kwargs))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---------------------------------------------------------------- results
    def measured(self) -> List[dict]:
        """Spans outside the untimed ``setup`` and ``check`` phases."""
        return [span for span in self.spans if span["phase"] not in UNTIMED_PHASES]

    def self_times(self) -> Dict[str, float]:
        """Total self time in seconds per span name (measured spans only)."""
        spans = self.measured()
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = defaultdict(float)
        for span in spans:
            out[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
        return dict(out)

    def calls(self, name: str) -> List[dict]:
        return [span for span in self.measured() if span["name"] == name]

    def count_sum(self, name: str, key: str) -> float:
        return sum(span.get("counts", {}).get(key, 0) for span in self.calls(name))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _n(array) -> int:
    return int(getattr(array, "size", 0) or 0)


def _nbytes(array) -> int:
    return int(getattr(array, "nbytes", 0) or 0)


def install(tracer: Tracer) -> None:
    """Patch the measured layers' public entry points (undo: ``restore``)."""
    # Imported here so that importing this module touches no repro code.
    from repro.core.gqf import bulk_gqf, layout, mapreduce
    from repro.core.tcf import backing, block, bulk_tcf
    from repro.hashing import fingerprints, potc
    from repro.service import journal, registry, service
    from repro.sharding import sharded

    def first_arg(args, kwargs, result):
        return {"items": _n(args[0])}

    def method_arg(args, kwargs, result):
        return {"items": _n(args[1])}

    # repro.hashing
    tracer.patch(potc, "derive", "hashing.potc")
    tracer.patch(fingerprints.FingerprintScheme, "hash_key", "hashing.fingerprint")
    tracer.patch(fingerprints.FingerprintScheme, "split", "hashing.fingerprint")

    # repro.gpusim sorting, where the cores import it
    for module in (bulk_tcf, bulk_gqf, mapreduce):
        tracer.patch(module, "device_sort_by_key", "sorting.sort", first_arg)
    tracer.patch(mapreduce, "device_sort", "sorting.sort", first_arg)
    tracer.patch(bulk_tcf, "device_lower_bound", "sorting.lower_bound")
    tracer.patch(mapreduce, "device_reduce_by_key", "sorting.reduce")

    # repro.core.gqf
    core = layout.QuotientFilterCore
    tracer.patch(core, "insert_sorted_batch", "gqf.merge")
    tracer.patch(core, "lookup_counts", "gqf.lookup")
    tracer.patch(core, "delete_sorted_batch", "gqf.delete")
    tracer.patch(
        bulk_gqf,
        "aggregate_batch",
        "gqf.mapreduce",
        lambda args, kwargs, result: {"items": _n(args[0]), "distinct": _n(result[0])},
    )

    # repro.core.tcf
    for attr in ("bulk_insert", "bulk_insert_mask"):
        tracer.patch(bulk_tcf.BulkTCF, attr, "tcf.insert_call", method_arg)
    tracer.patch(block.BlockedTable, "resort_rows", "tcf.resort")
    tracer.patch(block.BlockedTable, "row_lower_bound", "tcf.row_search")
    tracer.patch(backing.BackingTable, "bulk_insert", "tcf.backing", method_arg)
    for attr in ("bulk_contains", "bulk_delete"):
        tracer.patch(backing.BackingTable, attr, "tcf.backing")

    # repro.lifecycle, where the service and sharding import it
    tracer.patch(service, "expand", "lifecycle.expand")
    tracer.patch(sharded, "expand", "lifecycle.expand")

    # repro.service
    tracer.patch(service.FilterService, "submit", "service.submit")
    tracer.patch(journal.JobJournal, "record_submit", "service.journal")
    tracer.patch(journal.JobJournal, "record_result", "service.journal")
    tracer.patch_context(registry.FilterRegistry, "acquire", "service.registry.acquire")
    tracer.patch(registry.FilterRegistry, "ensure_resident", "service.registry.ensure")

    # repro.sharding
    def route_counts(args, kwargs, result):
        sizes = result[1][1:] - result[1][:-1]
        return {"max": int(sizes.max()), "mean": float(sizes.mean())}

    tracer.patch(sharded, "partition", "sharding.route", route_counts)

    def ipc_counts(args, kwargs, result):
        out = _nbytes(args[1]) + (_nbytes(args[2]) if len(args) > 2 else 0)
        back = _nbytes(result) if hasattr(result, "nbytes") else 8 * args[0].n_shards
        return {"bytes": out + back}

    for attr in ("bulk_insert", "bulk_query", "bulk_count", "bulk_delete"):
        tracer.patch(sharded.ShardedFilter, attr, "sharding.op", ipc_counts)


def trace_tenant(tracer: Tracer, filt, tenant: str) -> None:
    """Span a service tenant's bulk calls as ``service.filter_op.<tenant>``."""
    for attr in ("bulk_insert", "bulk_insert_mask", "bulk_query", "bulk_count", "bulk_delete"):
        if hasattr(filt, attr):
            tracer.patch_instance(filt, attr, f"service.filter_op.{tenant}")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers derived from the spans (time metrics in seconds)."""
    self_s = tracer.self_times()

    def s(*names: str) -> float:
        return float(sum(self_s.get(name, 0.0) for name in names))

    def ratio(num: float, den: float) -> float:
        return float(num / den) if den else 0.0

    routes = tracer.calls("sharding.route")
    imbalance = [
        span["counts"]["max"] / span["counts"]["mean"]
        for span in routes
        if span["counts"]["mean"]
    ]
    acquires = len(tracer.calls("service.registry.acquire")) // 2  # enter + exit
    return {
        "hashing.potc_s": s("hashing.potc"),
        "hashing.fingerprint_s": s("hashing.fingerprint"),
        "sorting.sort_s": s("sorting.sort"),
        "sorting.sort_items": tracer.count_sum("sorting.sort", "items"),
        "sorting.lower_bound_s": s("sorting.lower_bound"),
        "sorting.reduce_s": s("sorting.reduce"),
        "gqf.merge_s": s("gqf.merge"),
        "gqf.lookup_s": s("gqf.lookup"),
        "gqf.delete_s": s("gqf.delete"),
        "gqf.mapreduce_s": s("gqf.mapreduce"),
        "gqf.aggregation_ratio": ratio(
            tracer.count_sum("gqf.mapreduce", "distinct"),
            tracer.count_sum("gqf.mapreduce", "items"),
        ),
        "tcf.resort_s": s("tcf.resort"),
        "tcf.row_search_s": s("tcf.row_search"),
        "tcf.backing_s": s("tcf.backing"),
        "tcf.spill_fraction": ratio(
            tracer.count_sum("tcf.backing", "items"),
            tracer.count_sum("tcf.insert_call", "items"),
        ),
        "lifecycle.expand_s": s("lifecycle.expand"),
        "lifecycle.expands": float(len(tracer.calls("lifecycle.expand"))),
        "service.journal_s": s("service.journal"),
        "service.journal_records": float(len(tracer.calls("service.journal"))),
        "service.batches": float(acquires),
        "service.registry_s": s("service.registry.acquire", "service.registry.ensure"),
        "service.filter_op_s.members": s("service.filter_op.members"),
        "service.filter_op_s.counts": s("service.filter_op.counts"),
        "sharding.route_s": s("sharding.route"),
        "sharding.dispatch_s": s("sharding.op"),
        "sharding.ipc_bytes": tracer.count_sum("sharding.op", "bytes"),
        "sharding.imbalance": max(imbalance) if imbalance else 0.0,
    }


def submit_ms(tracer: Tracer) -> List[float]:
    """Client time inside each ``FilterService.submit`` call, in ms."""
    return [1e3 * (span["end"] - span["start"]) for span in tracer.calls("service.submit")]
