"""perfbench's tracer still finds the filter entry points it patches.

``perfbench.trace.install`` wraps functions and methods by name: the
quotient-filter core's ``insert_sorted_batch``, ``lookup_counts`` and
``delete_sorted_batch`` on the class that defines them, and the bulk GQF's
``device_sort_by_key`` and ``aggregate_batch`` through ``bulk_gqf``'s module
globals.  A refactor that moves one of them leaves its layer silently
untimed (``gqf.merge_s`` or ``sorting.sort_s`` reads 0) or makes the traced
run fail at install.  This drives a tiny traced workload and checks that
every one of those layers recorded a span.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from repro.core.gqf import BulkGQF
from repro.core.tcf import BulkTCF

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench import trace  # noqa: E402


def test_tracer_hooks_record_the_filter_layers():
    keys = np.random.default_rng(21).integers(2, 2**63, size=600, dtype=np.uint64)
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        gqf = BulkGQF(12, 8, use_mapreduce=True)
        gqf.bulk_insert(np.concatenate([keys, keys[:100]]))
        assert gqf.bulk_query(keys).all()
        assert gqf.bulk_delete(keys[:300]) == 300
        BulkTCF(4_096).bulk_insert(keys)
    finally:
        tracer.restore()
    recorded = {span["name"] for span in tracer.spans}
    expected = {
        "gqf.merge",
        "gqf.lookup",
        "gqf.delete",
        "gqf.mapreduce",
        "sorting.sort",
        "tcf.insert_call",
    }
    assert expected <= recorded, sorted(expected - recorded)
