"""Pinned table state and simulated events of the batch quotient-filter paths.

Every filter built on :class:`~repro.core.gqf.layout.QuotientFilterCore`
funnels its vectorised batch inserts and deletes through
``insert_sorted_batch`` / ``delete_sorted_batch``.  The digests and event
counts below were recorded while each bulk GQF phase still re-sorted and
rewrote the whole table, and each per-design script's closing reads and
deletes (both routes, and point deletes) while every design still wrote
its own ``bulk_query`` / ``bulk_count`` / ``bulk_delete`` / ``delete``.
Any rewrite of those paths must reproduce them exactly: the same slots and
metadata bits, the same per-kernel hardware events, the same overflow
behaviour.  The single-write tests at the end pin how the bulk GQF drives
the core: one call per vectorised bulk call, and a merge that overflows
charges and writes nothing.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.cpu_cqf import CPUCountingQuotientFilter
from repro.baselines.rsqf import RankSelectQuotientFilter
from repro.baselines.sqf import StandardQuotientFilter
from repro.core.exceptions import FilterFullError, UnsupportedOperationError
from repro.core.gqf import BulkGQF, PointGQF
from repro.core.gqf.layout import SEQUENTIAL_BATCH_MAX
from repro.gpusim.stats import StatsRecorder


def _keys(rng, n):
    return rng.integers(0, 2**63, size=n, dtype=np.uint64)


def _state_digest(core):
    h = hashlib.sha256()
    for name, arr in sorted(core.export_state().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _digest(array):
    return hashlib.sha256(np.asarray(array, dtype=np.int64).tobytes()).hexdigest()[:12]


def _reads_and_deletes(filt, rng, stored):
    """Read and delete ``stored`` keys through both routes, as far as the
    design supports them: a large and a small (per-item) ``bulk_query``
    and ``bulk_count``, a small ``bulk_delete`` and point deletes."""
    probes = np.concatenate([stored[:300], _keys(rng, 100)])
    small = probes[::16]
    doomed = np.concatenate([stored[300:320], stored[300:305], _keys(rng, 4)])
    assert small.size <= SEQUENTIAL_BATCH_MAX and doomed.size <= SEQUENTIAL_BATCH_MAX
    caps = filt.capabilities()
    results = [_digest(filt.bulk_query(probes)), _digest(filt.bulk_query(small))]
    if caps.bulk_count:
        results += [_digest(filt.bulk_count(probes)), _digest(filt.bulk_count(small))]
    if caps.bulk_delete:
        results.append(filt.bulk_delete(doomed))
    for key in np.concatenate([stored[320:323], stored[320:321], _keys(rng, 1)]):
        try:
            results.append(filt.delete(int(key)))
        except UnsupportedOperationError:
            results.append("refused")
    return results


def _nonzero(stats):
    return {k: v for k, v in stats.as_dict().items() if v}


def _observe(filt, results):
    core = filt.core
    core.check_invariants()
    return {
        "results": results,
        "state": _state_digest(core),
        "scalars": (core.n_distinct_items, core.total_count),
        "total": _nonzero(filt.recorder.total),
        "kernels": [(k.name, _nonzero(k.stats)) for k in filt.kernels.kernels],
    }


def _bulk_gqf_script():
    rng = np.random.default_rng(11)
    filt = BulkGQF(12, 8, region_slots=256, recorder=StatsRecorder())
    base = _keys(rng, 2000)
    results = [filt.bulk_insert(base)]
    # Counts up to 5,000 need counter digits in their runs (remainders 0
    # and 1 would store such a count as that many copies instead).
    valued = np.concatenate([base[:60], _keys(rng, 140)])
    valued = valued[filt.scheme.key_to_slot(valued)[1] >= 2]
    results.append(filt.bulk_insert(valued, rng.integers(0, 5000, size=valued.size)))
    # Duplicate keys inside one batch, half of them already stored.
    results.append(filt.bulk_insert(np.concatenate([base[200:500], base[200:300]])))
    # Absent keys, and stored keys requested more often than their count.
    doomed = np.concatenate([base[:900], base[100:160], base[100:130], _keys(rng, 300)])
    results.append(filt.bulk_delete(rng.permutation(doomed)))
    results.append(int(filt.bulk_count(base).sum()))
    results += _reads_and_deletes(filt, rng, base[1000:])
    return _observe(filt, results)


def _bulk_gqf_mapreduce_script():
    rng = np.random.default_rng(12)
    filt = BulkGQF(12, 8, region_slots=256, use_mapreduce=True, recorder=StatsRecorder())
    results = [filt.bulk_insert(_keys(rng, 2000))]
    zipf = rng.zipf(1.5, size=3000).astype(np.uint64)
    results.append(filt.bulk_insert(zipf))
    results.append(filt.bulk_delete(np.concatenate([zipf[:400], zipf[:50]])))
    return _observe(filt, results)


def _region_keys(filt, rng, region, n):
    """``n`` keys whose canonical slot lies in ``region``."""
    lo, hi = filt.partition.region_bounds(region)
    out = []
    while sum(a.size for a in out) < n:
        cand = _keys(rng, 4 * n)
        q, _r = filt.scheme.key_to_slot(cand)
        out.append(cand[(q >= lo) & (q < hi)])
    return np.concatenate(out)[:n]


def _overflow_script(auto_resize):
    """The even phase fits; together with the odd phase the batch does not."""
    rng = np.random.default_rng(13)
    filt = BulkGQF(8, 8, region_slots=128, auto_resize=auto_resize, recorder=StatsRecorder())
    keys = np.concatenate([_region_keys(filt, rng, 0, 140), _region_keys(filt, rng, 1, 200)])
    try:
        results = [filt.bulk_insert(keys)]
    except FilterFullError:
        results = ["full"]
    return _observe(filt, results)


def _point_gqf_script():
    rng = np.random.default_rng(14)
    filt = PointGQF(12, 8, region_slots=256, recorder=StatsRecorder())
    base = _keys(rng, 1500)
    results = [filt.bulk_insert(base)]
    results.append(filt.bulk_insert(base[:300], rng.integers(0, 400, size=300)))
    results.append(filt.bulk_delete(np.concatenate([base[:500], base[:40], _keys(rng, 100)])))
    results += _reads_and_deletes(filt, rng, base[500:])
    return _observe(filt, results)


def _sqf_script():
    rng = np.random.default_rng(15)
    filt = StandardQuotientFilter(12, 13, recorder=StatsRecorder())
    base = _keys(rng, 1500)
    results = [filt.bulk_insert(np.concatenate([base, base[:200]]))]
    results.append(filt.bulk_delete(np.concatenate([base[:400], base[:250], _keys(rng, 80)])))
    results += _reads_and_deletes(filt, rng, base[400:])
    return _observe(filt, results)


def _rsqf_script():
    rng = np.random.default_rng(16)
    filt = RankSelectQuotientFilter(12, 13, recorder=StatsRecorder())
    base = _keys(rng, 1500)
    results = [filt.bulk_insert(np.concatenate([base, base[:100]]))]
    results.append(filt.bulk_insert(_keys(rng, 600)))
    results += _reads_and_deletes(filt, rng, base)
    return _observe(filt, results)


def _cpu_cqf_script():
    rng = np.random.default_rng(17)
    filt = CPUCountingQuotientFilter(12, 8, recorder=StatsRecorder())
    base = _keys(rng, 1000)
    results = [filt.bulk_insert(base, rng.integers(0, 8, size=base.size))]
    results.append(filt.bulk_delete(np.concatenate([base[:600], base[:600], _keys(rng, 90)])))
    results += _reads_and_deletes(filt, rng, base[600:])
    return _observe(filt, results)


def _quotient_keys(filt, rng, lo, hi, n):
    """``n`` keys whose quotient lies in ``[lo, hi)``."""
    out = []
    while sum(a.size for a in out) < n:
        cand = _keys(rng, 1 << 16)
        q, _r = filt.scheme.key_to_slot(cand)
        out.append(cand[(q >= lo) & (q < hi)])
    return np.concatenate(out)[:n]


def _clusters(core):
    """``(starts, stops)`` of the table's clusters (maximal used spans)."""
    edges = np.diff(np.concatenate(([0], core.slot_used.bits.astype(np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def _small_batch_script():
    """Vectorised batches of 40-60 rows into a ``BulkGQF(14, 8)`` at ~0.85
    load: each touches a few clusters of a table of ~1,400."""
    rng = np.random.default_rng(19)
    filt = BulkGQF(14, 8, recorder=StatsRecorder())
    core = filt.core
    base = _keys(rng, 13_900)
    results = [filt.bulk_insert(base)]
    # Grow the runs of a cluster one slot short of the next: the gap fills
    # and the two clusters merge (the random rows merge more of them).
    starts, stops = _clusters(core)
    i = next(
        i
        for i in range(starts.size - 1)
        if starts[i + 1] - stops[i] == 1 and stops[i] - starts[i] > 20 and starts[i] > 4000
    )
    n_clusters = starts.size
    gap_fill = _quotient_keys(filt, rng, stops[i] - 8, stops[i], 3)
    results.append(filt.bulk_insert(np.concatenate([gap_fill, _keys(rng, 37)])))
    results.append(n_clusters - _clusters(core)[0].size)
    # Counts that need counter digits, then one fewer of each (and of some
    # twice): the digit encodings change length both ways.
    valued = np.concatenate([base[:24], _keys(rng, 24)])
    valued = valued[filt.scheme.key_to_slot(valued)[1] >= 2]
    results.append(filt.bulk_insert(valued, rng.integers(3, 5000, size=valued.size)))
    results.append(filt.bulk_delete(np.concatenate([valued, valued[:10]])))
    # Empty 48 quotients' runs inside the longest cluster: it splits.
    starts, stops = _clusters(core)
    lo = int(starts[int(np.argmax(stops - starts))]) + 10
    quotients = filt.scheme.key_to_slot(base)[0]
    victims = base[(quotients >= lo) & (quotients < lo + 48)]
    n_clusters = starts.size
    results.append(filt.bulk_delete(rng.permutation(np.concatenate([victims, _keys(rng, 8)]))))
    results.append(_clusters(core)[0].size - n_clusters)
    # Fill the slack past the last cluster to ten free slots, then overflow
    # it with a small batch: the even phase lands, the odd one fills and
    # stops.
    top = core.n_canonical_slots
    free_tail = core.total_slots - int(_clusters(core)[1][-1])
    results.append(filt.bulk_insert(_quotient_keys(filt, rng, top - 128, top, free_tail - 10)))
    overflow = np.concatenate([_keys(rng, 20), _quotient_keys(filt, rng, top - 128, top, 30)])
    results.append(int(np.count_nonzero(filt.bulk_insert_mask(overflow))))
    results.append(int(filt.bulk_count(base).sum()))
    return _observe(filt, results)


SCRIPTS = {
    "bulk_gqf": _bulk_gqf_script,
    "bulk_gqf_mapreduce": _bulk_gqf_mapreduce_script,
    "bulk_gqf_overflow": lambda: _overflow_script(False),
    "bulk_gqf_overflow_resize": lambda: _overflow_script(True),
    "point_gqf": _point_gqf_script,
    "sqf": _sqf_script,
    "rsqf": _rsqf_script,
    "cpu_cqf": _cpu_cqf_script,
    "bulk_gqf_small_batches": _small_batch_script,
}

EXPECTED = {
    "bulk_gqf": {
        "results": [
            2000,
            197,
            400,
            900,
            157281,
            "d255ed3be995",
            "b5f1b25dfcf3",
            "d255ed3be995",
            "b5f1b25dfcf3",
            20,
            True,
            True,
            True,
            False,
            False,
        ],
        "state": "1e189f8559b3ca96",
        "scalars": (1572, 501346),
        "total": {
            "cache_line_reads": 28546,
            "cache_line_writes": 22946,
            "coalesced_bytes_read": 501888,
            "coalesced_bytes_written": 501888,
            "slots_shifted": 34125,
            "instructions": 83689,
            "kernel_launches": 105,
            "items_sorted": 3921,
        },
        "kernels": [
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 2491,
                    "cache_line_writes": 4093,
                    "instructions": 5652,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 2346,
                    "cache_line_writes": 3913,
                    "instructions": 5332,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 272,
                    "cache_line_writes": 374,
                    "slots_shifted": 2452,
                    "instructions": 1793,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 339,
                    "cache_line_writes": 439,
                    "slots_shifted": 3622,
                    "instructions": 2503,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 811,
                    "cache_line_writes": 812,
                    "slots_shifted": 2904,
                    "instructions": 3221,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 827,
                    "cache_line_writes": 834,
                    "slots_shifted": 5056,
                    "instructions": 4333,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_even",
                {
                    "cache_line_reads": 6758,
                    "cache_line_writes": 6072,
                    "slots_shifted": 9257,
                    "instructions": 21258,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_odd",
                {
                    "cache_line_reads": 6837,
                    "cache_line_writes": 6233,
                    "slots_shifted": 10577,
                    "instructions": 23571,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_count",
                {"cache_line_reads": 5302, "instructions": 10777, "kernel_launches": 1},
            ),
            (
                "gqf_bulk_query",
                {"cache_line_reads": 1080, "instructions": 2120, "kernel_launches": 1},
            ),
            ("gqf_bulk_query", {"cache_line_reads": 69, "instructions": 132, "kernel_launches": 1}),
            (
                "gqf_bulk_count",
                {"cache_line_reads": 1080, "instructions": 2120, "kernel_launches": 1},
            ),
            ("gqf_bulk_count", {"cache_line_reads": 69, "instructions": 132, "kernel_launches": 1}),
            (
                "gqf_bulk_delete_even",
                {
                    "cache_line_reads": 137,
                    "cache_line_writes": 100,
                    "slots_shifted": 161,
                    "instructions": 424,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_odd",
                {
                    "cache_line_reads": 98,
                    "cache_line_writes": 58,
                    "slots_shifted": 74,
                    "instructions": 247,
                    "kernel_launches": 1,
                },
            ),
            ("gqf_bulk_delete_even", {"kernel_launches": 1}),
            (
                "gqf_bulk_delete_odd",
                {
                    "cache_line_reads": 5,
                    "slots_shifted": 1,
                    "instructions": 9,
                    "kernel_launches": 1,
                },
            ),
            ("gqf_bulk_delete_even", {"kernel_launches": 1}),
            (
                "gqf_bulk_delete_odd",
                {
                    "cache_line_reads": 6,
                    "cache_line_writes": 4,
                    "slots_shifted": 3,
                    "instructions": 13,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_even",
                {
                    "cache_line_reads": 17,
                    "cache_line_writes": 14,
                    "slots_shifted": 18,
                    "instructions": 44,
                    "kernel_launches": 1,
                },
            ),
            ("gqf_bulk_delete_odd", {"kernel_launches": 1}),
            ("gqf_bulk_delete_even", {"kernel_launches": 1}),
            (
                "gqf_bulk_delete_odd",
                {"cache_line_reads": 1, "instructions": 4, "kernel_launches": 1},
            ),
            (
                "gqf_bulk_delete_even",
                {"cache_line_reads": 1, "instructions": 4, "kernel_launches": 1},
            ),
            ("gqf_bulk_delete_odd", {"kernel_launches": 1}),
        ],
    },
    "bulk_gqf_mapreduce": {
        "results": [2000, 291, 449],
        "state": "875fcb952dcf8927",
        "scalars": (2267, 4551),
        "total": {
            "cache_line_reads": 8807,
            "cache_line_writes": 11833,
            "coalesced_bytes_read": 750848,
            "coalesced_bytes_written": 750848,
            "slots_shifted": 4971,
            "instructions": 21931,
            "kernel_launches": 48,
            "items_sorted": 7741,
            "items_reduced": 5000,
        },
        "kernels": [
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 2450,
                    "cache_line_writes": 4048,
                    "instructions": 5551,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 2426,
                    "cache_line_writes": 3959,
                    "instructions": 5471,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 456,
                    "cache_line_writes": 652,
                    "slots_shifted": 1022,
                    "instructions": 1477,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 371,
                    "cache_line_writes": 520,
                    "slots_shifted": 708,
                    "instructions": 1149,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_even",
                {
                    "cache_line_reads": 2696,
                    "cache_line_writes": 2294,
                    "slots_shifted": 2856,
                    "instructions": 7320,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_odd",
                {
                    "cache_line_reads": 408,
                    "cache_line_writes": 360,
                    "slots_shifted": 385,
                    "instructions": 963,
                    "kernel_launches": 1,
                },
            ),
        ],
    },
    "bulk_gqf_overflow": {
        "results": ["full"],
        "state": "368ed10dcd757a3c",
        "scalars": (314, 315),
        "total": {
            "cache_line_reads": 911,
            "cache_line_writes": 1261,
            "coalesced_bytes_read": 43520,
            "coalesced_bytes_written": 43520,
            "instructions": 1993,
            "kernel_launches": 10,
            "items_sorted": 340,
        },
        "kernels": [
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 392,
                    "cache_line_writes": 560,
                    "instructions": 856,
                    "kernel_launches": 1,
                },
            ),
        ],
    },
    "bulk_gqf_overflow_resize": {
        "results": [340],
        "state": "f737c14f379206d3",
        "scalars": (339, 340),
        "total": {
            "cache_line_reads": 1270,
            "cache_line_writes": 1921,
            "coalesced_bytes_read": 43520,
            "coalesced_bytes_written": 43520,
            "instructions": 2802,
            "kernel_launches": 12,
            "items_sorted": 340,
        },
        "kernels": [
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 392,
                    "cache_line_writes": 560,
                    "instructions": 856,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 246,
                    "cache_line_writes": 380,
                    "instructions": 541,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 278,
                    "cache_line_writes": 420,
                    "instructions": 613,
                    "kernel_launches": 1,
                },
            ),
            # The odd phase that overflowed raised through its launch, which
            # records nothing; the table grew outside any launch.
        ],
    },
    "bulk_gqf_small_batches": {
        "results": [13900, 40, 21, 47, 57, 58, 14, 1014, 43, 69359],
        "state": "620eac8d11789898",
        "scalars": (14910, 128213),
        "total": {
            "cache_line_reads": 90293,
            "cache_line_writes": 67446,
            "coalesced_bytes_read": 1942272,
            "coalesced_bytes_written": 1942272,
            "slots_shifted": 163880,
            "instructions": 277027,
            "kernel_launches": 71,
            "items_sorted": 15174,
        },
        "kernels": [
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 18463,
                    "cache_line_writes": 27817,
                    "instructions": 40720,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 18521,
                    "cache_line_writes": 27831,
                    "instructions": 40770,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 56,
                    "cache_line_writes": 74,
                    "slots_shifted": 406,
                    "instructions": 317,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 78,
                    "cache_line_writes": 92,
                    "slots_shifted": 808,
                    "instructions": 558,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 108,
                    "cache_line_writes": 116,
                    "slots_shifted": 4988,
                    "instructions": 2688,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 107,
                    "cache_line_writes": 119,
                    "slots_shifted": 6882,
                    "instructions": 3608,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_even",
                {
                    "cache_line_reads": 689,
                    "cache_line_writes": 659,
                    "slots_shifted": 956,
                    "instructions": 2032,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_odd",
                {
                    "cache_line_reads": 838,
                    "cache_line_writes": 811,
                    "slots_shifted": 1189,
                    "instructions": 2487,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_even",
                {
                    "cache_line_reads": 69,
                    "cache_line_writes": 62,
                    "slots_shifted": 75,
                    "instructions": 178,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_delete_odd",
                {
                    "cache_line_reads": 4991,
                    "cache_line_writes": 4932,
                    "slots_shifted": 7598,
                    "instructions": 15432,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {"kernel_launches": 1},
            ),
            (
                "gqf_bulk_insert_odd",
                {
                    "cache_line_reads": 4411,
                    "cache_line_writes": 4535,
                    "slots_shifted": 113178,
                    "instructions": 71199,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_insert_even",
                {
                    "cache_line_reads": 24,
                    "cache_line_writes": 34,
                    "slots_shifted": 324,
                    "instructions": 210,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_bulk_count",
                {"cache_line_reads": 41683, "instructions": 82507, "kernel_launches": 1},
            ),
        ],
    },
    "cpu_cqf": {
        "results": [
            1000,
            1057,
            "d255ed3be995",
            "b5f1b25dfcf3",
            "64c758b6b8db",
            "88d49fe27d7a",
            23,
            True,
            True,
            True,
            False,
            False,
        ],
        "state": "599b7723175aa51d",
        "scalars": (787, 2573),
        "total": {
            "cache_line_reads": 12845,
            "cache_line_writes": 10985,
            "slots_shifted": 11791,
            "instructions": 39737,
            "kernel_launches": 7,
        },
        "kernels": [
            (
                "cpu_cqf_insert",
                {
                    "cache_line_reads": 2250,
                    "cache_line_writes": 4001,
                    "instructions": 5260,
                    "kernel_launches": 1,
                },
            ),
            (
                "cpu_cqf_delete",
                {
                    "cache_line_reads": 8128,
                    "cache_line_writes": 6838,
                    "slots_shifted": 11568,
                    "instructions": 28296,
                    "kernel_launches": 1,
                },
            ),
            (
                "cpu_cqf_query",
                {"cache_line_reads": 1050, "instructions": 2553, "kernel_launches": 1},
            ),
            ("cpu_cqf_query", {"cache_line_reads": 63, "instructions": 160, "kernel_launches": 1}),
            (
                "cpu_cqf_count",
                {"cache_line_reads": 1050, "instructions": 2553, "kernel_launches": 1},
            ),
            ("cpu_cqf_count", {"cache_line_reads": 63, "instructions": 160, "kernel_launches": 1}),
            (
                "cpu_cqf_delete",
                {
                    "cache_line_reads": 212,
                    "cache_line_writes": 129,
                    "slots_shifted": 184,
                    "instructions": 647,
                    "kernel_launches": 1,
                },
            ),
        ],
    },
    "point_gqf": {
        "results": [
            1500,
            300,
            540,
            "9ec6d0d5301d",
            "b5f1b25dfcf3",
            "9bbb53c74060",
            "b5f1b25dfcf3",
            20,
            True,
            True,
            True,
            False,
            False,
        ],
        "state": "b62cbbba6e458a16",
        "scalars": (1274, 61894),
        "total": {
            "cache_line_reads": 11753,
            "cache_line_writes": 11179,
            "coalesced_bytes_read": 305920,
            "coalesced_bytes_written": 305920,
            "atomic_ops": 9560,
            "lock_acquisitions": 4780,
            "slots_shifted": 19518,
            "instructions": 38184,
            "kernel_launches": 8,
        },
        "kernels": [
            (
                "gqf_point_bulk_insert",
                {
                    "cache_line_reads": 3470,
                    "cache_line_writes": 6002,
                    "coalesced_bytes_read": 185600,
                    "coalesced_bytes_written": 185600,
                    "atomic_ops": 5800,
                    "lock_acquisitions": 2900,
                    "instructions": 8014,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_point_bulk_insert",
                {
                    "cache_line_reads": 1251,
                    "cache_line_writes": 1257,
                    "coalesced_bytes_read": 37056,
                    "coalesced_bytes_written": 37056,
                    "atomic_ops": 1158,
                    "lock_acquisitions": 579,
                    "slots_shifted": 12604,
                    "instructions": 8644,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_point_bulk_delete",
                {
                    "cache_line_reads": 4310,
                    "cache_line_writes": 3670,
                    "coalesced_bytes_read": 79424,
                    "coalesced_bytes_written": 79424,
                    "atomic_ops": 2482,
                    "lock_acquisitions": 1241,
                    "slots_shifted": 6175,
                    "instructions": 14911,
                    "kernel_launches": 1,
                },
            ),
            (
                "gqf_point_bulk_query",
                {"cache_line_reads": 1062, "instructions": 2111, "kernel_launches": 1},
            ),
            (
                "gqf_point_bulk_query",
                {"cache_line_reads": 63, "instructions": 126, "kernel_launches": 1},
            ),
            (
                "gqf_point_bulk_count",
                {"cache_line_reads": 1062, "instructions": 2111, "kernel_launches": 1},
            ),
            (
                "gqf_point_bulk_count",
                {"cache_line_reads": 63, "instructions": 126, "kernel_launches": 1},
            ),
            (
                "gqf_point_bulk_delete",
                {
                    "cache_line_reads": 452,
                    "cache_line_writes": 241,
                    "coalesced_bytes_read": 3200,
                    "coalesced_bytes_written": 3200,
                    "atomic_ops": 100,
                    "lock_acquisitions": 50,
                    "slots_shifted": 730,
                    "instructions": 2094,
                    "kernel_launches": 1,
                },
            ),
        ],
    },
    "rsqf": {
        "results": [
            1600,
            600,
            "d255ed3be995",
            "b5f1b25dfcf3",
            "refused",
            "refused",
            "refused",
            "refused",
            "refused",
        ],
        "state": "c2c4bfd1eafa148c",
        "scalars": (2100, 2200),
        "total": {
            "cache_line_reads": 6668,
            "cache_line_writes": 8812,
            "slots_shifted": 506,
            "instructions": 15025,
            "kernel_launches": 4,
        },
        "kernels": [
            (
                "rsqf_serial_insert",
                {
                    "cache_line_reads": 3872,
                    "cache_line_writes": 6403,
                    "instructions": 8838,
                    "kernel_launches": 1,
                },
            ),
            (
                "rsqf_serial_insert",
                {
                    "cache_line_reads": 1644,
                    "cache_line_writes": 2409,
                    "slots_shifted": 506,
                    "instructions": 3811,
                    "kernel_launches": 1,
                },
            ),
            (
                "rsqf_bulk_query",
                {"cache_line_reads": 1085, "instructions": 2234, "kernel_launches": 1},
            ),
            (
                "rsqf_bulk_query",
                {"cache_line_reads": 67, "instructions": 142, "kernel_launches": 1},
            ),
        ],
    },
    "sqf": {
        "results": [
            1700,
            600,
            "d255ed3be995",
            "b5f1b25dfcf3",
            20,
            "refused",
            "refused",
            "refused",
            "refused",
            "refused",
        ],
        "state": "faa9ff0ee6a03f88",
        "scalars": (1080, 1080),
        "total": {
            "cache_line_reads": 8904,
            "cache_line_writes": 9512,
            "coalesced_bytes_read": 244800,
            "coalesced_bytes_written": 244800,
            "slots_shifted": 1644,
            "instructions": 18132,
            "kernel_launches": 29,
            "items_sorted": 2125,
        },
        "kernels": [
            (
                "sqf_bulk_insert",
                {
                    "cache_line_reads": 4279,
                    "cache_line_writes": 6816,
                    "instructions": 9608,
                    "kernel_launches": 1,
                },
            ),
            (
                "sqf_bulk_delete",
                {
                    "cache_line_reads": 3340,
                    "cache_line_writes": 2610,
                    "slots_shifted": 1581,
                    "instructions": 6082,
                    "kernel_launches": 1,
                },
            ),
            (
                "sqf_bulk_query",
                {"cache_line_reads": 1060, "instructions": 2001, "kernel_launches": 1},
            ),
            ("sqf_bulk_query", {"cache_line_reads": 67, "instructions": 124, "kernel_launches": 1}),
            (
                "sqf_bulk_delete",
                {
                    "cache_line_reads": 158,
                    "cache_line_writes": 86,
                    "slots_shifted": 63,
                    "instructions": 317,
                    "kernel_launches": 1,
                },
            ),
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_batch_paths_match_pinned_state_and_events(name):
    assert SCRIPTS[name]() == EXPECTED[name]


def _spy(core, name):
    """Record the ``phases`` argument of every call to a core method."""
    calls = []
    method = getattr(core, name)

    def spy(*args, **kwargs):
        calls.append(kwargs.get("phases"))
        return method(*args, **kwargs)

    setattr(core, name, spy)
    return calls


def _overflow_filter(auto_resize=False):
    rng = np.random.default_rng(13)
    filt = BulkGQF(8, 8, region_slots=128, auto_resize=auto_resize, recorder=StatsRecorder())
    even = _region_keys(filt, rng, 0, 140)
    return filt, even, np.concatenate([even, _region_keys(filt, rng, 1, 200)])


def _same_state(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class TestSingleWrite:
    def test_one_core_call_per_vectorised_bulk_call(self):
        rng = np.random.default_rng(18)
        filt = BulkGQF(12, 8, region_slots=256, recorder=StatsRecorder())
        filt.bulk_insert(_keys(rng, 1500))
        inserts = _spy(filt.core, "insert_sorted_batch")
        deletes = _spy(filt.core, "delete_sorted_batch")
        keys = _keys(rng, 800)
        filt.bulk_insert(keys)
        filt.bulk_delete(keys[:400])
        assert [len(phases) for phases in inserts + deletes] == [2, 2]
        assert [k.name for k in filt.kernels.kernels[-4:]] == [
            "gqf_bulk_insert_even",
            "gqf_bulk_insert_odd",
            "gqf_bulk_delete_even",
            "gqf_bulk_delete_odd",
        ]
        # The masked insert is the same single write, never the per-item path.
        per_item = _spy(filt.core, "insert_fingerprint")
        assert filt.bulk_insert_mask(_keys(rng, 800)).all()
        assert [len(phases) for phases in inserts] == [2, 2]
        assert per_item == []

    def test_overflowing_merge_charges_and_writes_nothing(self):
        filt, _even, keys = _overflow_filter()
        merge = filt.core.insert_sorted_batch
        raised = []

        def spy(*args, **kwargs):
            state = filt.core.export_state()
            events = filt.recorder.total.as_dict()
            n_kernels = len(filt.kernels.kernels)
            try:
                merge(*args, **kwargs)
            except FilterFullError:
                raised.append(
                    (
                        kwargs.get("phases") is not None,
                        _same_state(state, filt.core.export_state()),
                        events == filt.recorder.total.as_dict(),
                        n_kernels == len(filt.kernels.kernels),
                    )
                )
                raise

        filt.core.insert_sorted_batch = spy
        with pytest.raises(FilterFullError):
            filt.bulk_insert(keys)
        # The one-call merge raised first, then the odd phase's own merge.
        assert raised == [(True, True, True, True), (False, True, True, True)]

    def test_overflow_after_the_even_phase_fills_then_raises(self):
        filt, even, keys = _overflow_filter()
        with pytest.raises(FilterFullError):
            filt.bulk_insert(keys)
        filt.core.check_invariants()
        assert filt.bulk_query(even).all()
        assert filt.core.slot_used.get(filt.core.total_slots - 1)

    def test_overflow_with_auto_resize_matches_growing_first(self):
        grown, _even, keys = _overflow_filter(auto_resize=True)
        grown.bulk_insert(keys)
        reference = _overflow_filter(auto_resize=True)[0]
        reference._grow()
        reference.bulk_insert(keys)
        assert grown.n_resizes == reference.n_resizes == 1
        assert _same_state(grown.core.export_state(), reference.core.export_state())


DESIGNS = {
    "bulk_gqf": lambda recorder: BulkGQF(10, 8, region_slots=256, recorder=recorder),
    "point_gqf": lambda recorder: PointGQF(10, 8, region_slots=256, recorder=recorder),
    "sqf": lambda recorder: StandardQuotientFilter(10, 13, recorder=recorder),
    "rsqf": lambda recorder: RankSelectQuotientFilter(10, 13, recorder=recorder),
    "cpu_cqf": lambda recorder: CPUCountingQuotientFilter(10, 8, recorder=recorder),
}


@pytest.mark.parametrize("op", ["query", "count", "delete"])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_an_empty_batch_launches_and_records_nothing(design, op):
    filt = DESIGNS[design](StatsRecorder())
    if not filt.capabilities().supports(op, "bulk"):
        pytest.skip(f"the {filt.name} refuses bulk {op}")
    filt.bulk_insert(_keys(np.random.default_rng(20), 300))
    events = filt.recorder.total.as_dict()
    n_kernels = len(filt.kernels.kernels)
    result = getattr(filt, f"bulk_{op}")(np.zeros(0, dtype=np.uint64))
    if op == "delete":
        assert result == 0
    else:
        assert result.shape == (0,)
        assert result.dtype == (bool if op == "query" else np.int64)
    assert filt.recorder.total.as_dict() == events
    assert len(filt.kernels.kernels) == n_kernels
