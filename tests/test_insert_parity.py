"""``bulk_insert`` and ``bulk_insert_mask`` are one insert.

Every bulk filter implements its insert once, in ``bulk_insert_mask``;
``bulk_insert`` is that mask plus a ``FilterFullError`` when a key is left
out.  Wherever ``bulk_insert`` succeeds, the mask on a fresh twin must
therefore leave the same table state, the same hardware events and the same
per-kernel stats; where it raises, the mask reports the keys it left out
and the table and event totals match (a bit array never refuses a key, so
the Bloom filters have no failing case).  The last tests guard the masked
inserts against falling back to a per-key loop.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines.blocked_bloom import BlockedBloomFilter
from repro.baselines.bloom import BloomFilter
from repro.baselines.cpu_cqf import CPUCountingQuotientFilter
from repro.baselines.cpu_vqf import CPUVectorQuotientFilter
from repro.baselines.rsqf import RankSelectQuotientFilter
from repro.baselines.sqf import StandardQuotientFilter
from repro.core.exceptions import FilterFullError
from repro.core.gqf import BulkGQF, PointGQF
from repro.core.tcf import BulkTCF, PointTCF

#: name -> (fresh filter factory, batch sizes inserted one after another)
CASES = {
    "gqf": (lambda: BulkGQF(13, 8), (1_500, 20, 900)),
    "gqf-mapreduce": (lambda: BulkGQF(13, 8, use_mapreduce=True), (1_500, 20, 900)),
    "gqf-auto-resize": (lambda: BulkGQF(9, 8, auto_resize=True), (300, 1_500, 8)),
    "point-gqf": (lambda: PointGQF(13, 8), (1_500, 20, 900)),
    "point-gqf-auto-resize": (lambda: PointGQF(9, 8, auto_resize=True), (300, 1_500, 8)),
    "cpu-cqf": (lambda: CPUCountingQuotientFilter(13, 8), (1_500, 20, 900)),
    "sqf": (lambda: StandardQuotientFilter(13, 5), (1_500, 20, 900)),
    "rsqf": (lambda: RankSelectQuotientFilter(13, 5), (1_500, 20, 900)),
    "bulk-tcf": (lambda: BulkTCF(4_096), (1_500, 20, 900)),
    "bulk-tcf-auto-resize": (lambda: BulkTCF(512, auto_resize=True), (400, 1_500, 8)),
    "point-tcf": (lambda: PointTCF(4_096), (1_500, 20, 900)),
    "point-tcf-auto-resize": (lambda: PointTCF(512, auto_resize=True), (400, 1_500, 8)),
    "bloom": (lambda: BloomFilter.for_capacity(4_096), (1_500, 20, 900)),
    "blocked-bloom": (lambda: BlockedBloomFilter.for_capacity(4_096), (1_500, 20, 900)),
    "cpu-vqf": (lambda: CPUVectorQuotientFilter(4_096), (1_500, 20, 900)),
}


def _batches(sizes, seed=3):
    rng = np.random.default_rng(seed)
    for size in sizes:
        # A small key range, so map-reduce batches carry duplicates.
        keys = rng.integers(2, 2**20, size=size, dtype=np.uint64)
        yield keys, rng.integers(1, 4, size=size, dtype=np.uint64)


def _observe(filt):
    return (
        filt.snapshot_state(),
        filt.recorder.total.as_dict(),
        [(k.name, k.stats.as_dict()) for k in filt.kernels.kernels],
    )


def _assert_same(a, b):
    state_a, *events_a = a
    state_b, *events_b = b
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name
    assert events_a == events_b


@pytest.mark.parametrize("name", sorted(CASES))
def test_mask_matches_a_successful_bulk_insert(name):
    factory, sizes = CASES[name]
    counted, masked = factory(), factory()
    for keys, values in _batches(sizes):
        if not counted.capabilities().values:
            values = None
        n = counted.bulk_insert(keys, values)
        mask = masked.bulk_insert_mask(keys, values)
        assert mask.dtype == bool and mask.shape == keys.shape and mask.all()
        if name == "gqf-mapreduce":
            assert n == np.unique(keys).size
        else:
            assert n == keys.size
    if "auto-resize" in name:
        assert counted.n_resizes == masked.n_resizes > 0
    _assert_same(_observe(counted), _observe(masked))


@pytest.mark.parametrize(
    "factory, n_keys",
    [
        (lambda: BulkGQF(8, 8), 400),
        (lambda: BulkGQF(8, 8, use_mapreduce=True), 400),
        (lambda: BulkTCF(256), 400),
        (lambda: PointTCF(256), 400),
        (lambda: PointGQF(8, 8), 400),
        (lambda: CPUCountingQuotientFilter(8, 8), 400),
        (lambda: StandardQuotientFilter(8, 5), 400),
        (lambda: RankSelectQuotientFilter(8, 5), 400),
        (lambda: CPUVectorQuotientFilter(256), 400),
    ],
    ids=[
        "gqf", "gqf-mapreduce", "bulk-tcf", "point-tcf", "point-gqf", "cpu-cqf", "sqf", "rsqf",
        "cpu-vqf",
    ],
)
def test_mask_reports_what_a_failing_bulk_insert_left_out(factory, n_keys):
    counted, masked = factory(), factory()
    keys = np.random.default_rng(9).integers(2, 2**63, size=n_keys, dtype=np.uint64)
    with pytest.raises(FilterFullError):
        counted.bulk_insert(keys)
    mask = masked.bulk_insert_mask(keys)
    assert 0 < int(np.count_nonzero(mask)) < keys.size
    # Same table and events; only the raising launch goes unrecorded.
    _assert_same(_observe(counted)[:2], _observe(masked)[:2])
    assert masked.bulk_query(keys[mask]).all()


@pytest.mark.parametrize("n_prefill", [240, 250, 260])
def test_small_point_tcf_batch_that_overflows(n_prefill):
    """A batch small enough for the per-item route fails like the mask.

    The per-item route used to run its own loop in ``bulk_insert`` and stop
    at the first failing key, while the mask went on placing later keys.
    """
    rng = np.random.default_rng(1)
    prefill = rng.integers(2, 2**63, size=n_prefill, dtype=np.uint64)
    keys = rng.integers(2, 2**63, size=32, dtype=np.uint64)
    counted, masked = PointTCF(256), PointTCF(256)
    for filt in (counted, masked):
        assert filt.bulk_insert_mask(prefill).all()
    with pytest.raises(FilterFullError):
        counted.bulk_insert(keys)
    mask = masked.bulk_insert_mask(keys)
    assert 0 < int(np.count_nonzero(mask)) < keys.size
    _assert_same(_observe(counted)[:2], _observe(masked)[:2])
    assert masked.bulk_query(keys[mask]).all()


def test_gqf_mask_is_as_fast_as_bulk_insert():
    keys = np.random.default_rng(4).integers(0, 2**63, size=200_000, dtype=np.uint64)

    def best_of(method, repeats=3):
        times = []
        for _ in range(repeats):
            filt = BulkGQF.for_capacity(keys.size)
            start = time.perf_counter()
            getattr(filt, method)(keys)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of("bulk_insert_mask") <= 2.0 * best_of("bulk_insert")


@pytest.mark.parametrize(
    "factory",
    [
        lambda: BloomFilter.for_capacity(20_000),
        lambda: BlockedBloomFilter.for_capacity(20_000),
        lambda: CPUVectorQuotientFilter.for_capacity(20_000),
    ],
    ids=["bloom", "blocked-bloom", "cpu-vqf"],
)
def test_mask_runs_the_batch_kernel(factory):
    """The mask is one whole-batch launch, not a per-key point loop."""
    keys = np.random.default_rng(5).integers(2, 2**63, size=2_000, dtype=np.uint64)
    filt = factory()
    assert filt.bulk_insert_mask(keys).all()
    assert filt.recorder.total.kernel_launches == 1
    assert len(filt.kernels.kernels) == 1


@pytest.mark.parametrize("name", ["gqf", "gqf-mapreduce", "point-gqf", "cpu-cqf"])
@pytest.mark.parametrize(
    "call, counts",
    [
        ("insert", -3),
        ("bulk_insert", np.array([2, -3])),
        ("bulk_insert_mask", np.array([2, -3])),
        ("bulk_insert_mask", np.array([2, 2**63], dtype=np.uint64)),
    ],
    ids=["point", "bulk", "mask", "mask-past-int64"],
)
def test_a_negative_count_raises_before_any_state_changes(name, call, counts):
    """A count below zero is refused, not counted once; 0 still counts once."""
    filt = CASES[name][0]()
    filt.bulk_insert(np.arange(2, 50, dtype=np.uint64))
    before = filt.snapshot_state()
    with pytest.raises(ValueError, match="non-negative"):
        if call == "insert":
            filt.insert(1_000_003, counts)
        else:
            getattr(filt, call)(np.array([7, 1_000_003], dtype=np.uint64), counts)
    after = filt.snapshot_state()
    assert before.keys() == after.keys()
    for section in before:
        assert before[section].tobytes() == after[section].tobytes(), section
    assert filt.count(1_000_003) == 0
    filt.insert(1_000_003, 0)
    assert filt.count(1_000_003) == 1
