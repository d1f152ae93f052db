"""Concurrency tests for the lifecycle layer (satellite of the service PR).

The lifecycle primitives (save/load/merge) are pure functions of
their inputs, so running them from a thread pool must produce results
identical to running them serially — no shared mutable state, no
order-dependence.  The service adds the locking that makes *mutation*
concurrent-safe; the final tests drive full batches against an
auto-resizing tenant from many threads and check the outcome matches a
serial run key for key.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.gqf import PointGQF
from repro.core.tcf import PointTCF
from repro.lifecycle import load_filter, merge, save_filter
from repro.service import FilterRegistry, FilterService, ServiceConfig


def _keys(block: int, n: int = 200) -> np.ndarray:
    # Disjoint per-block key ranges, clear of the TCF reserved words 0/1.
    return np.arange(2 + block * n, 2 + (block + 1) * n, dtype=np.uint64)


def _state_equal(a, b) -> bool:
    sa, sb = a.snapshot_state(), b.snapshot_state()
    return set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)


def _filled_tcf(block: int) -> PointTCF:
    filt = PointTCF(1024)
    filt.bulk_insert_mask(_keys(block))
    return filt


def _filled_gqf(block: int) -> PointGQF:
    filt = PointGQF(10, 16)
    filt.bulk_insert(_keys(block))
    return filt


def test_parallel_saves_match_serial(tmp_path):
    filters = [_filled_tcf(i) for i in range(8)]
    serial = [tmp_path / f"serial-{i}.rpro" for i in range(8)]
    for filt, path in zip(filters, serial):
        save_filter(filt, path)
    parallel = [tmp_path / f"parallel-{i}.rpro" for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(save_filter, filters, parallel))
    # The snapshot format is deterministic, so a save racing seven siblings
    # must produce the same bytes as one run alone.
    for s, p in zip(serial, parallel):
        assert s.read_bytes() == p.read_bytes()


def test_parallel_loads_match_serial(tmp_path):
    filters = [_filled_tcf(i) for i in range(8)]
    paths = [tmp_path / f"filter-{i}.rpro" for i in range(8)]
    for filt, path in zip(filters, paths):
        save_filter(filt, path)
    with ThreadPoolExecutor(max_workers=8) as pool:
        loaded = list(pool.map(load_filter, paths))
    for original, restored in zip(filters, loaded):
        assert _state_equal(original, restored)


def test_parallel_merges_match_serial():
    pairs = [(_filled_gqf(2 * i), _filled_gqf(2 * i + 1)) for i in range(6)]
    serial = [merge(a, b) for a, b in pairs]
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(lambda pair: merge(*pair), pairs))
    for s, p in zip(serial, parallel):
        assert _state_equal(s, p)


def test_concurrent_save_of_one_filter_is_consistent(tmp_path):
    # Many threads snapshotting the *same* (unmutated) filter to different
    # paths: every file must be complete and identical.
    filt = _filled_tcf(0)
    paths = [tmp_path / f"copy-{i}.rpro" for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda path: save_filter(filt, path), paths))
    blobs = {path.read_bytes() for path in paths}
    assert len(blobs) == 1
    assert _state_equal(filt, load_filter(paths[0]))


def test_concurrent_full_batches_with_autoresize_match_serial(tmp_path):
    # Eight threads push disjoint key blocks into one undersized auto-resize
    # tenant; each batch overflows the table, racing the in-place growth.
    # The registry's per-filter op_lock serializes the mutations, so the
    # outcome must equal a serial run: every key present, none duplicated.
    n_threads, n_jobs_each = 8, 4
    blocks = [
        _keys(thread * n_jobs_each + j, n=100)
        for thread in range(n_threads)
        for j in range(n_jobs_each)
    ]
    registry = FilterRegistry(tmp_path / "snapshots")
    config = ServiceConfig(max_workers=4, batch_window_s=0.001)
    with FilterService(registry, config) as service:
        service.register_filter("grow", lambda: PointTCF(64, auto_resize=True))

        def client(thread: int):
            rids = []
            for j in range(n_jobs_each):
                block = blocks[thread * n_jobs_each + j]
                rids.append(service.submit("grow", "insert", block))
            return [service.result(rid, timeout=30.0) for rid in rids]

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(client, range(n_threads)))
        assert all(r.status.value == "succeeded" for rs in outcomes for r in rs)
        with registry.acquire("grow") as entry:
            concurrent_filt = entry.filt
            all_keys = np.concatenate(blocks)
            assert bool(concurrent_filt.bulk_query(all_keys).all())
            # Multiplicity check: exactly one fingerprint per submitted key.
            assert int(concurrent_filt.n_items) == all_keys.size

    serial = PointTCF(64, auto_resize=True)
    for block in blocks:
        assert bool(np.all(serial.bulk_insert_mask(block)))
    assert int(serial.n_items) == int(concurrent_filt.n_items)
    assert bool(serial.bulk_query(np.concatenate(blocks)).all())


def test_registry_acquire_races_eviction(tmp_path):
    # A memory budget below one filter's footprint keeps the LRU evictor
    # permanently busy; hammering acquire/ensure_resident from many threads
    # must never observe a half-evicted entry (the historical race: a pin
    # taken during an in-flight eviction could not stop it).
    registry = FilterRegistry(tmp_path / "snapshots", memory_budget_bytes=1)
    blocks = {f"tenant-{i}": _keys(i) for i in range(3)}
    for name, keys in blocks.items():
        registry.get_or_create(name, lambda keys=keys: _prefilled(keys))

    def hammer(worker: int):
        rng = np.random.default_rng(worker)
        for _ in range(25):
            name = f"tenant-{int(rng.integers(3))}"
            with registry.acquire(name) as entry:
                with entry.op_lock:
                    filt = registry.ensure_resident(entry)
                    assert bool(filt.bulk_query(blocks[name]).all())

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, range(8)))
    assert registry.stats["evictions"] > 0
    assert registry.stats["restores"] > 0


def _prefilled(keys: np.ndarray) -> PointTCF:
    filt = PointTCF(1024)
    assert bool(np.all(filt.bulk_insert_mask(keys)))
    return filt
