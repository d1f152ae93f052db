"""Tests for the fault-tolerant bulk-job filter service: submission and
results, partial success, capacity growth, retries with backoff, deadlines,
cancellation, admission control, idempotency and crash recovery.

Chaos-style end-to-end runs (mixed traffic under seeded fault injection)
live in ``test_service_chaos.py``; this file pins the per-feature semantics
with deterministic single-purpose scenarios.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.base import AbstractFilter, FilterCapabilities
from repro.core.exceptions import FilterFullError
from repro.core.gqf import BulkGQF
from repro.core.tcf import PointTCF
from repro.gpusim.stats import StatsRecorder
from repro.service import (
    AdmissionError,
    FaultConfig,
    FaultInjector,
    FilterRegistry,
    FilterService,
    JobNotFoundError,
    JobStatus,
    ServiceClosedError,
    ServiceConfig,
    UnknownFilterError,
    WorkerCrashFault,
    replay,
)

#: Keys 0/1 are the TCF backing store's reserved words; start above them.
KEYS = np.arange(2, 66, dtype=np.uint64)

#: Fast-converging retry timing so the failure-path tests stay quick.
FAST = dict(backoff_base_s=0.0005, backoff_cap_s=0.005)


def _service(tmp_path, config=None, injector=None, journal=False):
    registry = FilterRegistry(tmp_path / "snapshots")
    return FilterService(
        registry,
        config or ServiceConfig(max_workers=2),
        journal_dir=(tmp_path / "journal") if journal else None,
        fault_injector=injector,
    )


def _tcf_factory(n_slots=1024, auto_resize=False):
    return lambda: PointTCF(n_slots, auto_resize=auto_resize)


# ------------------------------------------------------------- happy path
def test_insert_then_query_roundtrip(tmp_path):
    with _service(tmp_path) as service:
        service.register_filter("t", _tcf_factory())
        rid = service.submit("t", "insert", KEYS)
        result = service.result(rid, timeout=10.0)
        assert result.status is JobStatus.SUCCEEDED
        assert result.n_ok == KEYS.size and result.n_failed == 0
        qid = service.submit("t", "query", KEYS)
        qres = service.result(qid, timeout=10.0)
        assert qres.status is JobStatus.SUCCEEDED
        assert np.array_equal(qres.data, np.ones(KEYS.size))
        missing = service.result(
            service.submit("t", "query", KEYS + np.uint64(10_000)), timeout=10.0
        )
        assert sum(missing.data) <= 2  # false positives only


def test_small_jobs_coalesce_into_one_batch(tmp_path):
    config = ServiceConfig(max_workers=1, batch_window_s=0.2, max_batch_jobs=4)
    with _service(tmp_path, config=config) as service:
        service.register_filter("t", _tcf_factory())
        rids = [
            service.submit("t", "insert", KEYS[i * 16 : (i + 1) * 16])
            for i in range(4)
        ]
        results = [service.result(rid, timeout=10.0) for rid in rids]
        assert all(r.status is JobStatus.SUCCEEDED for r in results)
        # max_batch_jobs=4 flushed the batch by size, well inside the 0.2s
        # window; every job rode in it on the same (single) attempt.
        assert all(r.attempts == 1 for r in results)
        with service.registry.acquire("t") as entry:
            assert int(entry.filt.n_items) == KEYS.size


class _HoldFirstBatchSpy(FaultInjector):
    """Records every batch attempt and holds the first one until released."""

    def __init__(self):
        super().__init__(FaultConfig())
        self.tokens = []
        self.started = threading.Event()
        self.release = threading.Event()

    def on_batch_start(self, token: str) -> None:
        self.tokens.append(token)
        if len(self.tokens) == 1:
            self.started.set()
            self.release.wait(timeout=10.0)


def test_jobs_submitted_while_every_worker_is_busy_share_one_batch(tmp_path):
    spy = _HoldFirstBatchSpy()
    config = ServiceConfig(max_workers=1, batch_window_s=0.002)
    keys = np.arange(2, 2 + 80, dtype=np.uint64).reshape(5, 16)
    with _service(tmp_path, config=config, injector=spy) as service:
        service.register_filter("t", _tcf_factory())
        rids = [service.submit("t", "insert", keys[0])]
        assert spy.started.wait(timeout=10.0)
        for chunk in keys[1:]:
            rids.append(service.submit("t", "insert", chunk))
            time.sleep(0.02)  # ten windows: each job alone would be due
        spy.release.set()
        results = [service.result(rid, timeout=10.0) for rid in rids]
        assert all(r.status is JobStatus.SUCCEEDED for r in results)
        with service.registry.acquire("t") as entry:
            assert int(entry.filt.n_items) == keys.size
    # The four later jobs waited in one open batch for the busy worker.
    assert len(spy.tokens) == 2


# ------------------------------------------------------------- validation
def test_submit_validations(tmp_path):
    with _service(tmp_path) as service:
        service.register_filter("t", _tcf_factory())
        with pytest.raises(ValueError, match="unknown operation"):
            service.submit("t", "frobnicate", KEYS)
        with pytest.raises(UnknownFilterError):
            service.submit("nope", "insert", KEYS)
        with pytest.raises(ValueError, match="values for"):
            service.submit("t", "insert", KEYS, values=np.zeros(3, dtype=np.uint64))
        with pytest.raises(JobNotFoundError):
            service.status("never-submitted")


def test_admission_control_rejects_with_retry_after(tmp_path):
    config = ServiceConfig(max_workers=1, max_pending_jobs=0)
    with _service(tmp_path, config=config) as service:
        service.register_filter("t", _tcf_factory())
        with pytest.raises(AdmissionError) as info:
            service.submit("t", "insert", KEYS)
        assert info.value.retry_after_s > 0.0


def test_shutdown_rejects_new_submissions(tmp_path):
    service = _service(tmp_path)
    service.register_filter("t", _tcf_factory())
    service.shutdown(wait=True)
    with pytest.raises(ServiceClosedError):
        service.submit("t", "insert", KEYS)
    service.shutdown()  # second shutdown is a no-op


# ------------------------------------------------------------- idempotency
def test_idempotent_resubmission_returns_original_result(tmp_path):
    with _service(tmp_path) as service:
        service.register_filter("t", _tcf_factory())
        rid = service.submit("t", "insert", KEYS, request_id="my-job")
        first = service.result(rid, timeout=10.0)
        again = service.submit("t", "insert", KEYS + np.uint64(500), request_id="my-job")
        assert again == rid
        assert service.result(rid, timeout=10.0) is first
        with service.registry.acquire("t") as entry:
            # The second payload was ignored: nothing beyond KEYS went in.
            assert int(entry.filt.n_items) == KEYS.size


# -------------------------------------------------- cancellation/deadlines
def test_cancel_before_execution_has_no_effects(tmp_path):
    # A wide batching window holds the job in the batcher long enough for
    # the cancel to land before dequeue.
    config = ServiceConfig(max_workers=1, batch_window_s=0.3, max_batch_jobs=64)
    with _service(tmp_path, config=config) as service:
        service.register_filter("t", _tcf_factory())
        rid = service.submit("t", "insert", KEYS)
        assert service.cancel(rid)
        result = service.result(rid, timeout=10.0)
        assert result.status is JobStatus.CANCELLED
        assert result.n_ok == 0
        with service.registry.acquire("t") as entry:
            assert int(entry.filt.n_items) == 0


def test_expired_deadline_drops_job_effect_free(tmp_path):
    with _service(tmp_path) as service:
        service.register_filter("t", _tcf_factory())
        rid = service.submit("t", "insert", KEYS, deadline_s=0.0)
        result = service.result(rid, timeout=10.0)
        assert result.status is JobStatus.EXPIRED
        assert result.n_ok == 0
        with service.registry.acquire("t") as entry:
            assert int(entry.filt.n_items) == 0


def test_late_completion_succeeds_with_deadline_flag(tmp_path):
    # The slow-batch fault holds execution past the deadline *after* the
    # dequeue-time check admitted the job: the batch still runs to
    # completion (its effects must stay well-defined) but is flagged.
    injector = FaultInjector(FaultConfig(slow_batch_rate=1.0, slow_batch_s=0.3))
    with _service(tmp_path, injector=injector) as service:
        service.register_filter("t", _tcf_factory())
        rid = service.submit("t", "insert", KEYS, deadline_s=0.1)
        result = service.result(rid, timeout=10.0)
        assert result.status is JobStatus.SUCCEEDED
        assert result.deadline_exceeded
        with service.registry.acquire("t") as entry:
            assert int(entry.filt.n_items) == KEYS.size


# ------------------------------------------------- partial success/growth
def test_partial_success_reports_per_item_mask(tmp_path):
    config = ServiceConfig(max_workers=1, **FAST)
    with _service(tmp_path, config=config) as service:
        service.register_filter("small", _tcf_factory(n_slots=128))
        keys = np.arange(2, 2 + 400, dtype=np.uint64)
        rid = service.submit("small", "insert", keys)
        result = service.result(rid, timeout=10.0)
        assert result.status is JobStatus.PARTIAL
        mask = result.ok_mask
        assert 0 < result.n_ok < keys.size
        assert int(np.count_nonzero(mask)) == result.n_ok
        with service.registry.acquire("small") as entry:
            # Every acked key is queryable; the ack ledger never lies.
            assert bool(entry.filt.bulk_query(keys[mask]).all())
            assert int(entry.filt.n_items) == result.n_ok


def test_capacity_failure_grows_resizable_filter(tmp_path):
    # Growth is the filter's own policy.  A GQF without auto_resize keeps
    # its size: the job ends PARTIAL with exactly the mask the filter
    # reports.  The same GQF with auto_resize grows in place inside its
    # insert and resends only the keys it left out, so each counts once.
    from repro.core.gqf import PointGQF

    keys = np.arange(2, 2 + 400, dtype=np.uint64)
    expected = PointGQF(7, 16).bulk_insert_mask(keys)
    assert 0 < int(np.count_nonzero(expected)) < keys.size
    with _service(tmp_path) as service:
        service.register_filter("fixed", lambda: PointGQF(7, 16))
        service.register_filter("growing", lambda: PointGQF(7, 16, auto_resize=True))
        fixed = service.result(service.submit("fixed", "insert", keys), timeout=10.0)
        assert fixed.status is JobStatus.PARTIAL
        assert np.array_equal(fixed.ok_mask, expected)
        assert fixed.n_ok == int(np.count_nonzero(expected))
        grown = service.result(service.submit("growing", "insert", keys), timeout=10.0)
        assert grown.status is JobStatus.SUCCEEDED
        with service.registry.acquire("fixed") as entry:
            assert entry.filt.n_slots == 128
            assert int(entry.filt.total_count) == fixed.n_ok
        with service.registry.acquire("growing") as entry:
            assert entry.filt.n_slots > 128  # it grew itself
            assert int(entry.filt.total_count) == keys.size
            assert (entry.filt.bulk_count(keys) == 1).all()  # exactly once each


# --------------------------------------------------------- retry semantics
class _CrashOnceInjector(FaultInjector):
    """Crash each batch's first attempt only — the canonical transient fault."""

    def __init__(self):
        super().__init__(FaultConfig())
        self.seen = set()

    def on_batch_start(self, token: str) -> None:
        base = token.rsplit("#", 1)[0]
        if base not in self.seen:
            self.seen.add(base)
            self.fired["worker_crash"] = self.fired.get("worker_crash", 0) + 1
            raise WorkerCrashFault(f"injected first-attempt crash ({token})")


def test_transient_crash_is_retried_without_duplicate_effects(tmp_path):
    config = ServiceConfig(max_workers=1, **FAST)
    with _service(tmp_path, config=config, injector=_CrashOnceInjector()) as service:
        service.register_filter("t", _tcf_factory())
        result = service.result(service.submit("t", "insert", KEYS), timeout=10.0)
        assert result.status is JobStatus.SUCCEEDED
        assert result.attempts == 2  # crashed once, then landed
        with service.registry.acquire("t") as entry:
            assert int(entry.filt.n_items) == KEYS.size  # no re-applied insert


def test_crash_storm_exhausts_retries_effect_free(tmp_path):
    injector = FaultInjector(FaultConfig(worker_crash_rate=1.0))
    config = ServiceConfig(max_workers=1, max_attempts=3, **FAST)
    with _service(tmp_path, config=config, injector=injector) as service:
        service.register_filter("t", _tcf_factory())
        result = service.result(service.submit("t", "insert", KEYS), timeout=10.0)
        assert result.status is JobStatus.FAILED
        assert result.attempts == 3
        assert "WorkerCrashFault" in result.error
        with service.registry.acquire("t") as entry:
            assert int(entry.filt.n_items) == 0  # crashes fire pre-mutation


def test_concurrent_clients_under_fast_switching_lose_no_job(tmp_path):
    # More workers than cores and a short switch interval: a lost update to
    # the batcher, the retry heap or the pending count would strand a job,
    # drop or repeat an insert, or leave a result out of the journal.
    n_clients, jobs_per_client = 6, 30
    config = ServiceConfig(max_workers=4, max_batch_jobs=8, **FAST)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _service(
            tmp_path, config=config, injector=_CrashOnceInjector(), journal=True
        ) as service:
            for name in ("a", "b"):
                service.register_filter(name, _tcf_factory(n_slots=1 << 13))
            rids = []

            def client(c):
                for j in range(jobs_per_client):
                    start = 2 + 4 * (c * jobs_per_client + j)
                    keys = np.arange(start, start + 4, dtype=np.uint64)
                    rids.append(service.submit("ab"[j % 2], "insert", keys))

            threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert service.drain(timeout=30.0)
            assert all(
                service.result(rid).status is JobStatus.SUCCEEDED for rid in rids
            )
            for name in ("a", "b"):
                with service.registry.acquire(name) as entry:
                    assert int(entry.filt.n_items) == 2 * n_clients * jobs_per_client
    finally:
        sys.setswitchinterval(interval)
    pending, finished = replay(tmp_path / "journal")
    assert pending == [] and sorted(finished) == sorted(rids)


def test_job_accepted_while_shutting_down_still_runs(tmp_path, monkeypatch):
    # shutdown() starts after submit() admitted the job but before the job
    # reaches the batcher: the idle workers must not leave without it.
    from repro.service import JobJournal

    record_submit = JobJournal.record_submit
    closers = []

    def record_submit_then_shut_down(self, job):
        record_submit(self, job)
        closer = threading.Thread(target=service.shutdown, daemon=True)
        closer.start()
        closers.append(closer)
        time.sleep(0.1)  # the shutdown has begun; idle workers look for work

    service = _service(tmp_path, journal=True)
    service.register_filter("t", _tcf_factory())
    monkeypatch.setattr(JobJournal, "record_submit", record_submit_then_shut_down)
    rid = service.submit("t", "insert", KEYS)
    closers[0].join(timeout=10.0)
    assert not closers[0].is_alive()
    assert service.result(rid, timeout=1.0).status is JobStatus.SUCCEEDED


def test_shutdown_without_wait_finishes_retried_jobs(tmp_path):
    # The first attempt crashes after shutdown began: the worker must stay
    # to run the retry, or the accepted job never reaches a terminal state.
    config = ServiceConfig(max_workers=1, **FAST)
    service = _service(tmp_path, config=config, injector=_CrashOnceInjector())
    service.register_filter("t", _tcf_factory())
    rid = service.submit("t", "insert", KEYS)
    service.shutdown(wait=False)
    result = service.result(rid, timeout=5.0)
    assert result.status is JobStatus.SUCCEEDED
    assert result.attempts == 2


# ----------------------------------------------------- capacity contract
class _BulkOnlyStub(AbstractFilter):
    """Minimal bulk-only filter whose bulk_insert raises once it is full."""

    name = "bulk-only-stub"

    def __init__(self, capacity=64, recorder=None):
        super().__init__(recorder)
        self._capacity = capacity
        self.stored = set()

    @classmethod
    def capabilities(cls):
        return FilterCapabilities(bulk_insert=True, bulk_query=True)

    @property
    def capacity(self):
        return self._capacity

    @property
    def n_slots(self):
        return self._capacity

    @property
    def nbytes(self):
        return 8 * self._capacity

    @property
    def n_items(self):
        return len(self.stored)

    def bulk_insert(self, keys, values=None):
        if len(self.stored) + len(keys) > self._capacity:
            raise FilterFullError("stub full")
        self.stored.update(int(k) for k in keys)
        return len(keys)

    def bulk_query(self, keys):
        return np.array([int(k) in self.stored for k in keys], dtype=bool)


def test_filter_raised_capacity_error_fails_batch_without_retry(tmp_path):
    config = ServiceConfig(max_workers=1, max_attempts=2, **FAST)
    with _service(tmp_path, config=config) as service:
        service.register_filter("stub", lambda: _BulkOnlyStub(capacity=64))
        ok = service.result(service.submit("stub", "insert", KEYS), timeout=10.0)
        assert ok.status is JobStatus.SUCCEEDED
        # Over capacity on a non-resizable bulk-only filter: the batch fails
        # whole (all-or-nothing) and the filter keeps only the first job.
        big = np.arange(1000, 1100, dtype=np.uint64)
        full = service.result(service.submit("stub", "insert", big), timeout=10.0)
        assert full.status is JobStatus.FAILED
        assert full.n_ok == 0
        # The filter may have placed keys before raising: never retried.
        assert full.attempts == 1
        with service.registry.acquire("stub") as entry:
            assert int(entry.filt.n_items) == KEYS.size


def test_capacity_retry_keeps_gqf_counts_exact(tmp_path):
    # An auto-resizing GQF fills mid-batch; it grows in place and inserts
    # only the keys it left out, so every key is counted exactly once.
    keys = np.random.default_rng(5).integers(1, 2**63, size=400, dtype=np.uint64)
    with _service(tmp_path, config=ServiceConfig(max_workers=1)) as service:
        service.register_filter(
            "g", lambda: BulkGQF(8, 8, recorder=StatsRecorder(), auto_resize=True)
        )
        result = service.result(service.submit("g", "insert", keys), timeout=30.0)
        assert result.status is JobStatus.SUCCEEDED
        assert result.attempts == 1
        with service.registry.acquire("g") as entry:
            assert entry.filt.n_slots > 256  # it grew
            assert entry.filt.total_count == keys.size
            assert (entry.filt.bulk_count(keys) == 1).all()


# ---------------------------------------------------------------- recovery
def test_recover_preloads_finished_and_replays_pending(tmp_path):
    from repro.service import JobJournal
    from repro.service.jobs import Job

    registry = FilterRegistry(tmp_path / "snapshots")
    journal_dir = tmp_path / "journal"
    service = FilterService(
        registry, ServiceConfig(max_workers=2), journal_dir=journal_dir
    )
    service.register_filter("t", _tcf_factory(auto_resize=True))
    done_rid = service.submit("t", "insert", KEYS, request_id="done-job")
    done = service.result(done_rid, timeout=10.0)
    assert done.status is JobStatus.SUCCEEDED
    # An auto-ID job in the journal: a recovered service's own auto IDs must
    # not collide with it (regression: a bare counter restarting at 1 handed
    # new jobs the previous incarnation's journaled results).
    auto_rid = service.submit("t", "insert", KEYS + np.uint64(10_000))
    assert service.result(auto_rid, timeout=10.0).status is JobStatus.SUCCEEDED
    service.shutdown(wait=True)
    registry.flush()

    # Simulate a crash between accept and execute: an extra submit record
    # lands in the journal with no matching result.
    pending_keys = np.arange(500, 564, dtype=np.uint64)
    extra = JobJournal(journal_dir)
    extra.record_submit(
        Job(
            request_id="pending-job",
            filter_name="t",
            op="insert",
            keys=pending_keys,
            values=None,
            submitted_at=0.0,
        )
    )
    extra.close()

    recovered_registry = FilterRegistry(tmp_path / "snapshots")
    recovered_registry.register_snapshot("t", _tcf_factory(auto_resize=True))
    recovered = FilterService.recover(recovered_registry, journal_dir)
    assert recovered.drain(timeout=30.0)
    # The finished job was preloaded: idempotency survived the restart.
    assert recovered.status("done-job").terminal
    assert recovered.result("done-job", timeout=1.0).n_ok == KEYS.size
    assert recovered.submit("t", "insert", [2, 3], request_id="done-job") == "done-job"
    # The pending job was re-executed against the restored snapshot.
    replayed = recovered.result("pending-job", timeout=10.0)
    assert replayed.status is JobStatus.SUCCEEDED
    with recovered_registry.acquire("t") as entry:
        assert bool(entry.filt.bulk_query(KEYS).all())
        assert bool(entry.filt.bulk_query(pending_keys).all())
    # A fresh auto-ID submission gets its own job, not a journaled result.
    fresh_rid = recovered.submit("t", "query", KEYS)
    assert fresh_rid != auto_rid
    fresh = recovered.result(fresh_rid, timeout=10.0)
    assert fresh.status is JobStatus.SUCCEEDED
    assert np.array_equal(fresh.data, np.ones(KEYS.size))
    recovered.shutdown(wait=True)


def _assert_partial_mask_round_trips(tmp_path, n_keys):
    config = ServiceConfig(max_workers=1, **FAST)
    with _service(tmp_path, config=config, journal=True) as service:
        service.register_filter("small", _tcf_factory(n_slots=128))
        keys = np.arange(2, 2 + n_keys, dtype=np.uint64)
        rid = service.submit("small", "insert", keys)
        result = service.result(rid, timeout=10.0)
        assert result.status is JobStatus.PARTIAL
    pending, finished = replay(tmp_path / "journal")
    assert pending == []
    assert finished[rid].status is JobStatus.PARTIAL
    assert finished[rid].n_ok == result.n_ok
    assert finished[rid].ok_mask.dtype == bool
    assert np.array_equal(finished[rid].ok_mask, result.ok_mask)


def test_journal_round_trips_partial_masks(tmp_path):
    _assert_partial_mask_round_trips(tmp_path, n_keys=400)


def test_journal_round_trips_spilled_partial_masks(tmp_path):
    # A mask far larger than the filter: every record keeps its arrays in
    # the one journal file, however many items the job holds.
    _assert_partial_mask_round_trips(tmp_path, n_keys=2048)


def _journal_job(request_id, n_keys=8, values=True):
    from repro.service.jobs import Job

    keys = np.arange(2, 2 + n_keys, dtype=np.uint64)
    return Job(
        request_id=request_id,
        filter_name="t",
        op="insert",
        keys=keys,
        values=keys * np.uint64(3) if values else None,
        submitted_at=0.0,
    )


def _partial_result(job):
    from repro.service.jobs import JobResult

    mask = np.arange(job.n_items) % 3 != 0
    return JobResult(
        status=JobStatus.PARTIAL,
        n_items=job.n_items,
        n_ok=int(mask.sum()),
        attempts=1,
        ok_mask=mask,
    )


def _write_journal(directory):
    """Journal ``a`` (finished, partial), ``b`` (pending) and ``c`` (pending).

    Returns the byte offset where each of the four records starts, plus the
    file size.
    """
    from repro.service import JobJournal

    journal = JobJournal(directory)
    a = _journal_job("a")
    a.result = _partial_result(a)
    offsets = [0]
    for append, job in (
        (journal.record_submit, a),
        (journal.record_result, a),
        (journal.record_submit, _journal_job("b", values=False)),
        (journal.record_submit, _journal_job("c", n_keys=40)),
    ):
        append(job)
        offsets.append(journal.path.stat().st_size)
    journal.close()
    return journal.path, offsets


def _replayed_ids(directory):
    pending, finished = replay(directory)
    return [record["request_id"] for record in pending], sorted(finished)


def test_journal_replays_records_with_their_arrays(tmp_path):
    _write_journal(tmp_path)
    pending, finished = replay(tmp_path)
    assert [record["request_id"] for record in pending] == ["b", "c"]
    b, c = pending
    assert np.array_equal(b["keys"], _journal_job("b").keys) and b["values"] is None
    assert np.array_equal(c["values"], _journal_job("c", n_keys=40).values)
    assert c["op"] == "insert" and c["filter"] == "t" and c["n_keys"] == 40
    assert np.array_equal(finished["a"].ok_mask, _partial_result(_journal_job("a")).ok_mask)


def test_journal_torn_tail_drops_only_the_torn_record(tmp_path):
    path, offsets = _write_journal(tmp_path)
    blob = path.read_bytes()
    for cut in range(offsets[3], offsets[4]):
        path.write_bytes(blob[:cut])
        assert _replayed_ids(tmp_path) == (["b"], ["a"]), cut


def test_journal_corrupt_middle_record_ends_the_replay(tmp_path):
    path, offsets = _write_journal(tmp_path)
    blob = path.read_bytes()
    for position in range(offsets[2], offsets[3]):
        damaged = bytearray(blob)
        damaged[position] ^= 0xFF
        path.write_bytes(bytes(damaged))
        assert _replayed_ids(tmp_path) == ([], ["a"]), position


def test_journal_reopened_after_torn_tail_keeps_new_jobs(tmp_path):
    from repro.service import JobJournal

    path, offsets = _write_journal(tmp_path)
    with open(path, "r+b") as fh:
        fh.truncate(offsets[4] - 5)  # a crash mid-append of job c
    journal = JobJournal(tmp_path)
    assert path.stat().st_size == offsets[3]  # the torn tail is cut on open
    journal.record_submit(_journal_job("d"))
    journal.close()
    assert _replayed_ids(tmp_path) == (["b", "d"], ["a"])


def _spy_on_fsync(monkeypatch):
    """Record the inode of every file fsynced from now on."""
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return synced


def test_journal_fsyncs_each_record_once_into_one_file(tmp_path, monkeypatch):
    from repro.service import JobJournal
    from repro.service.journal import JOURNAL_NAME

    journal = JobJournal(tmp_path)
    synced = _spy_on_fsync(monkeypatch)
    job = _journal_job("big", n_keys=4096)
    journal.record_submit(job)
    job.result = _partial_result(job)
    journal.record_result(job)
    journal.close()
    # One fsync per record, both of the journal file; no other file exists.
    assert synced == [(tmp_path / JOURNAL_NAME).stat().st_ino] * 2
    assert [p.name for p in tmp_path.iterdir()] == [JOURNAL_NAME]
    pending, finished = replay(tmp_path)
    assert pending == []
    assert np.array_equal(finished["big"].ok_mask, job.result.ok_mask)


def test_batch_results_share_one_fsync(tmp_path, monkeypatch):
    from repro.service.journal import JOURNAL_NAME

    n_jobs = 4
    config = ServiceConfig(max_workers=1, batch_window_s=10.0, max_batch_jobs=n_jobs)
    with _service(tmp_path, config=config, journal=True) as service:
        service.register_filter("t", _tcf_factory())
        synced = _spy_on_fsync(monkeypatch)
        rids = [
            service.submit("t", "insert", KEYS[i * 16 : (i + 1) * 16])
            for i in range(n_jobs)
        ]
        assert service.drain(timeout=10.0)
        journal_ino = (tmp_path / "journal" / JOURNAL_NAME).stat().st_ino
        # One fsync per submit, then one for the whole batch's results.
        assert synced.count(journal_ino) == n_jobs + 1
        assert all(service.result(rid).attempts == 1 for rid in rids)
    _, finished = replay(tmp_path / "journal")
    assert sorted(finished) == sorted(rids)


def test_drain_returns_after_results_are_journaled(tmp_path, monkeypatch):
    from repro.service import JobJournal

    record_result = JobJournal.record_result

    def slow_record_result(self, *jobs):
        time.sleep(0.2)
        record_result(self, *jobs)

    monkeypatch.setattr(JobJournal, "record_result", slow_record_result)
    with _service(tmp_path, journal=True) as service:
        service.register_filter("t", _tcf_factory())
        rid = service.submit("t", "insert", KEYS)
        assert service.drain(timeout=10.0)
        _, finished = replay(tmp_path / "journal")
        assert finished[rid].status is JobStatus.SUCCEEDED
