"""The fault-tolerant bulk-job filter service.

:class:`FilterService` is the async Bulk-API front end over every filter
class: clients ``submit`` jobs of up to millions of keys against named
filters and poll ``status``/``result`` (or block on ``result``/``drain``).
Submissions coalesce in a :class:`~repro.service.batcher.WindowedBatcher`;
a bounded pool of workers pulls due batches straight from it and executes
them against the registry's filters.  A batch stays open, and keeps taking
jobs, until a worker is free to run it.

Robustness semantics (the headline; see the README failure-semantics table):

* **Idempotency** — a request ID is accepted once; resubmitting it returns
  the original job (and, once terminal, the original result) without
  re-executing anything.
* **Partial success** — insert jobs run the filter's ``bulk_insert_mask``
  and report its per-item success mask, so "filter full" degrades to
  ``PARTIAL`` instead of all-or-nothing failure.
* **Capacity** — growth is the filter's own policy: a filter built with
  ``auto_resize=True`` grows in place inside ``bulk_insert_mask`` and
  resends only the keys left out, so no key is applied twice; keys a
  filter still cannot hold come back as ``PARTIAL``.  A filter that raises
  ``FilterFullError`` from inside its insert may already have placed keys,
  so that batch fails terminally.
* **Retries** — transient failures (injected worker crashes and
  filter-full storms) are retried with exponential backoff and
  deterministic jitter, bounded by ``max_attempts``.  Injection sites fire
  *before* any filter mutation, so a retry can never duplicate effects.
* **Deadlines / cancellation** — jobs carry optional deadlines, checked at
  dequeue time: an expired or cancelled job is finalized without touching
  the filter, so its (absent) effects are always well-defined.  A batch
  that *finishes* late still succeeds, flagged ``deadline_exceeded``.
* **Backpressure** — admission control rejects submissions beyond
  ``max_pending_jobs`` with :class:`~repro.service.jobs.AdmissionError`
  carrying ``retry_after_s``, instead of queueing without bound.
* **Crash recovery** — accepted jobs are journaled (one fsync each) before
  queueing, and a batch's terminal results are journaled together (one
  fsync per batch) before any of its jobs is acknowledged;
  :meth:`FilterService.recover`
  replays the journal against the registry's restored snapshots,
  re-executing unacknowledged jobs and preloading finished results so
  idempotency survives the restart.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
import uuid
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import AbstractFilter
from ..core.exceptions import UnsupportedOperationError
from .batcher import Batch, WindowedBatcher
from .faults import NO_FAULTS, FaultInjector
from .jobs import (
    OPERATIONS,
    AdmissionError,
    Job,
    JobNotFoundError,
    JobResult,
    JobStatus,
    ServiceClosedError,
    TERMINAL_ERRORS,
    UnknownFilterError,
    is_retryable,
)
from .journal import JobJournal, replay
from .registry import FilterRegistry

#: A job and the terminal result it is about to be given.
Outcome = Tuple[Job, JobResult]

#: perfbench/trace.py wraps an ``expand`` attribute of this module (its
#: ``lifecycle.expand`` layer).  The service grows no filter itself — each
#: grows inside its own insert — so nothing here calls it.
expand = AbstractFilter.grow

#: Jitter fraction: the deterministic per-token jitter multiplies a retry's
#: backoff by up to ``1 + BACKOFF_JITTER``.
BACKOFF_JITTER = 0.5


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`FilterService` instance."""

    max_workers: int = 4
    #: Admission cap: non-terminal jobs beyond this are rejected with
    #: retry-after backpressure instead of growing the queue without bound.
    max_pending_jobs: int = 256
    #: How long an idle worker waits for a batch to fill before taking it.
    batch_window_s: float = 0.002
    max_batch_keys: int = 65536
    max_batch_jobs: int = 32
    #: Total execution attempts per batch (1 = no retries).
    max_attempts: int = 4
    backoff_base_s: float = 0.0005
    backoff_cap_s: float = 0.05


class FilterService:
    """Async bulk-job API over a :class:`FilterRegistry`."""

    def __init__(
        self,
        registry: FilterRegistry,
        config: Optional[ServiceConfig] = None,
        journal_dir=None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServiceConfig()
        self.faults = fault_injector or NO_FAULTS
        self.journal = JobJournal(journal_dir) if journal_dir is not None else None
        self.clock = time.monotonic

        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._all_done = threading.Condition(self._lock)
        self._n_pending = 0  # non-terminal accepted jobs
        self._request_seq = itertools.count(1)
        # Auto-generated request IDs carry a per-instance nonce: a recovered
        # service preloads the journal's finished jobs, and a bare counter
        # restarting at 1 would collide with the previous incarnation's
        # auto IDs — silently handing new jobs old results.
        self._instance = uuid.uuid4().hex[:8]

        # Work a worker can pull, all guarded by _lock: size-closed batches,
        # retries waiting out their backoff, and the batcher's open batches.
        self._work_ready = threading.Condition(self._lock)
        self._full: Deque[Batch] = deque()
        self._retry_heap: List[Tuple[float, int, Batch]] = []  # (ready_at, seq, batch)
        self._retry_seq = itertools.count()
        self._batcher = WindowedBatcher(
            window_s=self.config.batch_window_s,
            max_batch_keys=self.config.max_batch_keys,
            max_batch_jobs=self.config.max_batch_jobs,
        )
        self._closed = False

        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"service-worker-{i}", daemon=True
            )
            for i in range(max(1, self.config.max_workers))
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "FilterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def register_filter(
        self, name: str, factory: Callable[[], AbstractFilter]
    ) -> None:
        """Create (or adopt) a named filter; single-flight and fail-fast."""
        self.registry.get_or_create(name, factory)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and run every accepted one to a terminal state.

        Workers take the open batches at once and leave only when every
        accepted job is terminal.  ``wait=True`` blocks until then;
        ``wait=False`` waits for each worker at most 10 s.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_ready.notify_all()  # open batches are due at once now
        if wait:
            self.drain()
        for worker in self._workers:
            worker.join(timeout=10.0)
        if self.journal is not None:
            self.journal.close()
        # Workers are joined: release OS-backed filter resources (sharded
        # filters' shared-memory segments + worker processes).  Snapshot-then-
        # close, so the data survives and /dev/shm does not.
        self.registry.close_resident()

    # -------------------------------------------------------------- client API
    def submit(
        self,
        filter_name: str,
        op: str,
        keys: Sequence[int],
        values: Optional[Sequence[int]] = None,
        request_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> str:
        """Accept a bulk job; returns its request ID.

        Resubmitting a known request ID is a no-op returning the same ID —
        the original job's (eventual) result stands and the new payload is
        ignored.  Raises :class:`AdmissionError` under backpressure,
        :class:`UnknownFilterError` for unregistered filters, and
        ``ValueError`` for unknown operations.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("the service is shut down")
            if request_id is not None and request_id in self._jobs:
                return request_id  # idempotent resubmission
            if self._n_pending >= self.config.max_pending_jobs:
                raise AdmissionError(
                    f"queue depth {self._n_pending} at the admission cap "
                    f"({self.config.max_pending_jobs}); retry later",
                    retry_after_s=self._retry_after_hint(),
                )
        if op not in OPERATIONS:
            raise ValueError(f"unknown operation {op!r}; one of {OPERATIONS}")
        if filter_name not in self.registry:
            raise UnknownFilterError(f"no filter named {filter_name!r} is registered")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if values is not None:
            values = np.ascontiguousarray(values, dtype=np.uint64)
            if values.size != keys.size:
                raise ValueError(
                    f"{values.size} values for {keys.size} keys"
                )
        job = Job(
            request_id=request_id
            or f"job-{self._instance}-{next(self._request_seq):08d}",
            filter_name=filter_name,
            op=op,
            keys=keys,
            values=values,
            submitted_at=self.clock(),
            deadline_s=deadline_s,
        )
        # Pre-publication write: the job is not yet in _jobs nor in the
        # batcher, so no other thread can observe the reassignment (a _done
        # swap after publication would lose waiters forever).
        job._done = threading.Event()
        with self._lock:
            if job.request_id in self._jobs:  # raced duplicate
                return job.request_id
            self._jobs[job.request_id] = job
            self._n_pending += 1
        if self.journal is not None:
            self.journal.record_submit(job)
        with self._lock:
            self._enqueue(job)
        return job.request_id

    def status(self, request_id: str) -> JobStatus:
        job = self._get(request_id)
        with self._lock:  # job.status transitions happen under the lock
            return job.status

    def result(self, request_id: str, timeout: Optional[float] = None) -> JobResult:
        """Block until the job is terminal and return its result."""
        job = self._get(request_id)
        if not job._done.wait(timeout=timeout):
            raise TimeoutError(f"job {request_id} not terminal after {timeout}s")
        assert job.result is not None
        return job.result

    def cancel(self, request_id: str) -> bool:
        """Request cancellation; returns True if the job can still be skipped.

        Honoured at dequeue time: a job already executing (or terminal) is
        not interrupted, keeping its effects well-defined.
        """
        job = self._get(request_id)
        with self._lock:
            if job.status.terminal or job.status is JobStatus.RUNNING:
                return False
            job.cancel_requested = True
            return True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted job reached a terminal state."""
        deadline = None if timeout is None else self.clock() + timeout
        with self._all_done:
            while self._n_pending > 0:
                remaining = None if deadline is None else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._all_done.wait(timeout=remaining)
        return True

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def _get(self, request_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(request_id)
        if job is None:
            raise JobNotFoundError(f"unknown request ID {request_id!r}")
        return job

    def _retry_after_hint(self) -> float:
        # The window plus an attempt's worth of backoff: by then a worker
        # has taken at least one batch and made progress.
        return self.config.batch_window_s + self.config.backoff_cap_s

    # --------------------------------------------------------------- recovery
    @classmethod
    def recover(
        cls,
        registry: FilterRegistry,
        journal_dir,
        config: Optional[ServiceConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> "FilterService":
        """Rebuild a service from its journal after a crash.

        Finished jobs are preloaded into the idempotency store (resubmits
        still return the original results); accepted-but-unacknowledged
        jobs are re-executed against the registry's restored snapshots.
        Replayed jobs run without their original deadlines — the crash
        already blew them, and refusing the work would lose accepted jobs.
        """
        pending, finished = replay(journal_dir)
        service = cls(
            registry,
            config=config,
            journal_dir=journal_dir,
            fault_injector=fault_injector,
        )
        now = service.clock()
        with service._lock:
            for request_id, result in finished.items():
                job = Job(
                    request_id=request_id,
                    filter_name="<recovered>",
                    op="<recovered>",
                    keys=np.zeros(result.n_items, dtype=np.uint64),
                    values=None,
                    submitted_at=now,
                    status=result.status,
                    result=result,
                    finished_at=now,
                )
                # Pre-publication write (job enters _jobs on the next line,
                # already terminal): no waiter can exist yet.
                job._done = threading.Event()
                job._done.set()
                service._jobs[request_id] = job
        for record in pending:
            job = Job(
                request_id=record["request_id"],
                filter_name=record["filter"],
                op=record["op"],
                keys=record["keys"],
                values=record["values"],
                submitted_at=now,
            )
            # Pre-publication write: the replayed job is published under the
            # lock on the next line; no other thread holds it yet.
            job._done = threading.Event()
            with service._lock:
                service._jobs[job.request_id] = job
                service._n_pending += 1
                service._enqueue(job)
        return service

    # ----------------------------------------------------------------- intake
    def _enqueue(self, job: Job) -> None:
        """Add an accepted job to the batcher (caller holds ``_lock``)."""
        full = self._batcher.add(job, self.clock())
        if full is not None:
            self._full.append(full)
        self._work_ready.notify()

    def _claim(self) -> Optional[Batch]:
        """Block until a batch is due and claim it; None once stopped.

        Due work, oldest first within each kind: a size-closed batch, then
        a retry whose backoff has elapsed, then an open batch whose window
        has expired (any open batch once the service is closing).  A worker
        leaves only when the service is closing and every accepted job is
        terminal and journaled: until then a job may still be on its way
        into the batcher, or a running batch may schedule a retry.
        """
        with self._lock:
            while True:
                now = self.clock()
                if self._full:
                    batch = self._full.popleft()
                elif self._retry_heap and self._retry_heap[0][0] <= now:
                    batch = heapq.heappop(self._retry_heap)[2]
                else:
                    batch = self._batcher.take_due(math.inf if self._closed else now)
                if batch is not None:
                    return batch
                if self._closed and not self._n_pending:
                    return None
                next_due = self._batcher.next_due()
                wake = [] if next_due is None else [next_due]
                if self._retry_heap:
                    wake.append(self._retry_heap[0][0])
                self._work_ready.wait(timeout=max(0.0, min(wake) - now) if wake else None)

    # ---------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            batch = self._claim()
            if batch is None:
                return
            try:
                self._execute(batch)
            except BaseException as exc:  # noqa: BLE001 - never kill the pool
                self._finalize_batch(
                    batch,
                    JobStatus.FAILED,
                    error=f"unexpected worker error: {type(exc).__name__}: {exc}",
                )

    def _execute(self, batch: Batch) -> None:
        now = self.clock()
        admitted = self._admit_jobs(batch.jobs, now)
        with self._lock:
            # Batch fields are written under the lock: a batch is handed
            # from the batcher (or the retry heap) to a worker under it, so
            # one visible discipline covers every writer and lets the race
            # detector check it.
            batch.jobs = admitted
            if admitted:
                batch.attempts += 1
                for job in admitted:
                    job.status = JobStatus.RUNNING
                    job.attempts = batch.attempts
                    if job.started_at is None:
                        job.started_at = now
        if not admitted:
            return
        try:
            self.faults.on_batch_start(batch.token())
            with self.registry.acquire(batch.filter_name) as entry:
                with entry.op_lock:
                    self._run_batch(entry, batch)
        except TERMINAL_ERRORS as exc:
            self._finalize_batch(
                batch, JobStatus.FAILED, error=f"{type(exc).__name__}: {exc}"
            )
        except Exception as exc:  # noqa: BLE001 - classified below
            if is_retryable(exc) and batch.attempts < self.config.max_attempts:
                self._schedule_retry(batch)
            else:
                self._finalize_batch(
                    batch, JobStatus.FAILED, error=f"{type(exc).__name__}: {exc}"
                )

    def _admit_jobs(self, jobs: List[Job], now: float) -> List[Job]:
        """Drop cancelled/expired jobs before execution (effects: none)."""
        admitted, dropped = [], []
        # cancel() flips the flag under the lock; snapshot it the same way
        # (the lock cannot be held across _finalize, which re-takes it).
        with self._lock:
            cancelled = {job.request_id for job in jobs if job.cancel_requested}
        for job in jobs:
            if job.request_id in cancelled:
                dropped.append(self._outcome(job, JobStatus.CANCELLED, error="cancelled"))
            elif job.expired(now):
                dropped.append(
                    self._outcome(
                        job, JobStatus.EXPIRED,
                        error=f"deadline of {job.deadline_s}s passed before execution",
                    )
                )
            else:
                admitted.append(job)
        self._finalize(dropped)
        return admitted

    # ---------------------------------------------------------- batch execution
    def _run_batch(self, entry, batch: Batch) -> None:
        keys = np.concatenate([job.keys for job in batch.jobs])
        filt = self.registry.ensure_resident(entry)
        if batch.op == "insert":
            values = np.concatenate(
                [
                    job.values
                    if job.values is not None
                    else np.zeros(job.n_items, dtype=np.uint64)
                    for job in batch.jobs
                ]
            )
            mask = np.asarray(filt.bulk_insert_mask(keys, values), dtype=bool)
            self._finalize(self._insert_outcomes(batch, mask))
            return
        if batch.op == "query":
            results = np.asarray(filt.bulk_query(keys), dtype=bool).astype(np.int64)
        elif batch.op == "count":
            results = np.asarray(filt.bulk_count(keys), dtype=np.int64)
        elif batch.op == "delete":
            results = self._delete_per_job(filt, batch)
        else:  # pragma: no cover - submit() validates operations
            raise UnsupportedOperationError(f"unknown operation {batch.op!r}")
        outcomes = []
        offset = 0
        for job in batch.jobs:
            data = results[offset : offset + job.n_items]
            offset += job.n_items
            outcomes.append(
                self._outcome(job, JobStatus.SUCCEEDED, n_ok=job.n_items, data=data)
            )
        self._finalize(outcomes)

    def _delete_per_job(self, filt: AbstractFilter, batch: Batch) -> np.ndarray:
        """Per-job deletes (bulk_delete reports one count per call)."""
        out = np.zeros(batch.n_keys, dtype=np.int64)
        offset = 0
        for job in batch.jobs:
            removed = int(filt.bulk_delete(job.keys))
            out[offset : offset + job.n_items] = 1 if removed == job.n_items else 0
            offset += job.n_items
        return out

    # ------------------------------------------------------------ retry/backoff
    def _backoff_s(self, batch: Batch) -> float:
        base = self.config.backoff_base_s * (2 ** (batch.attempts - 1))
        jitter01 = zlib.crc32(f"jitter:{batch.token()}".encode()) / 2**32
        return min(self.config.backoff_cap_s, base) * (
            1.0 + BACKOFF_JITTER * jitter01
        )

    def _schedule_retry(self, batch: Batch) -> None:
        ready_at = self.clock() + self._backoff_s(batch)
        with self._lock:
            for job in batch.jobs:
                job.status = JobStatus.QUEUED
            heapq.heappush(self._retry_heap, (ready_at, next(self._retry_seq), batch))
            self._work_ready.notify()

    # ------------------------------------------------------------- finalization
    def _insert_outcomes(self, batch: Batch, mask: np.ndarray) -> List[Outcome]:
        outcomes = []
        offset = 0
        for job in batch.jobs:
            job_mask = mask[offset : offset + job.n_items]
            offset += job.n_items
            n_ok = int(np.count_nonzero(job_mask))
            if n_ok == job.n_items:
                status = JobStatus.SUCCEEDED
            elif n_ok > 0:
                status = JobStatus.PARTIAL
            else:
                status = JobStatus.FAILED
            outcomes.append(
                self._outcome(
                    job, status,
                    n_ok=n_ok,
                    ok_mask=job_mask,
                    error=None if n_ok == job.n_items else "filter full",
                )
            )
        return outcomes

    def _finalize_batch(
        self, batch: Batch, status: JobStatus, error: Optional[str]
    ) -> None:
        self._finalize([self._outcome(job, status, error=error) for job in batch.jobs])

    def _outcome(
        self,
        job: Job,
        status: JobStatus,
        n_ok: int = 0,
        error: Optional[str] = None,
        ok_mask: Optional[np.ndarray] = None,
        data: Optional[np.ndarray] = None,
    ) -> Outcome:
        result = JobResult(
            status=status,
            n_items=job.n_items,
            n_ok=n_ok,
            attempts=max(1, job.attempts),
            error=error,
            ok_mask=ok_mask,
            data=data,
            deadline_exceeded=(
                job.deadline_at() is not None and self.clock() > job.deadline_at()
            ),
        )
        return job, result

    def _finalize(self, outcomes: List[Outcome]) -> None:
        """Make jobs terminal, journal their results, then acknowledge them.

        A job's first terminal transition wins.  The results of one call
        share one journal write and one fsync; only after that fsync does a
        job count as done for :meth:`drain` and wake its :meth:`result`
        waiters.  A batch's results are finalized inside its ``op_lock``,
        so a registry snapshot (always saved under ``op_lock``) never holds
        effects whose result record could still be lost.
        """
        now = self.clock()
        finished = []
        with self._lock:
            for job, result in outcomes:
                if job.status.terminal:
                    continue
                job.status = result.status
                job.result = result
                job.finished_at = now
                finished.append(job)
        if not finished:
            return
        if self.journal is not None:
            self.journal.record_result(*finished)
        with self._lock:
            self._n_pending -= len(finished)
            self._all_done.notify_all()
            if self._closed and not self._n_pending:
                self._work_ready.notify_all()  # the workers may leave now
        for job in finished:
            job._done.set()
