"""Job model of the bulk filter service: requests, results, statuses, errors.

A **job** is one client-submitted bulk operation (insert / query / delete /
count of up to millions of keys) against one named filter.  Jobs move
through a small, strictly forward state machine::

    QUEUED -> RUNNING -> SUCCEEDED | PARTIAL | FAILED
    QUEUED -> CANCELLED            (client cancel before execution)
    QUEUED -> EXPIRED              (deadline passed before execution)

``SUCCEEDED``/``PARTIAL``/``FAILED``/``CANCELLED``/``EXPIRED`` are terminal:
once reached, a job's result never changes, and resubmitting its request ID
returns the original result (idempotency).  ``PARTIAL`` is the bulk-API
partial-success outcome — some keys were applied, some were not, and the
per-item report says which.

Error taxonomy (mirrored in the README failure-semantics table):

* **retryable** — transient conditions the service retries internally with
  exponential backoff and jitter: injected worker crashes
  (:class:`~repro.service.faults.WorkerCrashFault`) and filter-full storms
  (:class:`~repro.service.faults.FilterFullFault`).  Keys a resizable
  filter leaves out are not an error: the service grows the filter via
  :func:`repro.lifecycle.expand` and inserts just those keys again.
* **terminal** — conditions retrying cannot fix: unknown filters, unsupported
  operations, deletion of absent items, torn snapshots at restore time, and
  a :class:`~repro.core.exceptions.FilterFullError` raised from inside a
  filter's insert, which may already have placed keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.exceptions import (
    CapacityLimitError,
    DeletionError,
    FilterFullError,
    SnapshotError,
    UnsupportedOperationError,
)

#: Operations a job may request; each maps onto the filters' bulk API.
OPERATIONS = ("insert", "query", "delete", "count")


class JobStatus(str, enum.Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    PARTIAL = "partial"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset(
    {
        JobStatus.SUCCEEDED,
        JobStatus.PARTIAL,
        JobStatus.FAILED,
        JobStatus.CANCELLED,
        JobStatus.EXPIRED,
    }
)


# --------------------------------------------------------------------------
# service errors
# --------------------------------------------------------------------------
class ServiceError(Exception):
    """Base class for every error the service raises at its API surface."""


class AdmissionError(ServiceError):
    """Submission rejected by admission control (queue-depth backpressure).

    Carries ``retry_after_s``, the server's suggestion for when to resubmit
    — reject-with-retry-after instead of letting the queue grow without
    bound.
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class UnknownFilterError(ServiceError):
    """The job names a filter the registry does not know."""


class JobNotFoundError(ServiceError):
    """``status``/``result``/``cancel`` named an unknown request ID."""


class ServiceClosedError(ServiceError):
    """The service is shut down and accepts no further submissions."""


#: Exceptions the worker retries (with backoff) rather than failing the job.
#: Injected fault types are appended by :mod:`repro.service.faults` at import
#: time so the job layer does not depend on the fault layer.
RETRYABLE_ERRORS: List[type] = []

#: Exceptions that immediately fail the job: retrying cannot change the
#: outcome, or (``FilterFullError`` raised inside a filter's insert, after
#: some keys may have landed) could apply a key twice.
TERMINAL_ERRORS = (
    FilterFullError,
    UnsupportedOperationError,
    DeletionError,
    SnapshotError,
    CapacityLimitError,
    UnknownFilterError,
    ValueError,
    TypeError,
)


def is_retryable(exc: BaseException) -> bool:
    """Classify an execution failure: retry with backoff, or fail the job."""
    return isinstance(exc, tuple(RETRYABLE_ERRORS))


# --------------------------------------------------------------------------
# job records
# --------------------------------------------------------------------------
@dataclass
class JobResult:
    """Terminal outcome of a job, kept for idempotent resubmission.

    ``ok_mask`` is the per-item partial-success report for inserts (a
    ``bool`` array, True = the key was applied); ``data`` carries the
    per-key payload of read operations (an ``int64`` array of query hits or
    count values).
    """

    status: JobStatus
    n_items: int
    n_ok: int
    attempts: int
    error: Optional[str] = None
    ok_mask: Optional[np.ndarray] = None
    data: Optional[np.ndarray] = None
    deadline_exceeded: bool = False

    @property
    def n_failed(self) -> int:
        return self.n_items - self.n_ok

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": self.status.value,
            "n_items": self.n_items,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "attempts": self.attempts,
            "error": self.error,
            "deadline_exceeded": self.deadline_exceeded,
        }


@dataclass
class Job:
    """One accepted bulk job, tracked from submission to its terminal state.

    Mutable fields are guarded by the service's bookkeeping lock; the numpy
    payloads are never mutated after acceptance.
    """

    request_id: str
    filter_name: str
    op: str
    keys: np.ndarray
    values: Optional[np.ndarray]
    submitted_at: float
    deadline_s: Optional[float] = None
    status: JobStatus = JobStatus.QUEUED
    attempts: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[JobResult] = None
    #: Set by ``cancel``; honoured at dequeue time (a running batch is not
    #: interrupted — its effects must stay well-defined).
    cancel_requested: bool = False
    #: Retry scheduling: the batch this job rides in may not execute before.
    not_before: float = 0.0
    _done: "object" = field(default=None, repr=False)

    @property
    def n_items(self) -> int:
        return int(self.keys.size)

    def deadline_at(self) -> Optional[float]:
        if self.deadline_s is None:
            return None
        return self.submitted_at + self.deadline_s

    def expired(self, now: float) -> bool:
        deadline = self.deadline_at()
        return deadline is not None and now >= deadline

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at
