"""Fault-tolerant bulk-job filter service.

The long-lived front end the paper's motivating deployment (MetaHipMer's
distributed k-mer sets) assumes: clients submit asynchronous bulk jobs of
keys against named filters and get robust semantics back — request-ID
idempotency, per-item partial success, bounded retries with backoff,
deadlines and cancellation, queue-depth backpressure, and journal-based
crash recovery — while a windowed batcher and a bounded worker pool turn
the small-job stream into the filters' vectorised bulk calls.

* :mod:`repro.service.jobs` — the job model: statuses, results, errors;
* :mod:`repro.service.registry` — multi-tenant filter registry with memory
  accounting, LRU eviction to snapshots, and restore-on-demand;
* :mod:`repro.service.batcher` — time/size-windowed batch coalescing;
* :mod:`repro.service.journal` — fsynced journal + crash replay;
* :mod:`repro.service.service` — the :class:`FilterService` itself;
* :mod:`repro.service.faults` — deterministic, seedable fault injection
  (worker crashes, slow batches, filter-full storms, torn snapshots);
* :mod:`repro.service.traffic` — the mixed-traffic chaos harness behind
  the ``service`` pipeline stage.
"""

from .batcher import Batch, WindowedBatcher
from .faults import (
    FaultConfig,
    FaultInjector,
    FilterFullFault,
    InjectedFault,
    TornWriteFault,
    WorkerCrashFault,
    torn_snapshot_writes,
)
from .jobs import (
    AdmissionError,
    Job,
    JobNotFoundError,
    JobResult,
    JobStatus,
    ServiceClosedError,
    ServiceError,
    UnknownFilterError,
)
from .journal import JobJournal, acked_effects, replay
from .registry import FilterRegistry
from .service import FilterService, ServiceConfig
from .traffic import TrafficConfig, run_traffic

__all__ = [
    "AdmissionError",
    "Batch",
    "FaultConfig",
    "FaultInjector",
    "FilterFullFault",
    "FilterRegistry",
    "FilterService",
    "InjectedFault",
    "Job",
    "JobJournal",
    "JobNotFoundError",
    "JobResult",
    "JobStatus",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "TornWriteFault",
    "TrafficConfig",
    "UnknownFilterError",
    "WindowedBatcher",
    "WorkerCrashFault",
    "acked_effects",
    "replay",
    "run_traffic",
    "torn_snapshot_writes",
]
