"""Mixed-traffic driver for the filter service: the chaos harness.

Simulates many clients hammering a multi-tenant :class:`FilterService` with
bursty insert/query/count traffic — optionally under seeded fault injection
— then audits the *effect invariants* the service guarantees:

* **all terminal** — every accepted job reached a terminal state;
* **no lost acks** — every key a client was told was inserted is still a
  member of its filter;
* **no duplicate effects** — retries never re-applied an insert: the TCF
  tenants hold exactly as many fingerprints as keys were acked, and the GQF
  tenant's slot array is bit-identical to a reference filter rebuilt from
  the acked keys alone (the canonical layout is order-independent, so any
  divergence means a duplicated or phantom insert);
* **idempotent resubmission** — resubmitting a finished request ID returns
  the original result, both in-process and across a crash/recovery.

The optional recovery episode completes the story: shut the service down,
snapshot every tenant, deliberately tear one snapshot file, then bring a
new service up via :meth:`FilterService.recover` with the
``"recreate"`` restore policy and refill the recreated tenant from the
journal's acked effects — after which no acked key may be missing.

The :mod:`repro.pipeline` ``service`` stage wraps this driver at preset
scale; the chaos tests call it directly.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.base import AbstractFilter
from ..core.gqf import PointGQF
from ..core.tcf import BulkTCF, PointTCF
from ..gpusim.stats import StatsRecorder
from .faults import FaultConfig, FaultInjector
from .journal import acked_effects
from .jobs import JobStatus
from .registry import FilterRegistry
from .service import FilterService, ServiceConfig


@dataclass(frozen=True)
class TrafficConfig:
    """Scale and shape of one simulated traffic run."""

    seed: int = 0x5EF7
    n_clients: int = 8
    jobs_per_client: int = 12
    keys_per_job: int = 64
    #: Operation mix (the remainder after insert+query is count traffic).
    insert_fraction: float = 0.6
    query_fraction: float = 0.25
    #: Fraction of jobs carrying an already-expired deadline (they must be
    #: EXPIRED with zero effects) and of jobs cancelled right after submit.
    expired_deadline_fraction: float = 0.05
    cancel_fraction: float = 0.05
    #: Slots of the deliberately small fixed-capacity tenant (fills up and
    #: exercises PARTIAL outcomes; 0 disables the tenant).
    fixed_tenant_slots: int = 256


def _tenant_factories(config: TrafficConfig) -> Dict[str, Callable[[], AbstractFilter]]:
    """The multi-tenant fleet, one tenant per bulk-insert code path."""
    total_keys = config.n_clients * config.jobs_per_client * config.keys_per_job
    n_slots = max(1024, 2 * total_keys)
    lg = int(np.ceil(np.log2(n_slots)))
    tenants: Dict[str, Callable[[], AbstractFilter]] = {
        # Vectorised graceful-mask path with growth.
        "tcf": lambda: PointTCF(
            n_slots, recorder=StatsRecorder(), auto_resize=True
        ),
        # Whole-batch two-pass bulk path behind the new bulk_insert_mask.
        "bulktcf": lambda: BulkTCF(
            n_slots, recorder=StatsRecorder(), auto_resize=True
        ),
        # Counting filter through the quotient family's batched mask with
        # growth; 16-bit remainders keep false-positive noise out of the
        # effect audit.
        "gqf": lambda: PointGQF(
            lg, 16, recorder=StatsRecorder(), auto_resize=True
        ),
    }
    if config.fixed_tenant_slots:
        slots = config.fixed_tenant_slots
        tenants["fixed"] = lambda: PointTCF(slots, recorder=StatsRecorder())
    return tenants


@dataclass
class _TenantLedger:
    """What the driver submitted and what the service acked, per tenant."""

    submitted_insert_keys: int = 0
    insert_request_ids: List[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.insert_request_ids is None:
            self.insert_request_ids = []


def run_traffic(
    workdir,
    traffic: Optional[TrafficConfig] = None,
    faults: Optional[FaultConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    with_recovery: bool = False,
) -> Dict[str, object]:
    """Run one traffic scenario end to end; returns the metrics/audit dict."""
    traffic = traffic or TrafficConfig()
    faults = faults or FaultConfig()
    workdir = pathlib.Path(workdir)
    injector = FaultInjector(faults)
    registry = FilterRegistry(
        workdir / "snapshots",
        fault_injector=injector,
    )
    config = service_config or ServiceConfig(
        max_workers=4,
        max_pending_jobs=4096,
        max_batch_jobs=8,
        max_attempts=5,
    )
    journal_dir = workdir / "journal"
    service = FilterService(
        registry, config, journal_dir=journal_dir, fault_injector=injector
    )
    factories = _tenant_factories(traffic)
    for name, factory in factories.items():
        service.register_filter(name, factory)
    # Squeeze the memory budget so LRU eviction/restore runs *during* the
    # traffic, not only in the recovery episode.
    resident = registry.resident_bytes()
    registry.memory_budget_bytes = max(4096, int(resident * 0.75))

    rng = np.random.default_rng(traffic.seed)
    tenant_names = list(factories)
    ledgers = {name: _TenantLedger() for name in tenant_names}
    next_key = {name: 2 for name in tenant_names}  # 0/1 are reserved words
    all_request_ids: List[str] = []
    cancelled_requests: List[str] = []

    start = time.perf_counter()
    n_jobs = traffic.n_clients * traffic.jobs_per_client
    for i in range(n_jobs):
        client = i % traffic.n_clients
        tenant = tenant_names[int(rng.integers(len(tenant_names)))]
        draw = rng.random()
        if draw < traffic.insert_fraction:
            op = "insert"
            lo = next_key[tenant]
            next_key[tenant] = lo + traffic.keys_per_job
            keys = np.arange(lo, lo + traffic.keys_per_job, dtype=np.uint64)
        elif draw < traffic.insert_fraction + traffic.query_fraction:
            op = "query"
            keys = rng.integers(
                2, max(3, next_key[tenant]), size=traffic.keys_per_job, dtype=np.uint64
            )
        else:
            # Count traffic only makes sense on the counting tenant.
            op = "count" if tenant == "gqf" else "query"
            keys = rng.integers(
                2, max(3, next_key[tenant]), size=traffic.keys_per_job, dtype=np.uint64
            )
        deadline_s = None
        if op != "insert" and rng.random() < traffic.expired_deadline_fraction:
            deadline_s = 0.0  # already expired: must be dropped effect-free
        request_id = service.submit(
            tenant,
            op,
            keys,
            request_id=f"c{client}-{op}-{i:05d}",
            deadline_s=deadline_s,
        )
        all_request_ids.append(request_id)
        if op == "insert":
            ledgers[tenant].submitted_insert_keys += keys.size
            ledgers[tenant].insert_request_ids.append(request_id)
        elif rng.random() < traffic.cancel_fraction:
            if service.cancel(request_id):
                cancelled_requests.append(request_id)
    drained = service.drain(timeout=120.0)
    elapsed = time.perf_counter() - start

    # ---------------------------------------------------------------- audit
    status_counts: Dict[str, int] = {}
    latencies: List[float] = []
    attempts_max = 0
    non_terminal = 0
    for request_id in all_request_ids:
        job = service._get(request_id)
        if not job.status.terminal:
            non_terminal += 1
            continue
        status_counts[job.status.value] = status_counts.get(job.status.value, 0) + 1
        attempts_max = max(attempts_max, job.attempts)
        if job.latency_s is not None:
            latencies.append(job.latency_s)

    acked_keys: Dict[str, np.ndarray] = {}
    n_acked_total = 0
    for tenant, ledger in ledgers.items():
        chunks = []
        for request_id in ledger.insert_request_ids:
            job = service._get(request_id)
            result = job.result
            if result is None or result.status not in (
                JobStatus.SUCCEEDED,
                JobStatus.PARTIAL,
            ):
                continue
            mask = result.ok_mask
            chunks.append(job.keys if mask is None else job.keys[mask])
        acked_keys[tenant] = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint64)
        )
        n_acked_total += int(acked_keys[tenant].size)

    lost_acks = 0
    duplicate_effects = 0
    for tenant in tenant_names:
        acked = acked_keys[tenant]
        with registry.acquire(tenant) as entry:
            filt = entry.filt
            if acked.size:
                lost_acks += int(np.count_nonzero(~filt.bulk_query(acked)))
            if tenant == "gqf":
                duplicate_effects += _gqf_effect_mismatch(filt, acked)
            else:
                # TCF fingerprints count multiplicity: any retry that
                # re-applied an insert shows up as n_items > acked.
                duplicate_effects += abs(int(filt.n_items) - int(acked.size))

    # Idempotent resubmission: re-submitting finished request IDs must hand
    # back the original results without re-executing anything.
    resample = all_request_ids[:: max(1, len(all_request_ids) // 16)]
    idempotent = True
    for request_id in resample:
        before = service._get(request_id).result
        again = service.submit("tcf", "insert", [2, 3], request_id=request_id)
        idempotent &= again == request_id and service._get(request_id).result is before

    submitted_insert_keys = sum(
        ledger.submitted_insert_keys for ledger in ledgers.values()
    )
    per_tenant = {
        tenant: {
            "submitted": int(ledger.submitted_insert_keys),
            "acked": int(acked_keys[tenant].size),
        }
        for tenant, ledger in ledgers.items()
    }
    # The fixed-capacity tenant is *designed* to fill up (it exercises the
    # PARTIAL path), so the headline goodput gate tracks growable tenants.
    growable_submitted = sum(
        stats["submitted"] for name, stats in per_tenant.items() if name != "fixed"
    )
    growable_acked = sum(
        stats["acked"] for name, stats in per_tenant.items() if name != "fixed"
    )
    data: Dict[str, object] = {
        "n_jobs": n_jobs,
        "elapsed_s": round(elapsed, 4),
        "jobs_per_s": round(n_jobs / max(elapsed, 1e-9), 1),
        "keys_per_s": round(
            n_jobs * traffic.keys_per_job / max(elapsed, 1e-9), 1
        ),
        "drained": bool(drained),
        "non_terminal": non_terminal,
        "status_counts": status_counts,
        "latency_p50_s": round(float(np.percentile(latencies, 50)), 5)
        if latencies
        else 0.0,
        "latency_p99_s": round(float(np.percentile(latencies, 99)), 5)
        if latencies
        else 0.0,
        "attempts_max": attempts_max,
        "submitted_insert_keys": int(submitted_insert_keys),
        "acked_insert_keys": int(n_acked_total),
        "goodput": round(n_acked_total / max(1, submitted_insert_keys), 4),
        "goodput_growable": round(growable_acked / max(1, growable_submitted), 4),
        "per_tenant": per_tenant,
        "lost_acks": int(lost_acks),
        "duplicate_effects": int(duplicate_effects),
        "idempotent_resubmits": bool(idempotent),
        "cancelled_submitted": len(cancelled_requests),
        "faults_fired": dict(injector.fired),
        "registry": dict(registry.stats),
    }

    if with_recovery:
        data["recovery"] = _recovery_episode(
            service, registry, factories, journal_dir, workdir, acked_keys, resample
        )
    else:
        service.shutdown(wait=True)
    return data


def _gqf_effect_mismatch(filt: PointGQF, acked: np.ndarray) -> int:
    """Bit-compare the live GQF against a rebuild from the acked keys.

    The canonical layout is a pure function of the stored multiset, so a
    reference filter at the live geometry fed exactly the acked keys must
    produce an identical slot array; any differing slot word witnesses a
    duplicated (or phantom) effect.
    """
    reference = PointGQF(
        filt.scheme.quotient_bits,
        filt.scheme.remainder_bits,
        recorder=StatsRecorder(),
        enforce_alignment=False,
    )
    if acked.size:
        reference.bulk_insert(acked)
    live = np.asarray(filt.core.slots.peek())
    ref = np.asarray(reference.core.slots.peek())
    if live.shape != ref.shape:
        return max(live.size, ref.size)
    return int(np.count_nonzero(live != ref))


def _recovery_episode(
    service: FilterService,
    registry: FilterRegistry,
    factories: Dict[str, Callable[[], AbstractFilter]],
    journal_dir: pathlib.Path,
    workdir: pathlib.Path,
    acked_keys: Dict[str, np.ndarray],
    resample: List[str],
) -> Dict[str, object]:
    """Crash, tear a snapshot, recover from the journal, audit the result."""
    service.shutdown(wait=True)
    registry.flush()

    # Tear one tenant's snapshot through the injection site, simulating disk
    # corruption between the crash and the restart.
    torn_tenant = "tcf"
    tearer = FaultInjector(FaultConfig(seed=0, torn_snapshot_rate=1.0))
    torn = tearer.on_snapshot_saved(
        torn_tenant, workdir / "snapshots" / f"{torn_tenant}.rpro"
    )

    recovered_registry = FilterRegistry(
        workdir / "snapshots",
        torn_restore_policy="recreate",
    )
    for name, factory in factories.items():
        recovered_registry.register_snapshot(name, factory)
    recovered = FilterService.recover(recovered_registry, journal_dir)
    recovered.drain(timeout=60.0)

    # Touch every tenant so restores (and the torn one's recreate) happen.
    for name in factories:
        with recovered_registry.acquire(name):
            pass
    recreated = recovered_registry.recreated_names()
    # Refill recreated tenants from the journal's acked effects — exactly
    # the keys clients were told are stored, nothing more.
    effects = acked_effects(journal_dir)
    for name in recreated:
        keys, values = effects.get(name, (np.zeros(0, dtype=np.uint64), None))
        if keys.size:
            with recovered_registry.acquire(name) as entry:
                with entry.op_lock:
                    entry.filt.bulk_insert_mask(keys, values)

    lost_after_recovery = 0
    for name in factories:
        acked = acked_keys.get(name)
        if acked is None or not acked.size:
            continue
        with recovered_registry.acquire(name) as entry:
            lost_after_recovery += int(
                np.count_nonzero(~entry.filt.bulk_query(acked))
            )

    # Idempotency must survive the restart: resubmitting a pre-crash request
    # ID returns the journaled result instead of re-executing the job.
    idempotent = True
    for request_id in resample:
        original = service._get(request_id).result
        if original is None:
            continue
        again = recovered.submit("tcf", "insert", [2, 3], request_id=request_id)
        replayed = recovered._get(request_id).result
        idempotent &= (
            again == request_id
            and replayed is not None
            and replayed.status == original.status
            and replayed.n_ok == original.n_ok
        )
    recovered.shutdown(wait=True)
    return {
        "torn_tenant": torn_tenant if torn else "",
        "recreated": recreated,
        "restores": recovered_registry.stats["restores"],
        "torn_restores": recovered_registry.stats["torn_restores"],
        "lost_after_recovery": int(lost_after_recovery),
        "idempotent_across_restart": bool(idempotent),
    }
