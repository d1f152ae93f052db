"""The four benchmark workloads, their correctness gates and their metrics.

Every workload takes the seed, builds its inputs before any timing starts
(``repro.hashing.xorwow`` / ``repro.workloads`` generate them; the filters
only ever see the finished arrays) and then runs *cycles*: set up a fresh
filter, service or pool, drive the timed operations, check the outputs.
All times are host wall-clock (``time.perf_counter``).  Simulated-GPU event
counts come from the filters' ``StatsRecorder`` and are kept apart from the
host rates.

A cycle returns a :class:`Cycle`: per-metric values, the timed wall time,
the simulated events per phase and any correctness violation.

Metric definitions (all rates in keys/s of host wall-clock time):

* ``setup_s`` — constructing the filter, service or pool plus its warm-up
  (bulk filters: a 4,096-key query on the empty filter; the sharded filter
  also runs ``warm_up()`` to spin its pool up; the service starts its
  threads and runs one warm-up query job per tenant).  Done
  ``SETUP_REPEATS`` times per cycle; the run reports the median.
* ``<op>_keys_per_s`` — keys in the operation over its wall time.  On
  ``service-mixed`` it is the keys of that operation's jobs acknowledged per
  second of the closed loop.
* ``acked_keys_per_s`` — every key of every timed operation (or job) over
  their total wall time: on the bulk workloads, each bulk call's return is
  its acknowledgement.
* ``ack_p50_ms`` / ``ack_p99_ms`` — client side, from the ``submit()`` call
  to the return of ``result()``.  ``Job.latency_s`` is *not* used: the
  service sets ``finished_at`` before ``record_result`` fsyncs the result
  record and before it wakes the waiter, so ``latency_s`` leaves out the
  result-journal cost.  The client reads results in submission order, so
  a job's ack time includes any wait for an older job's ack.
* ``bits_per_item`` — ``nbytes * 8`` over the items stored.
* ``false_positive_rate`` — positives returned for the negative half of the
  query batch (service: for fresh keys queried on both tenants at the end).
* ``failed_fraction`` — operations that raised or were refused, over those
  attempted.
* ``peak_rss_mb`` — the run's process peak RSS plus the peak RSS of each
  live pool child.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.gqf.bulk_gqf import BulkGQF
from repro.core.tcf.bulk_tcf import BulkTCF
from repro.core.tcf.config import BULK_TCF_DEFAULT
from repro.gpusim.stats import StatsRecorder
from repro.hashing import potc
from repro.hashing.fingerprints import FingerprintScheme
from repro.hashing.xorwow import generate_keys
from repro.service import (
    AdmissionError,
    FilterRegistry,
    FilterService,
    JobStatus,
    ServiceConfig,
)
from repro.sharding import shard_ids, sharded_gqf
from repro.workloads.generators import zipfian_count_dataset

from .trace import Tracer, trace_tenant

LOAD_FACTOR = 0.9
DELETE_FRACTION = 0.1
SETUP_REPEATS = 5
WARM_KEYS = 4096

TCF_SLOTS = 1 << 22
TCF_BLOCKS = TCF_SLOTS // BULK_TCF_DEFAULT.block_size
GQF_QUOTIENT_BITS = 20
REMAINDER_BITS = 8
SKEW_INSERTS = 1 << 20
SKEW_COEFFICIENT = 1.5
SKEW_QUOTIENT_BITS = 16
SKEW_REPEATS = 5
#: Largest count of a unary-encoded (remainder 0 or 1) item in the Zipf stream.
UNARY_COUNT_MAX = 64
N_SHARDS = 2
SHARD_QUOTIENT_BITS = 20

JOB_KEYS = 1024
OUTSTANDING = 8
SERVICE_WORKERS = 2
#: (operation, tenant) -> jobs per pass (1,000; a run makes at least two
#: passes); the seed shuffles their order.  Inserts go mostly to ``members``:
#: a bulk GQF insert rebuilds its whole table, so its cost grows with the
#: table.  The sizes keep each tenant's growth deterministic: ``members``
#: always doubles to 2^19 slots and stays below 0.9 load there; ``counts``
#: always extends once, to 2^17 quotient slots.
SERVICE_MIX = {
    ("insert", "members"): 430,
    ("insert", "counts"): 70,
    ("query", "members"): 175,
    ("query", "counts"): 175,
    ("count", "counts"): 100,
    ("delete", "members"): 50,
}
#: Keys of each ``members`` insert job set aside for later delete jobs.
DELETE_POOL_PER_JOB = 150
FINAL_NEGATIVES = 1 << 18
MEMBERS_SLOTS = 1 << 16

#: End-to-end metric units (every metric a workload reports).
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "insert_keys_per_s": "keys/s",
    "query_keys_per_s": "keys/s",
    "delete_keys_per_s": "keys/s",
    "count_keys_per_s": "keys/s",
    "skewed_insert_keys_per_s": "keys/s",
    "acked_keys_per_s": "keys/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "bits_per_item": "bits",
    "false_positive_rate": "ratio",
    "failed_fraction": "ratio",
}


def stream(seed: int, purpose: int) -> int:
    """A distinct XORWOW seed per (run seed, input stream)."""
    return (seed * 1_000_003 + purpose) & 0xFFFFFFFF


@dataclass
class Cycle:
    """What one cycle measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    sim: Dict[str, Dict[str, int]] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    children_rss_mb: float = 0.0
    #: service-mixed: request ids of the timed jobs and their key total.
    job_ids: set = field(default_factory=set)
    job_keys: int = 0
    #: Misses excused by the TCF's delete ambiguity (see ``tcf_pairs``).
    excused: int = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)


def _set_phase(tracer: Optional[Tracer], phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def _timed(cycle: Cycle, rec: StatsRecorder, tracer, phase: str, fn: Callable):
    """Run one timed operation inside a stats section named ``phase``."""
    _set_phase(tracer, phase)
    with rec.section(phase):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
    _set_phase(tracer, "check")
    cycle.timed_s += elapsed
    cycle.attempted += 1
    return out, elapsed


def _setup(cycle: Cycle, make: Callable, close: Callable, tracer):
    """Build ``SETUP_REPEATS`` fresh instances; keep and return the last."""
    _set_phase(tracer, "setup")
    for i in range(SETUP_REPEATS):
        rec = StatsRecorder()
        start = time.perf_counter()
        with rec.section("setup"):
            obj = make(rec)
        cycle.setup_s.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            close(obj)
    _set_phase(tracer, "check")
    return obj, rec


def _sim(rec: StatsRecorder) -> Dict[str, Dict[str, int]]:
    out = {name: stats.as_dict() for name, stats in sorted(rec.sections.items())}
    out["total"] = rec.total.as_dict()
    return out


def _children_rss_mb() -> float:
    """Summed peak RSS of the live child processes (the sharded pool)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def peak_rss_mb(children_mb: float) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + children_mb


def tcf_pairs(keys: np.ndarray, n_blocks: int) -> tuple:
    """Each key's (candidate block, fingerprint) pair for both of its blocks.

    A TCF delete removes the first copy of the key's fingerprint it finds in
    the key's two blocks.  That may be the copy of another key sharing the
    block and fingerprint (the hashes are independent, so the two keys' other
    blocks differ): the other key then reads absent, and deleting it later
    finds nothing.  The gates excuse such misses only for keys that share a
    pair with a deleted key.  Tables grow by powers of two from ``n_blocks``,
    so a pair shared in a grown table is shared at ``n_blocks`` too.
    """
    bits = BULK_TCF_DEFAULT.fingerprint_bits
    h = potc.derive(np.asarray(keys, dtype=np.uint64), n_blocks, bits)
    shift = np.uint64(bits)
    return (
        (h.primary.astype(np.uint64) << shift) | h.fingerprint,
        (h.secondary.astype(np.uint64) << shift) | h.fingerprint,
    )


def tcf_shares_pair(keys: np.ndarray, deleted: np.ndarray, n_blocks: int) -> np.ndarray:
    """Mask over ``keys`` (none of them deleted): shares a pair with a deleted key."""
    table = np.union1d(*tcf_pairs(deleted, n_blocks))
    primary, secondary = tcf_pairs(keys, n_blocks)
    return np.isin(primary, table) | np.isin(secondary, table)


def tcf_colliding_deletes(deleted: np.ndarray, n_blocks: int) -> np.ndarray:
    """Mask over ``deleted``: shares a pair with another deleted key."""
    primary, secondary = tcf_pairs(deleted, n_blocks)
    codes, counts = np.unique(
        np.concatenate([primary, secondary[secondary != primary]]), return_counts=True
    )
    shared = codes[counts >= 2]
    return np.isin(primary, shared) | np.isin(secondary, shared)


# ---------------------------------------------------------------------------
# bulk workloads (tcf-bulk, gqf-bulk, sharded-gqf)
# ---------------------------------------------------------------------------
class BulkInputs:
    """Uniform keys at 0.9 load, a shuffled 50/50 query batch, a delete set."""

    def __init__(self, seed: int, n_slots: int) -> None:
        n = int(LOAD_FACTOR * n_slots)
        self.keys = generate_keys(n, stream(seed, 1))
        rng = np.random.default_rng([seed, 1])
        half = n // 2
        positives = self.keys[rng.permutation(n)[:half]]
        negatives = generate_keys(n - half, stream(seed, 2))
        order = rng.permutation(n)
        self.query = np.concatenate([positives, negatives])[order]
        self.positive = (order < half)
        self.deletes = self.keys[rng.permutation(n)[: int(DELETE_FRACTION * n)]]
        self.warm = generate_keys(WARM_KEYS, stream(seed, 8))


def _query_phases(cycle, filt, rec, tracer, inputs: BulkInputs, counting: bool) -> None:
    n_q = inputs.query.size
    found, t = _timed(cycle, rec, tracer, "query", lambda: filt.bulk_query(inputs.query))
    found = np.asarray(found, dtype=bool)
    cycle.metrics["query_keys_per_s"] = n_q / t
    cycle.check(bool(found[inputs.positive].all()), "false negative in the mixed query")
    cycle.metrics["false_positive_rate"] = float(found[~inputs.positive].mean())
    if counting:
        counts, t = _timed(cycle, rec, tracer, "count", lambda: filt.bulk_count(inputs.query))
        cycle.metrics["count_keys_per_s"] = n_q / t
        cycle.check(
            bool((np.asarray(counts)[inputs.positive] >= 1).all()),
            "GQF count below the true multiplicity (uniform phase)",
        )


def _insert(cycle, filt, rec, tracer, inputs: BulkInputs) -> None:
    n = inputs.keys.size
    _, t = _timed(cycle, rec, tracer, "insert", lambda: filt.bulk_insert(inputs.keys))
    cycle.metrics["insert_keys_per_s"] = n / t
    cycle.metrics["bits_per_item"] = filt.nbytes * 8.0 / n


def _delete(cycle, filt, rec, tracer, inputs: BulkInputs, may_miss: int = 0) -> None:
    removed, t = _timed(cycle, rec, tracer, "delete", lambda: filt.bulk_delete(inputs.deletes))
    cycle.metrics["delete_keys_per_s"] = inputs.deletes.size / t
    missed = inputs.deletes.size - int(removed)
    cycle.check(0 <= missed <= may_miss, f"bulk_delete missed {missed} inserted keys")
    cycle.excused += missed


def _finish_bulk(cycle: Cycle, rec: StatsRecorder, n_keys: int) -> Cycle:
    cycle.metrics["acked_keys_per_s"] = n_keys / cycle.timed_s
    cycle.sim = _sim(rec)
    return cycle


def tcf_bulk_cycle(inputs: BulkInputs, may_miss: int, tracer: Optional[Tracer]) -> Cycle:
    """``may_miss``: deletes that share a pair with another (``tcf_pairs``)."""
    cycle = Cycle()

    def make(rec):
        filt = BulkTCF(TCF_SLOTS, recorder=rec)
        filt.bulk_query(inputs.warm)
        return filt

    filt, rec = _setup(cycle, make, lambda f: None, tracer)
    _insert(cycle, filt, rec, tracer, inputs)
    _query_phases(cycle, filt, rec, tracer, inputs, counting=False)
    _delete(cycle, filt, rec, tracer, inputs, may_miss)
    cycle.layer["tcf.resizes"] = float(filt.n_resizes)
    n_keys = inputs.keys.size + inputs.query.size + inputs.deletes.size
    return _finish_bulk(cycle, rec, n_keys)


class SkewInputs:
    """Zipf(1.5) count stream: 2^20 insertions of heavily repeated keys.

    The counter encoding stores an item whose remainder is 0 or 1 in unary,
    one slot per occurrence (``repro.core.gqf.counters``), so a heavy item
    that hashes there overflows any table.  Streams with such an item are
    skipped; the next stream of the same seed is taken, so the inputs stay a
    pure function of the seed.
    """

    def __init__(self, seed: int) -> None:
        scheme = FingerprintScheme(SKEW_QUOTIENT_BITS, REMAINDER_BITS)
        for attempt in itertools.count():
            data = zipfian_count_dataset(
                SKEW_INSERTS, SKEW_COEFFICIENT, stream(seed, 100 * attempt + 3)
            )
            _, remainders = scheme.key_to_slot(data.distinct_keys)
            if data.counts[remainders <= 1].max(initial=0) <= UNARY_COUNT_MAX:
                break
        self.dataset = data


def gqf_bulk_cycle(inputs: BulkInputs, skew: SkewInputs, tracer) -> Cycle:
    cycle = Cycle()

    def make(rec):
        filt = BulkGQF(GQF_QUOTIENT_BITS, REMAINDER_BITS, recorder=rec)
        filt.bulk_query(inputs.warm)
        return filt

    filt, rec = _setup(cycle, make, lambda f: None, tracer)
    _insert(cycle, filt, rec, tracer, inputs)
    _query_phases(cycle, filt, rec, tracer, inputs, counting=True)
    _delete(cycle, filt, rec, tracer, inputs)

    data = skew.dataset
    rates = []
    for i in range(SKEW_REPEATS):
        mapped = BulkGQF(SKEW_QUOTIENT_BITS, REMAINDER_BITS, use_mapreduce=True, recorder=rec)
        _, t = _timed(cycle, rec, tracer, "skewed_insert", lambda: mapped.bulk_insert(data.keys))
        rates.append(data.keys.size / t)
        if i == 0:
            counts = mapped.bulk_count(data.distinct_keys)
            cycle.check(
                bool((counts >= data.counts).all()),
                "GQF count below the true multiplicity (Zipf phase)",
            )
    cycle.metrics["skewed_insert_keys_per_s"] = float(np.median(rates))
    n_keys = (
        inputs.keys.size
        + 2 * inputs.query.size
        + inputs.deletes.size
        + SKEW_REPEATS * data.keys.size
    )
    return _finish_bulk(cycle, rec, n_keys)


def expected_shard_items(keys: np.ndarray) -> int:
    """Distinct (shard, fingerprint) pairs: what the shards must hold in sum."""
    scheme = FingerprintScheme(SHARD_QUOTIENT_BITS, REMAINDER_BITS)
    fingerprints = scheme.hash_key(keys)
    shards = shard_ids(keys, N_SHARDS).astype(np.uint64)
    return int(np.unique((shards << np.uint64(scheme.fingerprint_bits)) | fingerprints).size)


def sharded_gqf_cycle(inputs: BulkInputs, expected_items: int, tracer) -> Cycle:
    cycle = Cycle()

    def make(rec):
        filt = sharded_gqf(N_SHARDS, SHARD_QUOTIENT_BITS, REMAINDER_BITS, recorder=rec)
        filt.warm_up()
        filt.bulk_query(inputs.warm)
        return filt

    filt, rec = _setup(cycle, make, lambda f: f.close(), tracer)
    try:
        _insert(cycle, filt, rec, tracer, inputs)
        items = sum(filt.shard_items())
        cycle.check(
            items == expected_items,
            f"sum(shard_items()) = {items}, unsharded count {expected_items}",
        )
        _query_phases(cycle, filt, rec, tracer, inputs, counting=True)
        _delete(cycle, filt, rec, tracer, inputs)
        cycle.layer["sharding.worker_restarts"] = float(filt.worker_restarts)
        cycle.children_rss_mb = _children_rss_mb()
    finally:
        filt.close()
    n_keys = inputs.keys.size + 2 * inputs.query.size + inputs.deletes.size
    return _finish_bulk(cycle, rec, n_keys)


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------
@dataclass
class PlannedJob:
    op: str
    tenant: str
    keys: np.ndarray
    #: Keys that must read as present (query) / counted at least once (count).
    positive: Optional[np.ndarray] = None
    #: A delete job whose keys share a TCF pair with other deleted keys.
    may_miss: bool = False


class ServicePlan:
    """The seeded job sequence of one pass, fixed before the service starts.

    The client keeps ``OUTSTANDING`` jobs in flight and collects results in
    submission order, so when job ``i`` is submitted every job up to
    ``i - OUTSTANDING`` has been acknowledged.  Reads and deletes therefore
    draw their keys from insert jobs at least ``OUTSTANDING`` positions
    earlier: the inputs are a pure function of the seed, yet every positive
    read and every delete targets an acknowledged key.  ``members`` insert
    jobs set their first ``DELETE_POOL_PER_JOB`` keys aside for deletes, and
    positive reads never touch those, so no read races a delete.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        kinds = [kind for kind, n in SERVICE_MIX.items() for _ in range(n)]
        pending = [kinds[i] for i in rng.permutation(len(kinds))]
        n_inserts = sum(n for (op, _), n in SERVICE_MIX.items() if op == "insert")
        fresh = iter(generate_keys(n_inserts * JOB_KEYS, stream(seed, 5)).reshape(-1, JOB_KEYS))
        n_reads = sum(n for (op, _), n in SERVICE_MIX.items() if op in ("query", "count"))
        half = JOB_KEYS // 2
        negatives = iter(generate_keys(n_reads * half, stream(seed, 6)).reshape(-1, half))

        readable: Dict[str, List[np.ndarray]] = {"members": [], "counts": []}
        deletable: collections.deque = collections.deque()
        inserted: List[tuple] = []  # (position, tenant, keys)
        visible = 0
        self.jobs: List[PlannedJob] = []
        while pending:
            i = len(self.jobs)
            while visible < len(inserted) and inserted[visible][0] <= i - OUTSTANDING:
                _, tenant, keys = inserted[visible]
                if tenant == "members":
                    deletable.extend(keys[:DELETE_POOL_PER_JOB])
                    readable[tenant].append(keys[DELETE_POOL_PER_JOB:])
                else:
                    readable[tenant].append(keys)
                visible += 1

            def feasible(kind) -> bool:
                op, tenant = kind
                if op == "delete":
                    return len(deletable) >= JOB_KEYS
                if op in ("query", "count"):
                    return sum(a.size for a in readable[tenant]) >= half
                return True

            kind = next(k for k in pending if feasible(k))
            pending.remove(kind)
            op, tenant = kind
            if op == "insert":
                keys = next(fresh)
                inserted.append((i, tenant, keys))
                self.jobs.append(PlannedJob(op, tenant, keys))
            elif op == "delete":
                keys = np.array([deletable.popleft() for _ in range(JOB_KEYS)], dtype=np.uint64)
                self.jobs.append(PlannedJob(op, tenant, keys))
            else:
                pool = np.concatenate(readable[tenant])
                readable[tenant] = [pool]
                positives = pool[rng.integers(0, pool.size, half)]
                batch = np.concatenate([positives, next(negatives)])
                order = rng.permutation(JOB_KEYS)
                self.jobs.append(PlannedJob(op, tenant, batch[order], order < half))

        # Acked keys that must still be present at the end, per tenant.
        members = [k[DELETE_POOL_PER_JOB:] for _, t, k in inserted if t == "members"]
        self.live = {
            "members": np.concatenate(members + [np.array(deletable, dtype=np.uint64)]),
            "counts": np.concatenate([k for _, t, k in inserted if t == "counts"]),
        }
        # The TCF delete ambiguity (``tcf_pairs``), at the initial geometry.
        n_blocks = MEMBERS_SLOTS // BULK_TCF_DEFAULT.block_size
        deletes = [job for job in self.jobs if job.op == "delete"]
        deleted = np.concatenate([job.keys for job in deletes])
        colliding = tcf_colliding_deletes(deleted, n_blocks).reshape(len(deletes), JOB_KEYS)
        for job, row in zip(deletes, colliding):
            job.may_miss = bool(row.any())
        live = self.live["members"]
        self.at_risk = np.sort(live[tcf_shares_pair(live, deleted, n_blocks)])
        self.final_negatives = generate_keys(FINAL_NEGATIVES, stream(seed, 7))
        self.warm = generate_keys(WARM_KEYS, stream(seed, 8))


def _make_service(run_dir, warm, rec: StatsRecorder, tracer: Optional[Tracer]) -> FilterService:
    registry = FilterRegistry(run_dir / "snapshots")
    service = FilterService(
        registry,
        ServiceConfig(max_workers=SERVICE_WORKERS),
        journal_dir=run_dir / "journal",
    )

    def tenant(name: str, build: Callable):
        def factory():
            filt = build()
            if tracer is not None:
                trace_tenant(tracer, filt, name)
            return filt

        return factory

    service.register_filter(
        "members",
        tenant("members", lambda: BulkTCF(MEMBERS_SLOTS, recorder=rec, auto_resize=True)),
    )
    service.register_filter(
        "counts",
        tenant("counts", lambda: BulkGQF(16, REMAINDER_BITS, recorder=rec, auto_resize=True)),
    )
    for name in ("members", "counts"):
        service.result(service.submit(name, "query", warm), timeout=60)
    return service


def service_cycle(plan: ServicePlan, run_root, index: int, tracer: Optional[Tracer]) -> Cycle:
    cycle = Cycle()
    run_dir = run_root / f"pass-{index}"
    setup_dirs = (run_dir / f"setup-{i}" for i in range(SETUP_REPEATS))
    try:
        service, rec = _setup(
            cycle,
            lambda rec: _make_service(next(setup_dirs), plan.warm, rec, tracer),
            lambda s: s.shutdown(),
            tracer,
        )
        try:
            before = rec.total.as_dict()
            _set_phase(tracer, "serve")
            _serve(cycle, service, plan, tracer)
            after = rec.total.as_dict()
            cycle.sim = {"serve": {k: v - before[k] for k, v in after.items()}, "total": after}
            _set_phase(tracer, "check")
            _final_check(cycle, service, plan)
            timed_jobs = [job for job in service.jobs() if job.request_id in cycle.job_ids]
            _service_layer(cycle, timed_jobs)
        finally:
            service.shutdown()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return cycle


def _serve(cycle: Cycle, service: FilterService, plan: ServicePlan, tracer) -> None:
    """The closed loop: one client thread, ``OUTSTANDING`` jobs in flight."""
    keys_by_op: Dict[str, int] = collections.Counter()
    outstanding: collections.deque = collections.deque()

    def collect() -> None:
        job, request_id, submitted = outstanding.popleft()
        result = service.result(request_id, timeout=120)
        cycle.latencies_ms.append(1e3 * (time.perf_counter() - submitted))
        if result.status is not JobStatus.SUCCEEDED:
            cycle.failed += 1
            cycle.violations.append(f"{job.op} job on {job.tenant} ended {result.status.value}")
            return
        keys_by_op[job.op] += job.keys.size
        if job.op == "query":
            missing = job.keys[job.positive & ~np.asarray(result.data, dtype=bool)]
            excused = bool(np.isin(missing, plan.at_risk).all())
            cycle.check(excused, f"lost ack: query on {job.tenant}")
            cycle.excused += missing.size
        elif job.op == "count":
            data = np.asarray(result.data)
            cycle.check(bool((data[job.positive] >= 1).all()), "count below multiplicity")
        elif job.op == "delete":
            cycle.check(all(result.data) or job.may_miss, "delete missed acknowledged keys")
        else:
            cycle.check(result.n_ok == job.keys.size, "insert not fully applied")

    start = time.perf_counter()
    for i, job in enumerate(plan.jobs):
        if len(outstanding) == OUTSTANDING:
            collect()
        if tracer is not None:
            tracer.set_job(f"job-{i:04d}")
        submitted = time.perf_counter()
        cycle.attempted += 1
        try:
            request_id = service.submit(job.tenant, job.op, job.keys)
        except AdmissionError:
            cycle.failed += 1
            cycle.violations.append("job refused by admission control")
            continue
        finally:
            if tracer is not None:
                tracer.set_job(None)
        cycle.job_ids.add(request_id)
        outstanding.append((job, request_id, submitted))
    while outstanding:
        collect()
    wall = time.perf_counter() - start
    cycle.timed_s = wall
    total = sum(keys_by_op.values())
    cycle.metrics["acked_keys_per_s"] = total / wall
    for op in ("insert", "query", "delete", "count"):
        cycle.metrics[f"{op}_keys_per_s"] = keys_by_op[op] / wall


def _final_check(cycle: Cycle, service: FilterService, plan: ServicePlan) -> None:
    """Zero lost acks, plus space and false-positive rate of both tenants."""
    nbytes = items = false_pos = 0
    for name in ("members", "counts"):
        with service.registry.acquire(name) as entry:
            with entry.op_lock:
                filt = entry.filt
                live = plan.live[name]
                if name == "counts":
                    missing = live[filt.bulk_count(live) < 1]
                else:
                    missing = live[~filt.bulk_query(live)]
                excused = bool(np.isin(missing, plan.at_risk).all())
                cycle.check(excused, f"lost ack: final query on {name}")
                cycle.excused += missing.size
                false_pos += int(filt.bulk_query(plan.final_negatives).sum())
                nbytes += filt.nbytes
                items += live.size
                if name == "members":
                    cycle.layer["tcf.resizes"] = float(filt.n_resizes)
    cycle.metrics["bits_per_item"] = nbytes * 8.0 / items
    cycle.metrics["false_positive_rate"] = false_pos / (2.0 * plan.final_negatives.size)


def _service_layer(cycle: Cycle, jobs) -> None:
    """Queue wait, execution time and retries from the public Job fields."""
    wait = [1e3 * (j.started_at - j.submitted_at) for j in jobs if j.started_at is not None]
    execute = [
        1e3 * (j.finished_at - j.started_at)
        for j in jobs
        if j.started_at is not None and j.finished_at is not None
    ]
    for name, values in (("queue_wait_ms", wait), ("exec_ms", execute)):
        cycle.layer[f"service.{name}.p50"] = float(np.percentile(values, 50))
        cycle.layer[f"service.{name}.p99"] = float(np.percentile(values, 99))
    cycle.layer["service.retries"] = float(
        sum(max(0, j.result.attempts - 1) for j in jobs if j.result is not None)
    )
    cycle.job_keys = sum(j.keys.size for j in jobs)
