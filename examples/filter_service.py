#!/usr/bin/env python
"""Running the fault-tolerant filter service: bulk jobs, retries, recovery.

The :mod:`repro.service` layer turns the filters into a multi-tenant bulk-job
service: clients submit asynchronous insert/query/delete/count jobs against
named filters and get per-item results back, while the service handles
batching, bounded retries with backoff, capacity growth, deadlines,
idempotent resubmission and crash recovery from its journal.  This example
walks the client-facing surface:

* ``submit`` / ``status`` / ``result`` — the async job round trip;
* partial success — a fixed-capacity tenant fills up and reports a per-item
  ``ok_mask`` instead of failing the whole job;
* fault injection — a seeded injector crashes workers mid-run and the
  retries absorb it without duplicating any insert;
* deadlines and idempotency — expired jobs are dropped effect-free,
  resubmitted request IDs return the original result;
* crash recovery — a second service instance rebuilt from the journal and
  the snapshot directory still knows every acked key and finished result.

Run with::

    python examples/filter_service.py
"""

import os
import tempfile

import numpy as np

from repro.core.tcf import PointTCF
from repro.service import (
    FaultConfig,
    FaultInjector,
    FilterRegistry,
    FilterService,
    ServiceConfig,
)

#: REPRO_EXAMPLE_SCALE=tiny shrinks the demo so tests/test_examples.py
#: can run every example as a fast subprocess smoke test.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE") == "tiny"
N = 512 if TINY else 20_000


def users_filter() -> PointTCF:
    """The growable tenant: resizes online as the key space expands."""
    return PointTCF(1024, auto_resize=True)


def tickets_filter() -> PointTCF:
    """A deliberately fixed-capacity tenant: fills up and goes PARTIAL."""
    return PointTCF(256)


def main() -> None:
    print("=== the fault-tolerant filter service ===")
    with tempfile.TemporaryDirectory() as workdir:
        snapshots = os.path.join(workdir, "snapshots")
        journal = os.path.join(workdir, "journal")
        registry = FilterRegistry(snapshots)
        # A seeded injector crashes ~20% of batch attempts before any filter
        # mutation; the service's backoff retries absorb every crash.
        injector = FaultInjector(FaultConfig(seed=11, worker_crash_rate=0.2))
        config = ServiceConfig(max_workers=2, max_attempts=6)
        service = FilterService(
            registry, config, journal_dir=journal, fault_injector=injector
        )
        service.register_filter("users", users_filter)
        service.register_filter("tickets", tickets_filter)

        # --- async bulk jobs -------------------------------------------------
        keys = np.arange(2, 2 + N, dtype=np.uint64)
        rid = service.submit("users", "insert", keys, request_id="load-users")
        print(f"submitted {N:,} inserts as {rid!r} "
              f"(status right away: {service.status(rid).value})")
        result = service.result(rid, timeout=60.0)
        print(f"insert finished: {result.status.value} after "
              f"{result.attempts} attempt(s), {result.n_ok:,}/{result.n_items:,} keys")

        hits = service.result(service.submit("users", "query", keys), timeout=60.0)
        print(f"query of the same keys: {int(hits.data.sum()):,}/{N:,} present")

        # --- partial success -------------------------------------------------
        burst = np.arange(2, 2 + 4 * N, dtype=np.uint64)
        partial = service.result(
            service.submit("tickets", "insert", burst), timeout=60.0
        )
        print(f"fixed-capacity tenant: {partial.status.value}, per-item mask acked "
              f"{partial.n_ok:,} of {partial.n_items:,} keys")

        # --- deadlines and idempotency --------------------------------------
        expired = service.result(
            service.submit("users", "query", keys, deadline_s=0.0), timeout=60.0
        )
        print(f"already-expired deadline: {expired.status.value} (zero effects)")
        again = service.submit("users", "insert", keys, request_id="load-users")
        print(f"resubmitting {again!r}: idempotent, original result returned "
              f"({service.result(again, timeout=1.0) is result})")
        crashes = injector.fired.get("worker_crash", 0)
        print(f"injected worker crashes absorbed by retries: {crashes}")

        # --- crash recovery --------------------------------------------------
        service.shutdown(wait=True)
        registry.flush()  # snapshot every tenant, as a checkpoint would
        recovered_registry = FilterRegistry(snapshots)
        recovered_registry.register_snapshot("users", users_filter)
        recovered_registry.register_snapshot("tickets", tickets_filter)
        recovered = FilterService.recover(recovered_registry, journal)
        recovered.drain(timeout=60.0)
        check = recovered.result(
            recovered.submit("users", "query", keys), timeout=60.0
        )
        print(f"after recovery from the journal: {int(check.data.sum()):,}/{N:,} acked "
              f"keys still present, finished results preloaded "
              f"({recovered.status('load-users').value})")
        recovered.shutdown(wait=True)


if __name__ == "__main__":
    main()
