"""Deterministic, seedable fault injection for the filter service.

Chaos testing a threaded service is only useful if the fault schedule is
reproducible, so this injector derives every decision from a **stable hash**
of ``(seed, site, token)`` instead of shared RNG state: whatever order the
worker threads reach the injection sites in, the same job attempt sees the
same fault.  ``token`` is typically ``"<request-id>#<attempt>"``, which makes
retries see fresh (but still deterministic) coin flips.

Sites:

* ``worker_crash`` — raises :class:`WorkerCrashFault` at batch start,
  *before any filter mutation*, simulating a worker process dying; the
  service retries the whole batch safely.
* ``slow_batch`` — sleeps before execution, simulating a straggling or
  briefly hung worker; drives the deadline/latency paths.
* ``filter_full`` — raises :class:`FilterFullFault` before execution,
  simulating a storm of transient filter-full failures; the service retries
  the whole batch with the same backoff as a worker crash.
* ``torn_snapshot`` — truncates a snapshot file after it is written,
  simulating disk corruption between a save and a later restore; drives the
  registry's restore-failure handling.
* ``shard_worker_kill`` — instructs a sharded filter's worker process to
  ``os._exit`` before touching its segment, simulating a worker process
  dying (SIGKILL-style: no cleanup runs); drives the worker-replacement +
  retry path and the shared-memory leak guards.

The module also provides :func:`torn_snapshot_writes`, a context manager
that kills :func:`repro.lifecycle.snapshot.save_filter` mid-stream — the
harness behind the crash-safe-save test.
"""

from __future__ import annotations

import contextlib
import os
import time
import zlib
from dataclasses import dataclass
from typing import Dict

from .jobs import RETRYABLE_ERRORS


class InjectedFault(Exception):
    """Base class for all injected faults (never raised spontaneously)."""


class WorkerCrashFault(InjectedFault):
    """Simulates a worker dying before it touched the filter."""


class FilterFullFault(InjectedFault):
    """Simulates a transient filter-full failure before the filter was touched."""


class TornWriteFault(InjectedFault):
    """Simulates the process being killed in the middle of a file write."""


# Worker crashes and storms are transient by definition; register them with
# the job layer's retry classification (kept as a list there to avoid a
# dependency cycle between the job and fault modules).
RETRYABLE_ERRORS.extend((WorkerCrashFault, FilterFullFault))


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates (per batch attempt / per snapshot write), all default off."""

    seed: int = 0
    worker_crash_rate: float = 0.0
    slow_batch_rate: float = 0.0
    slow_batch_s: float = 0.002
    filter_full_rate: float = 0.0
    torn_snapshot_rate: float = 0.0
    shard_worker_kill_rate: float = 0.0


class FaultInjector:
    """Deterministic fault source driven by :class:`FaultConfig`.

    Thread-safe by construction: decisions are pure functions of
    ``(seed, site, token)``; only the fired-count tally is shared, and it is
    a plain int dict updated under the GIL.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.fired: Dict[str, int] = {}

    def _fire(self, site: str, token: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        digest = zlib.crc32(f"{self.config.seed}:{site}:{token}".encode())
        if digest / 2**32 >= rate:
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        return True

    def on_batch_start(self, token: str) -> None:
        """Injection site at the top of batch execution, before any mutation.

        Raising here is always safe to retry: the filter has not been
        touched, so a whole-batch re-execution cannot duplicate effects.
        """
        if self._fire("worker_crash", token, self.config.worker_crash_rate):
            raise WorkerCrashFault(f"injected worker crash ({token})")
        if self._fire("filter_full", token, self.config.filter_full_rate):
            raise FilterFullFault(f"injected filter-full storm ({token})")
        if self._fire("slow_batch", token, self.config.slow_batch_rate):
            time.sleep(self.config.slow_batch_s)

    def on_shard_task(self, token: str) -> bool:
        """Injection site before a shard task is sent to its worker.

        Returning True instructs the :class:`~repro.sharding.sharded.
        ShardedFilter` to have that worker ``os._exit`` before attaching the
        segment — a *real* process death (the worker is replaced), unlike
        ``worker_crash``'s in-thread exception.  The decision is made in the
        parent so the injector's tally stays in one process.
        """
        return self._fire(
            "shard_worker_kill", token, self.config.shard_worker_kill_rate
        )

    def on_snapshot_saved(self, token: str, path) -> bool:
        """Injection site after an eviction save: maybe tear the file.

        Returns True when the snapshot was torn (truncated to ~half), which
        a later restore must detect via the CRC and surface as a
        :class:`~repro.core.exceptions.SnapshotError`.
        """
        if not self._fire("torn_snapshot", token, self.config.torn_snapshot_rate):
            return False
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
        return True


#: A do-nothing injector for the clean-traffic path.
NO_FAULTS = FaultInjector(FaultConfig())


@contextlib.contextmanager
def torn_snapshot_writes(kill_after_bytes: int):
    """Kill every snapshot save mid-stream while the context is active.

    Patches the write seam of :mod:`repro.lifecycle.snapshot` so that only
    ``kill_after_bytes`` bytes reach the temp file before a
    :class:`TornWriteFault` aborts the save — the moral equivalent of
    ``kill -9`` between two ``write(2)`` calls.  Because the save path is
    atomic (temp file + rename), the destination must be untouched.
    """
    from ..lifecycle import snapshot as snapshot_module

    original = snapshot_module._write_stream

    def killed_write(fh, data: bytes) -> None:
        fh.write(data[:kill_after_bytes])
        fh.flush()
        raise TornWriteFault(
            f"injected kill after {kill_after_bytes} of {len(data)} bytes"
        )

    snapshot_module._write_stream = killed_write
    try:
        yield
    finally:
        snapshot_module._write_stream = original
