"""Time/size-windowed batch coalescing.

Many small client jobs against the same filter are far cheaper executed as
one vectorised bulk call than as many tiny ones, so the service funnels
submissions through this batcher: jobs targeting the same ``(filter, op)``
pair accumulate in an open batch until either

* the batch reaches ``max_batch_keys`` total keys or ``max_batch_jobs``
  jobs (size trigger, returned by :meth:`add`), or
* an idle worker pulls it with :meth:`take_due` once ``window_s`` has
  elapsed since the batch was opened (time trigger).

An open batch whose window has expired keeps collecting jobs until a worker
is free to take it, so a busy pool makes batches larger, not later.

The batcher is a pure data structure — no threads, no clocks of its own —
so its coalescing behaviour is deterministic and directly unit-testable;
the service guards it with its lock and feeds it ``now`` timestamps.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .jobs import Job

_batch_seq = itertools.count()


@dataclass
class Batch:
    """A group of same-``(filter, op)`` jobs executed as one bulk call."""

    filter_name: str
    op: str
    jobs: List[Job] = field(default_factory=list)
    opened_at: float = 0.0
    seq: int = field(default_factory=lambda: next(_batch_seq))
    #: Execution attempts so far (shared by every job riding the batch).
    attempts: int = 0
    #: Capacity expansions already performed on behalf of this batch.
    expands: int = 0

    @property
    def n_keys(self) -> int:
        return sum(job.n_items for job in self.jobs)

    def token(self) -> str:
        """Stable fault/backoff token for the current attempt.

        Derived from the member request IDs (not the arrival-order seq), so
        a given set of jobs sees the same injected-fault schedule however
        the batcher happened to group them or the workers to time them.
        """
        digest = zlib.crc32("|".join(j.request_id for j in self.jobs).encode())
        return f"{self.filter_name}:{self.op}:{digest:08x}#{self.attempts}"


class WindowedBatcher:
    """Coalesces jobs into :class:`Batch` es bounded by time and size."""

    def __init__(
        self,
        window_s: float = 0.002,
        max_batch_keys: int = 65536,
        max_batch_jobs: int = 32,
    ) -> None:
        self.window_s = float(window_s)
        self.max_batch_keys = int(max_batch_keys)
        self.max_batch_jobs = int(max_batch_jobs)
        self._open: Dict[Tuple[str, str], Batch] = {}

    def add(self, job: Job, now: float) -> Optional[Batch]:
        """Buffer ``job``; returns a batch if the size trigger fired."""
        key = (job.filter_name, job.op)
        batch = self._open.get(key)
        if batch is None:
            batch = Batch(filter_name=job.filter_name, op=job.op, opened_at=now)
            self._open[key] = batch
        batch.jobs.append(job)
        if batch.n_keys >= self.max_batch_keys or len(batch.jobs) >= self.max_batch_jobs:
            del self._open[key]
            return batch
        return None

    def take_due(self, now: float) -> Optional[Batch]:
        """Close and return the oldest open batch whose window has expired.

        ``now=math.inf`` takes any open batch (the shutdown path).
        """
        if not self._open:
            return None
        key, batch = min(self._open.items(), key=lambda item: item[1].opened_at)
        if batch.opened_at + self.window_s > now:
            return None
        del self._open[key]
        return batch

    def next_due(self) -> Optional[float]:
        """Earliest instant at which an open batch's window expires."""
        if not self._open:
            return None
        return min(batch.opened_at for batch in self._open.values()) + self.window_s
