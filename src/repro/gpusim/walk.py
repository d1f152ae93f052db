"""Host-parallel chunk walk: a bulk kernel's independent parts on several cores.

A bulk kernel on the GPU runs its thread blocks concurrently.  Its host
stand-in walks the batch in chunks (the blocks' tiles) and, on a host with
several cores, splits each chunk across short-lived helper threads that
stand in for those concurrent blocks: NumPy releases the interpreter lock
inside the gathers and ufuncs a probe is made of, so the parts run at once.

The simulated event model is per kernel, not per host thread.  A helper
captures its part's events
(:meth:`~repro.gpusim.stats.StatsRecorder.capture`) and the calling thread
adds them to its open launch and sections once the part is done; events
are sums, so any split records exactly what the serial walk records.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from .stats import KernelStats, StatsRecorder

#: The smallest part a helper thread runs.  NumPy hands the interpreter lock
#: over after every call, so parts much smaller than this scaled poorly on a
#: 2-core host; with 64k-key chunks it also caps a walk at two threads, the
#: only width whose speed and memory have been measured.
_MIN_PART = 1 << 15


def host_threads() -> int:
    """The threads a walk may run at once: the cores this process may run on,
    less the process's other live threads, so that the process never runs
    more threads than cores.  A walk called from one of the service's
    workers thus starts no helper: the workers already fill the cores, and
    every helper arena would hold part temporaries for nothing."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, cores - threading.active_count() + 1)


def chunk_walk(
    n: int,
    chunk: int,
    fn: Callable[[int, int], None],
    recorder: StatsRecorder,
    after_round: Optional[Callable[[], None]] = None,
) -> None:
    """Run ``fn(lo, hi)`` over ``[0, n)``, about ``chunk`` items at a time.

    The range is cut into equal parts of at least ``chunk //``
    :func:`host_threads` and at least ``_MIN_PART`` items, and each round of
    parts that fits in one chunk runs at once: the calling thread runs the
    round's first part and helper threads the others.  Once the whole round
    is done, the calling thread runs ``after_round()``, if given.  So a
    round holds one chunk's working memory, a batch of one part starts no
    thread, and no thread outlives the call.  ``fn`` may read shared state
    but write only its own ``[lo, hi)`` part of the output.

    An exception raised in any part is re-raised on the calling thread once
    every thread has joined; later rounds do not run.
    """
    if n == 0:
        return
    threads = host_threads()
    part = max(1, chunk // threads, _MIN_PART)
    n_parts = max(1, n // part)
    width = min(threads, n_parts, max(1, chunk // part))
    edges = [n * i // n_parts for i in range(n_parts + 1)]

    def helper(lo: int, hi: int) -> KernelStats:
        with recorder.capture() as events:
            fn(lo, hi)
        return events

    # Workers start on the first submit, so a one-part round starts none.
    with ThreadPoolExecutor(max_workers=max(1, width - 1)) as pool:
        for r in range(0, n_parts, width):
            others = [
                pool.submit(helper, edges[i], edges[i + 1])
                for i in range(r + 1, min(r + width, n_parts))
            ]
            fn(edges[r], edges[r + 1])
            for future in others:
                recorder.add(**future.result().as_dict())
            if after_round is not None:
                after_round()
