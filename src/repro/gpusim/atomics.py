"""CUDA-style atomic operations on simulated device arrays.

The point APIs of both the TCF and the GQF are built on atomics:

* the TCF writes fingerprints with ``atomicCAS`` after a cooperative-group
  ballot elects a leader (Algorithm 1 in the paper);
* the Bloom filter sets bits with ``atomicOr``;
* the point GQF acquires cache-aligned region locks with ``atomicCAS`` /
  ``atomicExch``.

The simulator is single-threaded, so the atomics always observe a consistent
memory state, but the *event* (one global atomic per call, plus retries when
the comparison fails) is recorded because atomic throughput and CAS retries
are first-order terms in the performance model.
"""

from __future__ import annotations

import numpy as np

from .memory import DeviceArray

#: Maximum failed attempts one lock acquisition can accumulate before the
#: simulated thread wins anyway (bounds the geometric contention draw).
LOCK_THRASH_CAP = 64
#: Ceiling on the per-attempt conflict probability (keeps the geometric
#: contention draw finite even for degenerate configurations).
MAX_CONTENTION_PROBABILITY = 0.999


def atomic_cas(array: DeviceArray, index: int, expected, desired) -> tuple[bool, int]:
    """Compare-and-swap on ``array[index]``.

    Returns ``(swapped, old_value)``.  The access itself counts as one atomic
    operation plus one cache-line read (the returned old value); a failed
    comparison additionally counts as a CAS retry, which the perf model
    penalises (this is how the 12-bit TCF variants become slower than the
    16-bit variants in Figure 5).
    """
    array.recorder.add(atomic_ops=1, coalesced_bytes_read=32)
    old = array.data[index]
    dtype = array.data.dtype
    if old == dtype.type(expected):
        array.recorder.add(coalesced_bytes_written=32)
        array.data[index] = dtype.type(desired)
        return True, int(old)
    array.recorder.add(cas_retries=1)
    return False, int(old)


def atomic_exch(array: DeviceArray, index: int, value) -> int:
    """Atomically exchange ``array[index]`` with ``value``; returns the old value."""
    array.recorder.add(atomic_ops=1, coalesced_bytes_read=32, coalesced_bytes_written=32)
    old = array.data[index]
    array.data[index] = array.data.dtype.type(value)
    return int(old)


def atomic_or(array: DeviceArray, index: int, mask) -> int:
    """Atomic bitwise OR; returns the previous value."""
    array.recorder.add(atomic_ops=1, coalesced_bytes_read=32, coalesced_bytes_written=32)
    old = array.data[index]
    array.data[index] = old | array.data.dtype.type(mask)
    return int(old)


def atomic_and(array: DeviceArray, index: int, mask) -> int:
    """Atomic bitwise AND; returns the previous value."""
    array.recorder.add(atomic_ops=1, coalesced_bytes_read=32, coalesced_bytes_written=32)
    old = array.data[index]
    array.data[index] = old & array.data.dtype.type(mask)
    return int(old)


class SpinLockTable:
    """A table of cache-aligned spin locks backed by ``atomicCAS``.

    The point GQF divides its slots into 8192-slot regions and associates a
    lock with each region.  The paper pads each lock to its own cache line to
    avoid 1024 locks sharing one line and thrashing; we model both layouts so
    the ablation benchmark can demonstrate why cache-aligned locks matter.

    Because the simulator is single-threaded, a lock can never be *observed*
    held by another thread within one call chain; instead the caller can
    inject expected contention probabilities (derived from the number of
    concurrently scheduled threads and the number of locks) so the perf model
    sees realistic lock-thrash counts.
    """

    def __init__(
        self,
        n_locks: int,
        recorder,
        cache_aligned: bool = True,
        cache_line_bytes: int = 128,
        contention_probability: float = 0.0,
        seed: int = 0x5EED,
    ) -> None:
        if n_locks <= 0:
            raise ValueError("need at least one lock")
        self.n_locks = int(n_locks)
        self.cache_aligned = bool(cache_aligned)
        self.cache_line_bytes = int(cache_line_bytes)
        # A cache-aligned lock table stores one 32-bit word per line; a packed
        # table stores one bit per lock.
        if cache_aligned:
            stride = cache_line_bytes // 4
            self.words = DeviceArray(
                self.n_locks * stride, np.uint32, recorder, cache_line_bytes,
                name="lock-table-aligned",
            )
            self._stride = stride
        else:
            nwords = (self.n_locks + 31) // 32
            self.words = DeviceArray(
                max(1, nwords), np.uint32, recorder, cache_line_bytes,
                name="lock-table-packed",
            )
            self._stride = 0
        self.recorder = recorder
        self.contention_probability = float(contention_probability)
        self._rng = np.random.default_rng(seed)
        self._held: set[int] = set()

    @property
    def nbytes(self) -> int:
        """Bytes of device memory used by the lock table."""
        return self.words.nbytes

    def _simulate_contention(self, lock_id: int) -> int:
        """Return the number of failed attempts before acquisition."""
        failures = 0
        if self.contention_probability > 0.0:
            # Geometric number of failures with probability p of conflicting.
            p = min(MAX_CONTENTION_PROBABILITY, self.contention_probability)
            while self._rng.random() < p:
                failures += 1
                if failures >= LOCK_THRASH_CAP:
                    break
        return failures

    def contention_failures_batch(self, n_calls: int) -> int:
        """Total thrash attempts for ``n_calls`` back-to-back :meth:`lock` calls.

        Consumes the generator stream *exactly* as ``n_calls`` sequential
        :meth:`_simulate_contention` calls would (NumPy generators produce the
        identical value sequence whether drawn one at a time or as a chunk),
        so a batched replay records the same failure total and leaves the
        generator in the same state as per-item locking.  Each chunk of draws
        is parsed into per-call segments: a draw >= p ends the call it belongs
        to, and a run of ``LOCK_THRASH_CAP`` consecutive failing draws ends a
        call at the thrash cap.  A chunk of ``remaining`` draws can complete
        at most ``remaining`` calls and never consumes a draw past the last
        needed call, so the stream position always matches the sequential
        loop.
        """
        p = min(MAX_CONTENTION_PROBABILITY, self.contention_probability)
        if p <= 0.0 or n_calls <= 0:
            return 0
        cap = LOCK_THRASH_CAP
        total = 0
        remaining = int(n_calls)
        carry = 0  # failures already drawn for the call in progress
        while remaining > 0:
            draws = self._rng.random(remaining)
            fails = draws < p
            total += int(np.count_nonzero(fails))
            successes = np.flatnonzero(~fails)
            if successes.size == 0:
                completed = (carry + fails.size) // cap
                carry = (carry + fails.size) % cap
            else:
                # Failing-run length before each success (first run resumes
                # the carried-over call), plus the trailing failing run.
                gaps = np.diff(np.concatenate(([-1], successes))) - 1
                gaps[0] += carry
                tail = fails.size - int(successes[-1]) - 1
                completed = int((gaps // cap).sum()) + successes.size + tail // cap
                carry = tail % cap
            remaining -= completed
        return total

    def lock_unlock_batch(self, n_calls: int) -> int:
        """Charge the events of ``n_calls`` lock+unlock pairs in one replay.

        The batched point paths hold each region lock only across one item's
        operation, so the final lock-table state (everything released) equals
        the initial state and only the events need recording: per call, the
        contention stream (identical generator consumption to sequential
        :meth:`lock` calls), one atomic to acquire, one to release, and the
        acquisition count.  Returns the simulated thrash total.
        """
        if n_calls <= 0:
            return 0
        failures = self.contention_failures_batch(n_calls)
        if failures:
            self.recorder.add(
                lock_failures=failures,
                atomic_ops=failures,
                cache_line_reads=failures,
            )
        self.recorder.add(
            atomic_ops=2 * n_calls,
            coalesced_bytes_read=32 * 2 * n_calls,
            coalesced_bytes_written=32 * 2 * n_calls,
            lock_acquisitions=n_calls,
        )
        return failures

    def lock(self, lock_id: int) -> int:
        """Acquire a lock; returns the number of thrash (failed) attempts."""
        if not 0 <= lock_id < self.n_locks:
            raise IndexError(f"lock id {lock_id} out of range 0..{self.n_locks - 1}")
        if lock_id in self._held:
            raise RuntimeError(f"lock {lock_id} already held (deadlock)")
        failures = self._simulate_contention(lock_id)
        if failures:
            self.recorder.add(
                lock_failures=failures,
                atomic_ops=failures,
                cache_line_reads=failures,
            )
        if self.cache_aligned:
            atomic_exch(self.words, lock_id * self._stride, 1)
        else:
            word, bit = divmod(lock_id, 32)
            atomic_or(self.words, word, np.uint32(1) << np.uint32(bit))
        self.recorder.add(lock_acquisitions=1)
        self._held.add(lock_id)
        return failures

    def unlock(self, lock_id: int) -> None:
        """Release a previously acquired lock."""
        if lock_id not in self._held:
            raise RuntimeError(f"lock {lock_id} not held")
        if self.cache_aligned:
            atomic_exch(self.words, lock_id * self._stride, 0)
        else:
            word, bit = divmod(lock_id, 32)
            atomic_and(self.words, word, ~(np.uint32(1) << np.uint32(bit)) & np.uint32(0xFFFFFFFF))
        self._held.discard(lock_id)

    @property
    def held_locks(self) -> frozenset[int]:
        """The set of currently held lock ids."""
        return frozenset(self._held)
