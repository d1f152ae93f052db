"""Tests for CUDA-style atomics and the spin-lock table."""

import numpy as np
import pytest

from repro.gpusim.atomics import SpinLockTable, atomic_and, atomic_cas, atomic_exch, atomic_or
from repro.gpusim.memory import DeviceArray


@pytest.fixture
def arr(recorder):
    return DeviceArray(64, np.uint32, recorder)


class TestAtomicOperations:
    def test_cas_success(self, arr, recorder):
        swapped, old = atomic_cas(arr, 3, 0, 99)
        assert swapped and old == 0
        assert int(arr.peek(3)) == 99
        assert recorder.total.atomic_ops == 1
        assert recorder.total.cas_retries == 0

    def test_cas_failure_counts_retry(self, arr, recorder):
        arr.data[3] = 5
        swapped, old = atomic_cas(arr, 3, 0, 99)
        assert not swapped and old == 5
        assert int(arr.peek(3)) == 5
        assert recorder.total.cas_retries == 1

    def test_exch(self, arr):
        arr.data[0] = 7
        old = atomic_exch(arr, 0, 11)
        assert old == 7 and int(arr.peek(0)) == 11

    def test_or_and(self, arr):
        atomic_or(arr, 1, 0b1010)
        assert int(arr.peek(1)) == 0b1010
        atomic_and(arr, 1, 0b0010)
        assert int(arr.peek(1)) == 0b0010

    def test_atomics_counted(self, arr, recorder):
        atomic_or(arr, 0, 1)
        atomic_and(arr, 1, 1)
        atomic_exch(arr, 2, 1)
        assert recorder.total.atomic_ops == 3


class TestSpinLockTable:
    def test_lock_unlock_cycle(self, recorder):
        locks = SpinLockTable(8, recorder)
        assert 3 not in locks.held_locks
        locks.lock(3)
        assert 3 in locks.held_locks
        locks.unlock(3)
        assert 3 not in locks.held_locks

    def test_lock_acquisition_counted(self, recorder):
        locks = SpinLockTable(8, recorder)
        locks.lock(0)
        assert recorder.total.lock_acquisitions == 1

    def test_double_lock_raises(self, recorder):
        locks = SpinLockTable(8, recorder)
        locks.lock(1)
        with pytest.raises(RuntimeError):
            locks.lock(1)

    def test_unlock_unheld_raises(self, recorder):
        locks = SpinLockTable(8, recorder)
        with pytest.raises(RuntimeError):
            locks.unlock(2)

    def test_out_of_range_lock_raises(self, recorder):
        locks = SpinLockTable(4, recorder)
        with pytest.raises(IndexError):
            locks.lock(4)

    def test_contention_generates_thrash_events(self, recorder):
        locks = SpinLockTable(4, recorder, contention_probability=0.9, seed=1)
        total_failures = 0
        for _ in range(50):
            total_failures += locks.lock(0)
            locks.unlock(0)
        assert total_failures > 0
        assert recorder.total.lock_failures == total_failures

    def test_no_contention_when_probability_zero(self, recorder):
        locks = SpinLockTable(4, recorder, contention_probability=0.0)
        assert locks.lock(0) == 0
        assert recorder.total.lock_failures == 0

    def test_cache_aligned_table_is_larger_than_packed(self, recorder):
        aligned = SpinLockTable(128, recorder, cache_aligned=True)
        packed = SpinLockTable(128, recorder, cache_aligned=False)
        assert aligned.nbytes > packed.nbytes

    def test_packed_lock_round_trip(self, recorder):
        locks = SpinLockTable(64, recorder, cache_aligned=False)
        locks.lock(33)
        assert 33 in locks.held_locks
        locks.unlock(33)
        assert 33 not in locks.held_locks

    def test_held_locks_view(self, recorder):
        locks = SpinLockTable(8, recorder)
        locks.lock(1)
        locks.lock(2)
        assert locks.held_locks == frozenset({1, 2})

    def test_needs_at_least_one_lock(self, recorder):
        with pytest.raises(ValueError):
            SpinLockTable(0, recorder)
