"""Tests for simulated device memory and the allocator."""

import numpy as np
import pytest

from repro.gpusim.memory import DeviceAllocator, DeviceArray


class TestDeviceArrayBasics:
    def test_shape_and_fill(self, recorder):
        arr = DeviceArray(100, np.uint16, recorder, fill=7)
        assert arr.size == 100
        assert arr.itemsize == 2
        assert arr.nbytes == 200
        assert int(arr.peek(0)) == 7

    def test_slots_per_line(self, recorder):
        arr16 = DeviceArray(10, np.uint16, recorder)
        arr64 = DeviceArray(10, np.uint64, recorder)
        assert arr16.slots_per_line == 64
        assert arr64.slots_per_line == 16

    def test_line_of(self, recorder):
        arr = DeviceArray(1000, np.uint16, recorder)
        assert arr.line_of(0) == 0
        assert arr.line_of(63) == 0
        assert arr.line_of(64) == 1

    def test_lines_in_range(self, recorder):
        arr = DeviceArray(1000, np.uint16, recorder)
        assert arr.lines_in_range(0, 64) == 1
        assert arr.lines_in_range(0, 65) == 2
        assert arr.lines_in_range(10, 10) == 0


class TestAccountedAccesses:
    def test_single_read_counts_one_line(self, recorder):
        arr = DeviceArray(256, np.uint16, recorder)
        arr.read(5)
        assert recorder.total.cache_line_reads == 1

    def test_single_write_counts_one_line(self, recorder):
        arr = DeviceArray(256, np.uint16, recorder)
        arr.write(5, 42)
        assert recorder.total.cache_line_writes == 1
        assert int(arr.peek(5)) == 42

    def test_read_range_coalesces_to_line_count(self, recorder):
        arr = DeviceArray(1024, np.uint16, recorder)
        arr.read_range(0, 64)  # exactly one line of 16-bit slots
        assert recorder.total.cache_line_reads == 1
        arr.read_range(0, 200)  # spans four lines
        assert recorder.total.cache_line_reads == 1 + 4

    def test_write_range_counts_lines_and_stores(self, recorder):
        arr = DeviceArray(1024, np.uint16, recorder)
        arr.write_range(10, np.arange(5, dtype=np.uint16))
        assert recorder.total.cache_line_writes == 1
        assert np.array_equal(arr.peek()[10:15], np.arange(5))

    def test_peek_does_not_count(self, recorder):
        arr = DeviceArray(64, np.uint16, recorder)
        arr.peek()
        arr.peek(3)
        assert recorder.total.cache_line_reads == 0


class TestDeviceAllocator:
    def test_register_and_total(self):
        alloc = DeviceAllocator()
        alloc.register("tcf", 1000)
        alloc.register("table", 2000)
        assert alloc.total_bytes == 3000
        assert alloc.report() == {"tcf": 1000, "table": 2000}

    def test_register_accumulates_same_label(self):
        alloc = DeviceAllocator()
        alloc.register("x", 10)
        alloc.register("x", 5)
        assert alloc.total_bytes == 15

    def test_release(self):
        alloc = DeviceAllocator()
        alloc.register("x", 10)
        alloc.release("x")
        assert alloc.total_bytes == 0

    def test_capacity_enforced(self):
        alloc = DeviceAllocator(capacity_bytes=100)
        alloc.register("a", 80)
        with pytest.raises(MemoryError):
            alloc.register("b", 50)

    def test_negative_size_rejected(self):
        alloc = DeviceAllocator()
        with pytest.raises(ValueError):
            alloc.register("a", -1)
