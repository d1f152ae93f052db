"""Tests for shared-memory staging tiles."""

import numpy as np
import pytest

from repro.gpusim.memory import DeviceArray
from repro.gpusim.sharedmem import SharedMemoryTile


@pytest.fixture
def arr(recorder):
    a = DeviceArray(256, np.uint16, recorder)
    a.data[:] = np.arange(256, dtype=np.uint16)
    return a


class TestSharedMemoryTile:
    def test_load_is_coalesced(self, arr, recorder):
        reads_before = recorder.total.cache_line_reads
        SharedMemoryTile(arr, 0, 64)
        assert recorder.total.cache_line_reads == reads_before + 1

    def test_read_write_through_tile(self, arr, recorder):
        tile = SharedMemoryTile(arr, 0, 8)
        assert int(tile.read(3)) == 3
        tile.write(3, 99)
        assert int(tile.read(3)) == 99
        # Global memory untouched until flush.
        assert int(arr.peek(3)) == 3
        tile.flush()
        assert int(arr.peek(3)) == 99

    def test_flush_only_when_dirty(self, arr, recorder):
        tile = SharedMemoryTile(arr, 0, 64)
        writes_before = recorder.total.cache_line_writes
        tile.flush()  # clean tile: no write-back
        assert recorder.total.cache_line_writes == writes_before

    def test_context_manager_flushes_on_exit(self, arr):
        with SharedMemoryTile(arr, 10, 20) as tile:
            tile.write(0, 500)
        assert int(arr.peek(10)) == 500

    def test_context_manager_skips_flush_on_error(self, arr):
        with pytest.raises(RuntimeError):
            with SharedMemoryTile(arr, 10, 20) as tile:
                tile.write(0, 77)
                raise RuntimeError("boom")
        assert int(arr.peek(10)) == 10  # unchanged

    def test_replace_whole_tile(self, arr):
        with SharedMemoryTile(arr, 0, 4) as tile:
            tile.replace(np.array([9, 8, 7, 6], dtype=np.uint16))
        assert list(arr.peek()[:4]) == [9, 8, 7, 6]

    def test_replace_wrong_size_rejected(self, arr):
        tile = SharedMemoryTile(arr, 0, 4)
        with pytest.raises(ValueError):
            tile.replace(np.array([1, 2, 3], dtype=np.uint16))

    def test_bad_range_rejected(self, arr):
        with pytest.raises(IndexError):
            SharedMemoryTile(arr, 10, 5)
        with pytest.raises(IndexError):
            SharedMemoryTile(arr, 0, 10_000)
