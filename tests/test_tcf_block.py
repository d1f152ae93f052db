"""Tests for cooperative-group block operations (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.core.tcf.block import BlockedTable
from repro.core.tcf.config import TCFConfig


@pytest.fixture
def table(recorder):
    return BlockedTable(8, TCFConfig(fingerprint_bits=16, block_size=16, cg_size=4), recorder)


class TestBlockedTableBasics:
    def test_sizes(self, table):
        assert table.n_slots == 8 * 16
        assert table.nbytes == 8 * 16 * 2

    def test_block_bounds(self, table):
        assert table.block_bounds(0) == (0, 16)
        assert table.block_bounds(3) == (48, 64)
        with pytest.raises(IndexError):
            table.block_bounds(8)

    def test_pack_unpack_without_values(self, table):
        word = table.pack(1234)
        assert table.unpack(word) == (1234, 0)

    def test_pack_unpack_with_values(self, recorder):
        config = TCFConfig(fingerprint_bits=16, block_size=16, value_bits=8)
        table = BlockedTable(4, config, recorder)
        word = table.pack(500, 77)
        assert table.unpack(word) == (500, 77)


class TestBlockInsertQueryDelete:
    def test_insert_then_query(self, table):
        assert table.insert(2, 999)
        assert table.contains(2, 999)
        assert not table.contains(2, 1000)
        assert not table.contains(3, 999)

    def test_insert_returns_false_when_block_full(self, table):
        for fp in range(2, 2 + 16):
            assert table.insert(0, fp)
        assert not table.insert(0, 5000)

    def test_fill_counts_live_slots(self, table):
        assert table.block_fill(1) == 0
        table.insert(1, 100)
        table.insert(1, 101)
        assert table.block_fill(1) == 2

    def test_delete_tombstones_one_copy(self, table):
        table.insert(4, 321)
        assert table.delete(4, 321)
        assert not table.contains(4, 321)
        assert not table.delete(4, 321)

    def test_tombstone_slot_is_reusable(self, table):
        for fp in range(2, 18):
            table.insert(5, fp)
        assert not table.insert(5, 5000)
        assert table.delete(5, 7)
        assert table.insert(5, 5000)
        assert table.contains(5, 5000)

    def test_duplicate_fingerprints_occupy_two_slots(self, table):
        table.insert(6, 42)
        table.insert(6, 42)
        assert table.block_fill(6) == 2
        assert table.delete(6, 42)
        assert table.contains(6, 42)  # one copy remains

    def test_query_returns_value(self, recorder):
        config = TCFConfig(fingerprint_bits=16, block_size=16, value_bits=4)
        table = BlockedTable(4, config, recorder)
        table.insert(0, 300, value=9)
        assert table.query(0, 300) == 9

    def test_insert_counts_cas_and_line_read(self, table, recorder):
        recorder.reset()
        table.insert(0, 77)
        assert recorder.total.atomic_ops >= 1
        assert recorder.total.cache_line_reads >= 1

    def test_query_touches_one_line(self, table, recorder):
        table.insert(0, 77)
        recorder.reset()
        table.query(0, 77)
        assert recorder.total.cache_line_reads == 1
        assert recorder.total.cache_line_writes == 0


class TestEnumerationAndFills:
    def test_live_count_and_fills(self, table):
        for fp in range(2, 7):
            table.insert(1, fp)
        fills = table.fills()
        assert fills[1] == 5
        assert fills.sum() == 5

    def test_empty_and_tombstone_not_counted(self, table):
        table.insert(2, 50)
        table.delete(2, 50)
        assert table.fills().sum() == 0


class TestRowLowerBound:
    @pytest.mark.parametrize("block_size", [1, 2, 3, 5, 12, 16, 64])
    def test_matches_per_row_searchsorted(self, block_size, recorder, rng):
        config = TCFConfig(fingerprint_bits=8, block_size=block_size, cg_size=1)
        table = BlockedTable(37, config, recorder)
        rows = table.rows()
        rows[:] = rng.integers(0, 2**8, rows.shape, dtype=rows.dtype)
        rows.sort(axis=1)
        blocks = rng.integers(0, table.n_blocks, 2000)
        # Probe below, inside and above every row's range (incl. wide targets).
        words = rng.integers(0, 2**8 + 2, blocks.size).astype(np.uint64)
        words[::50] = np.uint64(2**63 + 5)
        before = recorder.total.copy()
        got = table.row_lower_bound(blocks, words)
        want = [
            b * block_size + np.searchsorted(rows[b], w, side="left")
            for b, w in zip(blocks, words)
        ]
        assert np.array_equal(got, want)
        # Host-side helper: callers charge the probe traffic.
        assert recorder.total == before
