"""A small bulk mutation costs what its batch touches, not the whole table.

Measured as allocation peaks (``tracemalloc``), which are deterministic,
instead of times.  A whole-table pass at these sizes allocates tens of MiB:
per-block free counts or a flat key array for the 2^22-slot TCF, dense
quotient-axis arrays and a full layout rewrite for the q=20 GQF.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.gqf import BulkGQF
from repro.core.tcf import BulkTCF

MiB = 1 << 20


def _keys(rng, n):
    return rng.integers(0, 2**63, size=n, dtype=np.uint64)


def _peak(call):
    """Peak bytes allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def tcf():
    rng = np.random.default_rng(31)
    filt = BulkTCF(1 << 22)
    filt.bulk_insert(_keys(rng, 200_000))
    return filt, rng


@pytest.fixture(scope="module")
def gqf():
    rng = np.random.default_rng(32)
    filt = BulkGQF(20, 8)
    filt.bulk_insert(_keys(rng, 1 << 19))
    return filt, rng


def test_small_tcf_insert_and_delete_stay_off_the_whole_table(tcf):
    filt, rng = tcf
    keys = _keys(rng, 256)
    n_items = filt.n_items
    assert _peak(lambda: filt.bulk_insert(keys)) <= 2 * MiB
    assert filt.n_items == n_items + 256
    assert _peak(lambda: filt.bulk_delete(keys)) <= 1 * MiB
    assert filt.n_items == n_items


def test_small_gqf_insert_and_delete_stay_off_the_whole_table(gqf):
    filt, rng = gqf
    keys = _keys(rng, 1024)
    total = filt.total_count
    assert _peak(lambda: filt.bulk_insert(keys)) <= 24 * MiB
    assert filt.total_count == total + 1024
    assert _peak(lambda: filt.bulk_delete(keys)) <= 24 * MiB
    assert filt.total_count == total
    filt.core.check_invariants()


def test_tcf_bulk_calls_hold_chunk_sized_working_memory():
    """A bulk TCF call walks its batch in fixed-size chunks: the query's peak
    grows by its bool result (plus slack) per extra probe, and an insert
    holds compact per-key arrays plus its one global sort."""
    rng = np.random.default_rng(33)
    filt = BulkTCF(1 << 20)
    keys = _keys(rng, int(0.9 * (1 << 20)))
    assert _peak(lambda: filt.bulk_insert(keys)) <= 56 * keys.size
    n = 200_000
    small, large = _keys(rng, n), _keys(rng, 4 * n)
    growth = _peak(lambda: filt.bulk_query(large)) - _peak(lambda: filt.bulk_query(small))
    assert growth <= 2 * (large.size - small.size)
