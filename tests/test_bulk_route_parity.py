"""Every bulk call of the batch-only filters matches the per-item reference.

The Bloom pair, the CPU VQF and both TCFs route by API, not by batch size:
each bulk call takes the design's batch path whatever its size, and the
point methods are the per-item reference.  This pins the two together on
loaded tables at batch sizes around the old 32-key crossover: the same
results, ``snapshot_state()`` arrays, recorder totals and kernel records.
The reference (the ``per_item_bulk`` fixture) loops the point method inside
the launch the bulk call opens; the bulk TCF's insert reference is
``_bulk_insert_sequential``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.blocked_bloom import BlockedBloomFilter
from repro.baselines.bloom import BloomFilter
from repro.baselines.cpu_vqf import CPUVectorQuotientFilter
from repro.core.exceptions import UnsupportedOperationError
from repro.core.tcf import BulkTCF, PointTCF, TCFConfig

#: 36-bit slot words: (block, word) sort keys do not pack into 64 bits, so
#: the bulk TCF inserts and deletes per item and queries in batch.
WIDE_CONFIG = TCFConfig(fingerprint_bits=16, block_size=16, cg_size=16, value_bits=20)

#: name -> (fresh filter, keys preloaded before the call under test)
BUILDERS = {
    "bloom": (lambda: BloomFilter.for_capacity(2_048), 1_800),
    "blocked-bloom": (lambda: BlockedBloomFilter.for_capacity(2_048), 1_800),
    "cpu-vqf": (lambda: CPUVectorQuotientFilter(2_048), 1_700),
    "point-tcf": (lambda: PointTCF(2_048), 1_780),
    "bulk-tcf": (lambda: BulkTCF(2_048), 1_780),
    "bulk-tcf-wide": (lambda: BulkTCF(2_048, WIDE_CONFIG), 1_400),
}

SIZES = (1, 2, 31, 32, 33)


def _loaded_pair(name):
    factory, n_loaded = BUILDERS[name]
    stored = np.random.default_rng(1).integers(0, 2**63, size=n_loaded, dtype=np.uint64)
    pair = (factory(), factory())
    for filt in pair:
        filt.bulk_insert(stored)
    return pair, stored


def _batch(op, size, stored):
    """Fresh keys to insert; else a mix of stored and absent keys, with repeats."""
    rng = np.random.default_rng(size)
    fresh = rng.integers(0, 2**63, size=size, dtype=np.uint64)
    if op == "insert":
        return fresh
    return rng.choice(np.concatenate([stored[: 2 * size], fresh]), size=size)


def _observe(filt):
    return (
        filt.snapshot_state(),
        filt.recorder.total.as_dict(),
        [(k.name, k.stats.as_dict()) for k in filt.kernels.kernels],
    )


@pytest.mark.parametrize("op", ["insert", "query", "delete"])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_bulk_call_matches_per_item_reference(name, size, op, per_item_bulk):
    (bulk, reference), stored = _loaded_pair(name)
    keys = _batch(op, size, stored)
    if op == "delete" and not bulk.capabilities().bulk_delete:
        for filt in (bulk, reference):
            with pytest.raises(UnsupportedOperationError):
                filt.bulk_delete(keys)
        return
    call = {
        "insert": bulk.bulk_insert_mask,
        "query": bulk.bulk_query,
        "delete": bulk.bulk_delete,
    }[op]
    got = call(keys)
    expected = per_item_bulk(reference, op, keys)
    assert np.array_equal(got, expected)
    state, totals, kernels = _observe(bulk)
    ref_state, ref_totals, ref_kernels = _observe(reference)
    assert state.keys() == ref_state.keys()
    for section in state:
        assert np.array_equal(state[section], ref_state[section]), section
    assert totals == ref_totals
    assert kernels == ref_kernels


@pytest.mark.parametrize(
    "call", ["bulk_insert", "bulk_insert_mask", "bulk_query", "bulk_delete"]
)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_an_empty_batch_launches_and_records_nothing(name, call):
    factory, n_loaded = BUILDERS[name]
    filt = factory()
    if call == "bulk_delete" and not filt.capabilities().bulk_delete:
        pytest.skip(f"the {filt.name} refuses bulk delete")
    filt.bulk_insert(np.random.default_rng(1).integers(0, 2**63, size=n_loaded, dtype=np.uint64))
    state, totals, kernels = _observe(filt)
    result = getattr(filt, call)(np.zeros(0, dtype=np.uint64))
    if call in ("bulk_insert", "bulk_delete"):
        assert result == 0
    else:
        assert result.shape == (0,)
        assert result.dtype == bool
    after, after_totals, after_kernels = _observe(filt)
    for section in state:
        assert np.array_equal(state[section], after[section]), section
    assert after_totals == totals
    assert after_kernels == kernels
