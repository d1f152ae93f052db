"""Pinned table state and simulated events of small vectorised bulk-TCF calls.

A ``BulkTCF`` of 2^16 slots is filled to ~0.9 load, so small batches land in
full blocks and spill to their secondary blocks and the backing table.  The
digests and event counts below were recorded while each merge pass counted
the free slots of every block and each delete searched a whole-table key
array; any rewrite of those passes must reproduce them exactly: the same
slots and backing contents, the same per-kernel hardware events, the same
results.
"""

import hashlib

import numpy as np

from repro.core.tcf import BulkTCF
from repro.gpusim.stats import StatsRecorder


def _keys(rng, n):
    return rng.integers(0, 2**63, size=n, dtype=np.uint64)


def _state_digest(filt):
    h = hashlib.sha256()
    for name, arr in sorted(filt.snapshot_state().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _nonzero(stats):
    return {k: v for k, v in stats.as_dict().items() if v}


def _small_batch_script():
    rng = np.random.default_rng(20)
    filt = BulkTCF(1 << 16, recorder=StatsRecorder())
    base = _keys(rng, 60_000)
    results = [int(np.count_nonzero(filt.bulk_insert_mask(base)))]
    extra = _keys(rng, 2_000)
    results.append(filt.bulk_insert(extra[:64]))
    # Stored keys again (second copies) alongside new ones.
    results.append(filt.bulk_insert(np.concatenate([base[:40], extra[64:104]])))
    results.append(int(np.count_nonzero(filt.bulk_insert_mask(extra[104:360]))))
    # Duplicate requests, keys spilled to secondaries or the backing
    # table, and absent keys, in one unordered batch.
    doomed = np.concatenate([base[:200], base[100:140], extra[:300], _keys(rng, 60)])
    results.append(filt.bulk_delete(rng.permutation(doomed)))
    results.append(filt.bulk_delete(np.concatenate([base[:48], base[:48]])))
    results.append(int(np.count_nonzero(filt.bulk_query(np.concatenate([base, extra])))))
    return {
        "results": results,
        "state": _state_digest(filt),
        "n_items": filt.n_items,
        "total": _nonzero(filt.recorder.total),
        "kernels": [(k.name, _nonzero(k.stats)) for k in filt.kernels.kernels],
    }


EXPECTED = {
    "results": [60000, 64, 80, 256, 500, 40, 59862],
    "state": "74972937b0ad8879",
    "n_items": 59860,
    "total": {
        "cache_line_reads": 75835,
        "cache_line_writes": 2716,
        "coalesced_bytes_read": 7911328,
        "coalesced_bytes_written": 7911328,
        "shared_memory_accesses": 377728,
        "atomic_ops": 413,
        "instructions": 569754,
        "kernel_launches": 79,
        "items_sorted": 61704,
    },
    "kernels": [
        (
            "bulk_tcf_insert_pass1",
            {
                "cache_line_reads": 1024,
                "cache_line_writes": 1024,
                "shared_memory_accesses": 131072,
                "instructions": 65536,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_insert_pass2",
            {
                "cache_line_reads": 698,
                "cache_line_writes": 698,
                "shared_memory_accesses": 89344,
                "instructions": 44672,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_insert_pass1",
            {
                "cache_line_reads": 62,
                "cache_line_writes": 62,
                "shared_memory_accesses": 7936,
                "instructions": 3968,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_insert_pass2",
            {
                "cache_line_reads": 25,
                "cache_line_writes": 25,
                "shared_memory_accesses": 3200,
                "instructions": 1600,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_insert_pass1",
            {
                "cache_line_reads": 79,
                "cache_line_writes": 79,
                "shared_memory_accesses": 10112,
                "instructions": 5056,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_insert_pass2",
            {
                "cache_line_reads": 33,
                "cache_line_writes": 33,
                "shared_memory_accesses": 4224,
                "instructions": 2112,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_insert_pass1",
            {
                "cache_line_reads": 225,
                "cache_line_writes": 225,
                "shared_memory_accesses": 28800,
                "instructions": 14400,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_insert_pass2",
            {
                "cache_line_reads": 72,
                "cache_line_writes": 72,
                "shared_memory_accesses": 9216,
                "instructions": 4608,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_delete",
            {
                "cache_line_reads": 947,
                "cache_line_writes": 463,
                "coalesced_bytes_read": 1184,
                "coalesced_bytes_written": 1184,
                "shared_memory_accesses": 80896,
                "atomic_ops": 37,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_delete",
            {
                "cache_line_reads": 232,
                "cache_line_writes": 35,
                "coalesced_bytes_read": 160,
                "coalesced_bytes_written": 160,
                "shared_memory_accesses": 12928,
                "atomic_ops": 5,
                "kernel_launches": 1,
            },
        ),
        (
            "bulk_tcf_query",
            {"cache_line_reads": 67966, "instructions": 391962, "kernel_launches": 1},
        ),
    ],
}


def test_small_batches_match_pinned_state_and_events():
    assert _small_batch_script() == EXPECTED
