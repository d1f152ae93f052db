"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bloom import BitArrayFilter
from repro.baselines.cpu_vqf import CPUVectorQuotientFilter
from repro.core.exceptions import FilterFullError
from repro.core.tcf import BulkTCF, PointTCF
from repro.gpusim.stats import StatsRecorder
from repro.hashing.xorwow import generate_disjoint_keys, generate_keys


@pytest.fixture
def recorder() -> StatsRecorder:
    """A fresh stats recorder."""
    return StatsRecorder()


@pytest.fixture(scope="session")
def keys_1k() -> np.ndarray:
    """1024 pseudo-random 64-bit keys (session-scoped: generation is pure)."""
    return generate_keys(1024, seed=0xFEED)


@pytest.fixture(scope="session")
def keys_4k() -> np.ndarray:
    """4096 pseudo-random 64-bit keys."""
    return generate_keys(4096, seed=0xBEEF)


@pytest.fixture(scope="session")
def negative_keys_1k(keys_4k) -> np.ndarray:
    """1024 keys guaranteed disjoint from ``keys_4k`` (and ``keys_1k``)."""
    return generate_disjoint_keys(1024, seed=0x0DD, avoid=keys_4k)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy RNG for test-local randomness."""
    return np.random.default_rng(12345)


def _bulk_kernel_name(filt, op):
    """The name of the kernel launch ``filt``'s bulk ``op`` opens."""
    if isinstance(filt, BitArrayFilter):
        return f"{filt.LAUNCH_PREFIX}_bulk_{op}"
    if isinstance(filt, CPUVectorQuotientFilter):
        return f"cpu_vqf_{op}"
    prefix = "tcf_point_bulk" if isinstance(filt, PointTCF) else "bulk_tcf"
    return f"{prefix}_{op}"


def _try_insert(filt, key: int) -> bool:
    try:
        return filt.insert(key)
    except FilterFullError:
        return False


def _per_item_bulk(filt, op: str, keys):
    keys = np.asarray(keys, dtype=np.uint64)
    if isinstance(filt, BulkTCF) and op == "insert":
        values = np.zeros(keys.size, dtype=np.uint64)
        h = filt._derive_batch(keys)
        words = filt._pack_words(h.fingerprint, values)
        return filt._bulk_insert_sequential(keys, values, h, words)
    with filt.kernels.launch(_bulk_kernel_name(filt, op)):
        if op == "insert":
            return np.array([_try_insert(filt, k) for k in keys.tolist()], dtype=bool)
        if op == "query":
            if isinstance(filt, BulkTCF):
                # BulkTCF.query opens a launch of its own; get_value is its probe.
                return np.array([filt.get_value(k) is not None for k in keys.tolist()])
            return np.array([filt.query(k) for k in keys.tolist()], dtype=bool)
        return sum(filt.delete(k) for k in keys.tolist())


@pytest.fixture(scope="session")
def per_item_bulk():
    """The per-item reference of the batch-only bulk calls.

    ``per_item_bulk(filt, op, keys)`` runs ``op`` (``"insert"``, ``"query"``
    or ``"delete"``) on a Bloom filter, blocked Bloom filter, CPU VQF or
    point TCF once per key through its point method, inside the kernel
    launch the bulk call opens, and returns what the bulk call returns
    (``bulk_insert_mask``'s mask, ``bulk_query``'s hits, ``bulk_delete``'s
    count).  A ``BulkTCF`` probes with ``get_value`` and deletes with
    ``delete`` the same way, and inserts through ``_bulk_insert_sequential``:
    its point insert is a one-key bulk merge.
    """
    return _per_item_bulk
