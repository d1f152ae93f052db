"""Deterministic key-to-shard routing.

A sharded filter must send every key to the same shard on every call, in
every process, forever — the routing function is part of the structure's
durable identity (it is recorded in snapshots).  The router therefore uses
a fixed, seedable **splitmix64** finalizer over the key, reduced modulo the
shard count.  Two properties matter:

* the mix is *independent* of the fingerprint hash the filters apply
  inside each shard (different constants, different construction), so
  routing cannot correlate with in-shard placement and skew a shard's
  fingerprint distribution;
* the whole batch routes as one vectorised pass — routing is on the bulk
  hot path and must not reintroduce a per-key loop.

``partition`` additionally produces the stable gather order that groups a
batch by shard while preserving the original intra-shard key order; the
order array doubles as the scatter index for returning per-shard results
to the caller's layout.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..gpusim.sorting import stable_argsort

#: Default router seed, mixed into every key before the finalizer.
DEFAULT_ROUTER_SEED = 0x5368617264464C74  # ascii "ShardFLt"

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def shard_ids(
    keys: np.ndarray, n_shards: int, seed: int = DEFAULT_ROUTER_SEED
) -> np.ndarray:
    """Return the shard index of every key (vectorised splitmix64 mix)."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_shards == 1:
        return np.zeros(np.asarray(keys).shape, dtype=np.int64)
    z = np.asarray(keys, dtype=np.uint64) ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z ^= z >> np.uint64(31)
    return (z % np.uint64(n_shards)).astype(np.int64)


def partition(
    keys: np.ndarray, n_shards: int, seed: int = DEFAULT_ROUTER_SEED
) -> Tuple[np.ndarray, np.ndarray]:
    """Group a batch by shard: returns ``(order, offsets)``.

    ``order`` is a stable permutation such that ``keys[order]`` lists shard
    0's keys first, then shard 1's, and so on; *stable* means each shard
    sees its keys in the caller's original order, which is what makes a
    one-shard sharded filter bit-exact against the unsharded filter (same
    keys, same order, same merge decisions).  ``offsets`` has length
    ``n_shards + 1``; shard ``i`` owns ``order[offsets[i]:offsets[i + 1]]``.

    Scatter-back idiom for a per-shard result ``parts[i]`` aligned with
    shard ``i``'s keys::

        out = np.empty(keys.size, dtype)
        out[order] = np.concatenate(parts)
    """
    keys = np.asarray(keys, dtype=np.uint64)
    ids = shard_ids(keys, n_shards, seed)
    if n_shards == 1:
        order = np.arange(keys.size, dtype=np.int64)
        offsets = np.array([0, keys.size], dtype=np.int64)
        return order, offsets
    order = stable_argsort(ids)
    counts = np.bincount(ids, minlength=n_shards)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return order, offsets
