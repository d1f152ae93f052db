"""Power-of-two-choice (POTC) hashing utilities.

The TCF assigns every item two candidate blocks via a pair of independent
hashes and inserts into the less-full one (Azar et al.'s balanced
allocations).  This keeps the maximum block load at :math:`O(\\log\\log n)`
above the average, which is what lets the filter reach a 90 % load factor
with small, cache-line-sized blocks.

This module provides the bucket-pair derivation and the fingerprint
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .mixers import murmur64_mix, splitmix64

ArrayOrInt = Union[int, np.ndarray]
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class PotcHash:
    """The derived addressing information for one key (or a batch of keys).

    Attributes
    ----------
    primary:
        Index of the primary candidate block.
    secondary:
        Index of the secondary candidate block.
    fingerprint:
        The ``f``-bit fingerprint stored in the table.  Never zero — zero is
        reserved for the empty slot — and never equal to the tombstone value.
    h1, h2:
        The key's two 64-bit mixes (``murmur64_mix`` and ``splitmix64``)
        the fields above derive from; the TCF's backing table probes with
        the same two.
    """

    primary: ArrayOrInt
    secondary: ArrayOrInt
    fingerprint: ArrayOrInt
    h1: ArrayOrInt
    h2: ArrayOrInt


def derive(
    keys: ArrayOrInt,
    n_blocks: int,
    fingerprint_bits: int,
    reserved_values: Tuple[int, ...] = (0, 1),
) -> PotcHash:
    """Derive (primary block, secondary block, fingerprint) for ``keys``.

    Parameters
    ----------
    keys:
        64-bit keys (scalar or array).
    n_blocks:
        Number of blocks in the table.
    fingerprint_bits:
        Width of the stored fingerprint.
    reserved_values:
        Fingerprint values that must not be produced because the table uses
        them as sentinels (0 = empty, 1 = tombstone by default).  Reserved
        fingerprints are remapped to ``max(reserved) + 1 ...`` which costs a
        negligible amount of entropy.
    """
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    if not 1 <= fingerprint_bits <= 63:
        raise ValueError("fingerprint_bits must be in [1, 63]")
    scalar = not isinstance(keys, np.ndarray)
    k = np.atleast_1d(np.asarray(keys, dtype=np.uint64))

    h1 = np.atleast_1d(np.asarray(murmur64_mix(k), dtype=np.uint64))
    h2 = np.atleast_1d(np.asarray(splitmix64(k), dtype=np.uint64))

    if (n_blocks & (n_blocks - 1)) == 0:
        # Power-of-two block counts reduce with a mask instead of a division.
        mask = np.uint64(n_blocks - 1)
        primary = (h1 & mask).view(np.int64)
        secondary = (h2 & mask).view(np.int64)
    else:
        primary = (h1 % np.uint64(n_blocks)).view(np.int64)
        secondary = (h2 % np.uint64(n_blocks)).view(np.int64)
    # Ensure the two choices differ whenever the table has more than 1 block;
    # otherwise POTC degenerates to single hashing for those keys.
    if n_blocks > 1:
        secondary += primary == secondary
        secondary[secondary == n_blocks] = 0

    fp_mask = np.uint64((1 << fingerprint_bits) - 1)
    fingerprint = h1 >> np.uint64(17)
    fingerprint ^= h2 << np.uint64(3)
    fingerprint &= fp_mask
    if reserved_values:
        n_reserved = len(reserved_values)
        top = max(reserved_values)
        if set(reserved_values) == set(range(top + 1)):
            # The default sentinels 0..top are one comparison.
            reserved = np.flatnonzero(fingerprint <= np.uint64(top))
        else:
            reserved_arr = np.array(sorted(reserved_values), dtype=np.uint64)
            reserved = np.flatnonzero(np.isin(fingerprint, reserved_arr))
        # Remap reserved fingerprints deterministically above the sentinels.
        hit = fingerprint[reserved]
        replacement = (
            np.uint64(top)
            + np.uint64(1)
            + (hit % np.uint64(max(1, (1 << fingerprint_bits) - n_reserved - 1)))
        ) & fp_mask
        fingerprint[reserved] = np.maximum(replacement, np.uint64(top + 1))

    if scalar:
        return PotcHash(
            int(primary[0]), int(secondary[0]), int(fingerprint[0]), int(h1[0]), int(h2[0])
        )
    return PotcHash(primary, secondary, fingerprint, h1, h2)
