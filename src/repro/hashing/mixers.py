"""64-bit hash mixers / finalizers used throughout the filters.

The paper's filters hash incoming 64-bit keys before splitting the result
into quotient/remainder (GQF) or block-index/fingerprint (TCF) parts.  The
CPU counting quotient filter relies on an *invertible* 64-bit hash so that
items can be enumerated and filters merged; we provide the same invertible
mixer (a MurmurHash3-style finalizer with its exact inverse) plus a
splitmix64 as a second, independent family.

All functions are vectorised: they accept either Python ints or NumPy uint64
arrays and always compute modulo 2^64 without Python-level overflow.
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayOrInt = Union[int, np.ndarray]

_U64 = np.uint64
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _as_u64(x: ArrayOrInt) -> np.ndarray:
    """Coerce ints / arrays to uint64 without overflow errors."""
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=True)
    return np.uint64(int(x) & 0xFFFFFFFFFFFFFFFF)


def _maybe_scalar(x: np.ndarray, scalar_in: bool):
    return int(x) if scalar_in else x


def murmur64_mix(x: ArrayOrInt) -> ArrayOrInt:
    """MurmurHash3 / splittable-64 finalizer (invertible).

    This is the ``hash_64`` function used by the reference CQF: every step
    (xor-shift or multiplication by an odd constant) is invertible, so the
    filter can recover the original fingerprint for enumeration and merging.
    """
    if not isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return int(_murmur64_steps(_as_u64(x)))
    # uint64 array arithmetic wraps modulo 2^64 without warnings, so the
    # array path needs neither masks nor an error-state context (both cost
    # more than the mixing itself on the one-key batches of point inserts).
    return _murmur64_steps(x.astype(np.uint64))


_SHIFT33 = _U64(33)
_MUL1 = _U64(0xFF51AFD7ED558CCD)
_MUL2 = _U64(0xC4CEB9FE1A85EC53)


def _murmur64_steps(v: np.ndarray) -> np.ndarray:
    v = v ^ (v >> _SHIFT33)
    v = v * _MUL1
    v = v ^ (v >> _SHIFT33)
    v = v * _MUL2
    return v ^ (v >> _SHIFT33)


def _unshift_right_xor(v: np.ndarray, shift: int) -> np.ndarray:
    """Invert ``v ^= v >> shift`` for 64-bit values."""
    # Repeated application recovers all bits once shift*k >= 64.
    result = v
    for _ in range(64 // shift + 1):
        result = v ^ (result >> _U64(shift))
    return result


#: Modular inverses of the murmur finalizer multipliers (mod 2^64).
_INV1 = _U64(0x4F74430C22A54005)  # inverse of 0xFF51AFD7ED558CCD
_INV2 = _U64(0x9CB4B2F8129337DB)  # inverse of 0xC4CEB9FE1A85EC53


def murmur64_unmix(x: ArrayOrInt) -> ArrayOrInt:
    """Exact inverse of :func:`murmur64_mix`."""
    scalar = not isinstance(x, np.ndarray)
    v = _as_u64(x)
    with np.errstate(over="ignore"):
        v = _unshift_right_xor(v, 33)
        v = (v * _INV2) & _MASK64
        v = _unshift_right_xor(v, 33)
        v = (v * _INV1) & _MASK64
        v = _unshift_right_xor(v, 33)
    return _maybe_scalar(v, scalar)


def splitmix64(x: ArrayOrInt) -> ArrayOrInt:
    """splitmix64 mixer — used as the second, independent hash family."""
    if isinstance(x, np.ndarray):  # wraps without masks; one copy, updated in place
        v = x.astype(np.uint64)
        v += _U64(0x9E3779B97F4A7C15)
        v ^= v >> _U64(30)
        v *= _U64(0xBF58476D1CE4E5B9)
        v ^= v >> _U64(27)
        v *= _U64(0x94D049BB133111EB)
        v ^= v >> _U64(31)
        return v
    v = _as_u64(x)
    with np.errstate(over="ignore"):
        v = (v + _U64(0x9E3779B97F4A7C15)) & _MASK64
        v = ((v ^ (v >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _MASK64
        v = ((v ^ (v >> _U64(27))) * _U64(0x94D049BB133111EB)) & _MASK64
        v = (v ^ (v >> _U64(31))) & _MASK64
    return int(v)


def hash_with_seed(x: ArrayOrInt, seed: int) -> ArrayOrInt:
    """Seeded 64-bit hash built from the mixers (for Bloom's k hashes)."""
    scalar = not isinstance(x, np.ndarray)
    v = _as_u64(x)
    s = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        v = (v ^ (s * _U64(0x9E3779B97F4A7C15))) & _MASK64
    out = splitmix64(v)
    return _maybe_scalar(_as_u64(out), scalar)


def hash_with_seeds(x: np.ndarray, seeds) -> np.ndarray:
    """Batched :func:`hash_with_seed`: all keys under all seeds at once.

    Returns an array of shape ``(len(x), len(seeds))`` whose ``[i, j]`` entry
    equals ``hash_with_seed(x[i], seeds[j])`` exactly — the bulk Bloom-filter
    paths rely on that equality to stay differentially testable against the
    per-item probes.
    """
    v = np.atleast_1d(_as_u64(x))
    s = np.asarray([int(seed) & 0xFFFFFFFFFFFFFFFF for seed in seeds], dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = v[:, None] ^ ((s * _U64(0x9E3779B97F4A7C15)) & _MASK64)[None, :]
    return splitmix64(mixed)
