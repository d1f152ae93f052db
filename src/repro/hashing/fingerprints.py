"""Quotient/remainder fingerprint splitting for quotient-filter variants.

Quotient filters hash an item to a ``p``-bit fingerprint and split it into a
``q``-bit quotient (the canonical slot index) and an ``r``-bit remainder (the
value stored in the slot).  The false-positive rate is governed by the
remainder width: two distinct items collide only if both their quotients and
their remainders agree, so :math:`\\varepsilon \\approx 2^{-r}` at high load.

This module centralises that splitting (and its inverse, needed for
enumeration, merging and resizing) so the GQF, SQF, RSQF and CPU CQF all
share one well-tested code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .mixers import murmur64_mix, murmur64_unmix

ArrayOrInt = Union[int, np.ndarray]


@dataclass(frozen=True)
class FingerprintScheme:
    """A (quotient bits, remainder bits) fingerprint layout.

    Attributes
    ----------
    quotient_bits:
        log2 of the number of slots.
    remainder_bits:
        Width of the stored remainder.
    invertible:
        Whether the pre-hash is invertible (needed for enumeration / merge).
    """

    quotient_bits: int
    remainder_bits: int
    invertible: bool = True

    def __post_init__(self) -> None:
        if self.quotient_bits < 1:
            raise ValueError("quotient_bits must be >= 1")
        if self.remainder_bits < 1:
            raise ValueError("remainder_bits must be >= 1")
        if self.quotient_bits + self.remainder_bits > 64:
            raise ValueError("quotient + remainder bits must fit in 64")

    @property
    def fingerprint_bits(self) -> int:
        """Total fingerprint width p = q + r."""
        return self.quotient_bits + self.remainder_bits

    @property
    def n_slots(self) -> int:
        """Number of canonical slots, 2^q."""
        return 1 << self.quotient_bits

    @property
    def false_positive_rate(self) -> float:
        """Asymptotic false-positive rate at full load, ~2^-r."""
        return 2.0 ** (-self.remainder_bits)

    # -- key <-> fingerprint ------------------------------------------------
    def hash_key(self, keys: ArrayOrInt) -> ArrayOrInt:
        """Map 64-bit keys to p-bit fingerprints."""
        hashed = murmur64_mix(keys)
        mask = (1 << self.fingerprint_bits) - 1
        if isinstance(hashed, np.ndarray):
            return hashed & np.uint64(mask)
        return hashed & mask

    def unhash_fingerprint(self, fingerprints: ArrayOrInt) -> ArrayOrInt:
        """Recover the low p bits of the original key (enumeration support).

        Only exact when the key universe itself is p bits wide; for 64-bit
        keys the inverse recovers the canonical p-bit representative, which
        is what the CQF returns during enumeration.
        """
        if not self.invertible:
            raise ValueError("scheme was declared non-invertible")
        return murmur64_unmix(fingerprints)

    # -- fingerprint <-> (quotient, remainder) --------------------------------
    def split(self, fingerprints: ArrayOrInt) -> Tuple[ArrayOrInt, ArrayOrInt]:
        """Split fingerprints into (quotient, remainder)."""
        r = self.remainder_bits
        rem_mask = (1 << r) - 1
        if isinstance(fingerprints, np.ndarray):
            fp = np.asarray(fingerprints, dtype=np.uint64)
            quotient = (fp >> np.uint64(r)) & np.uint64(self.n_slots - 1)
            remainder = fp & np.uint64(rem_mask)
            return quotient.astype(np.int64), remainder
        fp = int(fingerprints)
        return (fp >> r) & (self.n_slots - 1), fp & rem_mask

    def join(self, quotient: ArrayOrInt, remainder: ArrayOrInt) -> ArrayOrInt:
        """Inverse of :meth:`split`."""
        r = self.remainder_bits
        if isinstance(quotient, np.ndarray) or isinstance(remainder, np.ndarray):
            q = np.asarray(quotient, dtype=np.uint64)
            rem = np.asarray(remainder, dtype=np.uint64)
            return (q << np.uint64(r)) | rem
        return (int(quotient) << r) | int(remainder)

    def key_to_slot(self, keys: ArrayOrInt) -> Tuple[ArrayOrInt, ArrayOrInt]:
        """Convenience: hash keys and split into (quotient, remainder)."""
        return self.split(self.hash_key(keys))


def scheme_for_errorrate(
    n_items: int, target_fp_rate: float, allowed_remainders: Tuple[int, ...] = (8, 16, 32)
) -> FingerprintScheme:
    """Pick the smallest machine-word-aligned remainder achieving a target ε.

    The GQF only supports 8/16/32-bit remainders to keep slots word aligned
    (Section 6; a 64-bit remainder can never fit a 64-bit fingerprint next
    to the quotient); given a capacity and a target false-positive rate,
    this returns the cheapest conforming scheme.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if not 0.0 < target_fp_rate < 1.0:
        raise ValueError("target_fp_rate must be in (0, 1)")
    quotient_bits = max(1, int(np.ceil(np.log2(n_items))))
    needed_r = int(np.ceil(np.log2(1.0 / target_fp_rate)))
    for r in sorted(allowed_remainders):
        if r >= needed_r and quotient_bits + r <= 64:
            return FingerprintScheme(quotient_bits, r)
    # Fall back to the widest allowed remainder that still fits.
    for r in sorted(allowed_remainders, reverse=True):
        if quotient_bits + r <= 64:
            return FingerprintScheme(quotient_bits, r)
    raise ValueError("no remainder width fits the requested capacity")
