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

from .mixers import murmur64_mix

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
    """

    quotient_bits: int
    remainder_bits: int

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
