"""Geil et al.'s standard quotient filter (SQF) on the GPU — baseline.

The SQF (IPDPS 2018) was the first GPU quotient filter.  It was adapted from
Bender et al.'s quotient filter, which predates the counting quotient filter,
and carries several implementation-specific limits that the GQF removes:

* only two remainder widths (5 and 13 bits), because the 3 per-slot metadata
  bits are packed with the remainder into an 8- or 16-bit machine word;
* the sum of quotient and remainder bits must stay below 32, so the filter
  can hold at most :math:`2^{26}` items with 5-bit remainders (and only
  :math:`2^{18}` with 13-bit remainders);
* a fixed, relatively high false-positive rate (~1.17 % at 5-bit remainders);
* no counting, no value association, bulk-only API.

The functional structure is a :class:`~repro.core.gqf.quotient_filter.
QuotientFilter` over a core with counting disabled; bulk insertion follows the SQF's
"sort then merge segments" strategy (one thread per segment), which is fast,
while bulk lookups use the sorted-batch probing that the paper observes to be
slower than the other filters' query paths.
"""

from __future__ import annotations

from typing import ContextManager, Optional, Sequence

import numpy as np

from ..core.base import FilterCapabilities
from ..core.exceptions import CapacityLimitError, UnsupportedOperationError
from ..core.gqf.layout import QuotientFilterCore
from ..core.gqf.quotient_filter import QuotientFilter
from ..gpusim.kernel import KernelContext, bulk_region_launch
from ..gpusim.sorting import device_sort, device_sort_by_key
from ..gpusim.stats import StatsRecorder

#: Remainder widths supported by the SQF (3 metadata bits packed alongside).
SUPPORTED_REMAINDERS = (5, 13)
#: Maximum quotient+remainder bits in the SQF's packed representation.
MAX_FINGERPRINT_BITS = 31
#: Segment size (slots) used by the bulk merge insert.
SEGMENT_SLOTS = 4096


def check_packed_geometry(design: str, quotient_bits: int, remainder_bits: int) -> None:
    """Refuse a geometry Geil et al.'s packed slot words cannot hold.

    Shared by the SQF and the RSQF: raises :class:`CapacityLimitError` for a
    remainder width outside :data:`SUPPORTED_REMAINDERS` or for
    ``q + r > 31``.
    """
    if remainder_bits not in SUPPORTED_REMAINDERS:
        raise CapacityLimitError(
            f"the {design} only supports remainders {SUPPORTED_REMAINDERS}, got {remainder_bits}",
            requested=remainder_bits,
        )
    if quotient_bits + remainder_bits > MAX_FINGERPRINT_BITS:
        raise CapacityLimitError(
            f"the {design} requires q + r <= {MAX_FINGERPRINT_BITS} bits "
            f"(got {quotient_bits}+{remainder_bits}); it cannot scale beyond 2^26 items",
            requested=quotient_bits + remainder_bits,
            limit=MAX_FINGERPRINT_BITS,
        )


class StandardQuotientFilter(QuotientFilter):
    """Geil et al.'s GPU standard quotient filter (bulk API only).

    Parameters
    ----------
    quotient_bits:
        log2 of the slot count; limited so that ``q + r <= 31``.
    remainder_bits:
        5 or 13.
    recorder:
        Optional stats recorder.
    """

    name = "SQF"

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int = 5,
        recorder: Optional[StatsRecorder] = None,
    ) -> None:
        super().__init__(recorder)
        check_packed_geometry("SQF", quotient_bits, remainder_bits)
        self.core = QuotientFilterCore(
            quotient_bits,
            remainder_bits,
            self.recorder,
            counting=False,
            slot_metadata_packed=True,
            name="sqf-slots",
        )
        self.kernels = KernelContext(self.recorder)

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_capacity(
        cls,
        n_items: int,
        remainder_bits: int = 5,
        recorder: Optional[StatsRecorder] = None,
    ) -> "StandardQuotientFilter":
        quotient_bits = max(3, int(np.ceil(np.log2(max(8, n_items) / 0.9))))
        return cls(quotient_bits, remainder_bits, recorder)

    @classmethod
    def capabilities(cls) -> FilterCapabilities:
        return FilterCapabilities(
            point_insert=False,
            bulk_insert=True,
            point_query=False,
            bulk_query=True,
            point_delete=False,
            bulk_delete=True,
            point_count=False,
            bulk_count=False,
            values=False,
            resizable=False,
        )

    @classmethod
    def nominal_nbytes(cls, n_slots: int, remainder_bits: int = 5) -> int:
        """Packed slot bytes: remainder + 3 metadata bits in an 8/16-bit word."""
        word_bits = 8 if remainder_bits <= 5 else 16
        return int(np.ceil(n_slots * word_bits / 8.0))

    @classmethod
    def max_quotient_bits(cls, remainder_bits: int = 5) -> int:
        """Largest supported filter size exponent for a remainder width."""
        return MAX_FINGERPRINT_BITS - remainder_bits

    # ------------------------------------------------------------------- sizes
    @property
    def nbytes(self) -> int:
        word_bits = 8 if self.scheme.remainder_bits <= 5 else 16
        return int(np.ceil(self.core.total_slots * word_bits / 8.0))

    # ---------------------------------------------------------------- bulk API
    def _batch_order(self, fingerprints: np.ndarray) -> np.ndarray:
        """The SQF sorts each batch on the device before merging segments."""
        return device_sort_by_key(fingerprints, np.arange(fingerprints.size), self.recorder)[1]

    def _insert_kernel(self, n_rows: int) -> ContextManager[object]:
        """Sorted segment-merge bulk insert: one thread per segment."""
        n_segments = max(1, self.core.n_canonical_slots // SEGMENT_SLOTS)
        return self.kernels.launch("sqf_bulk_insert", bulk_region_launch(n_segments))

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        """Sorted bulk lookup (the SQF sorts the query batch as well)."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return out
        fingerprints = self.scheme.hash_key(keys)
        # The SQF sorts query batches before probing; account for that pass.
        device_sort(fingerprints, self.recorder)
        quotients, remainders = self.scheme.split(fingerprints)
        n_segments = max(1, self.core.n_canonical_slots // SEGMENT_SLOTS)
        with self.kernels.launch("sqf_bulk_query", bulk_region_launch(n_segments)):
            out = self.core.batch_counts(quotients, remainders) > 0
        return out

    def bulk_delete(self, keys: Sequence[int]) -> int:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        quotients, remainders = self._hash_batch(keys)
        n_segments = max(1, self.core.n_canonical_slots // SEGMENT_SLOTS)
        with self.kernels.launch("sqf_bulk_delete", bulk_region_launch(n_segments)):
            return self.core.batch_delete(quotients, remainders)

    # ------------------------------------------------------------------ point API
    def insert(self, key: int, value: int = 0) -> bool:
        raise UnsupportedOperationError("the SQF has no point-insert API (bulk only)")

    def delete(self, key: int) -> bool:
        raise UnsupportedOperationError("the SQF has no point-delete API (bulk only)")

    def count(self, key: int) -> int:
        raise UnsupportedOperationError("the SQF does not support counting")

    def get_value(self, key: int) -> Optional[int]:
        raise UnsupportedOperationError("the SQF cannot store values")
