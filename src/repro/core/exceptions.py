"""Exceptions raised by the filters in this reproduction."""

from __future__ import annotations

from typing import Optional


class FilterError(Exception):
    """Base class for every filter-specific error."""


class FilterFullError(FilterError):
    """Raised when an insert cannot find space.

    For the TCF this means both candidate blocks *and* the backing table are
    full; for quotient-filter variants it means the structure exceeded its
    maximum recommended load factor and ran out of slots (including the
    overflow slack at the end of the table).

    Beyond the message, the error carries the occupancy snapshot at failure
    time so callers (retry loops, the auto-resize trigger, the future service
    layer) can react programmatically:

    ``n_items``
        Items stored when the insert failed.
    ``n_slots``
        Total slots of the failing structure.
    ``load_factor``
        Fill fraction at failure (``n_items / n_slots`` unless the filter
        reports a more precise figure).
    ``batch_offset``
        For bulk inserts: how many keys of the failing batch were placed
        before the filter ran out of space (``None`` for point inserts).
    """

    def __init__(
        self,
        message: str,
        *,
        n_items: Optional[int] = None,
        n_slots: Optional[int] = None,
        load_factor: Optional[float] = None,
        batch_offset: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.n_items = n_items
        self.n_slots = n_slots
        self.load_factor = load_factor
        self.batch_offset = batch_offset

    def __str__(self) -> str:
        parts = [self.message]
        context = []
        if self.n_items is not None:
            context.append(f"n_items={self.n_items}")
        if self.n_slots is not None:
            context.append(f"n_slots={self.n_slots}")
        if self.load_factor is not None:
            context.append(f"load_factor={self.load_factor:.3f}")
        if self.batch_offset is not None:
            context.append(f"batch_offset={self.batch_offset}")
        if context:
            parts.append(f"[{', '.join(context)}]")
        return " ".join(parts)


class CapacityLimitError(FilterError):
    """Raised when a filter is configured beyond an implementation limit.

    Geil et al.'s SQF/RSQF can only be sized up to 2^26 slots because they
    pack quotient+remainder into 32 bits; we reproduce those limits and raise
    this error when they are exceeded.

    ``requested`` and ``limit`` describe the violated bound (in whatever unit
    the message names — bits, slots, or items) when the raise site knows it.
    """

    def __init__(
        self,
        message: str,
        *,
        requested: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.requested = requested
        self.limit = limit

    def __str__(self) -> str:
        parts = [self.message]
        context = []
        if self.requested is not None:
            context.append(f"requested={self.requested}")
        if self.limit is not None:
            context.append(f"limit={self.limit}")
        if context:
            parts.append(f"[{', '.join(context)}]")
        return " ".join(parts)


class SnapshotError(FilterError):
    """Raised when a filter snapshot cannot be written or restored.

    Covers the whole lifecycle surface: unknown magic/version at load,
    checksum mismatches from truncated or corrupted files, and state
    sections whose shape disagrees with the header.
    """


class UnsupportedOperationError(FilterError):
    """Raised when an operation is not supported by a filter design.

    Examples: deleting from a Bloom filter, counting with a cuckoo-style
    filter, point-inserting into a bulk-only filter (SQF/RSQF).
    """


class DeletionError(FilterError):
    """Raised when a delete targets an item the filter cannot find.

    Deleting a never-inserted item from a filter that stores fingerprints is
    unsafe (it can remove another item's fingerprint); the filters surface
    this instead of corrupting state silently.
    """
