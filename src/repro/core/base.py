"""Common filter API shared by every filter in the reproduction.

The paper compares filters along two axes (Table 1): which operations they
support (insert / query / delete / count) and through which API (point,
callable from device code per item, vs bulk, callable from the host for a
whole batch).  :class:`FilterCapabilities` captures that matrix so the
Table 1 benchmark can be generated by introspection, and
:class:`AbstractFilter` defines the uniform API that the benchmark harness,
examples, and applications program against.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..gpusim.stats import StatsRecorder
from .exceptions import FilterFullError, SnapshotError, UnsupportedOperationError

def restore_array(dest: np.ndarray, src: np.ndarray, name: str) -> None:
    """Copy snapshot section ``src`` into ``dest``, validating its shape.

    The shared guard of every filter's ``restore_state``: a section whose
    shape disagrees with the (config-reconstructed) destination means the
    snapshot header and data are inconsistent.
    """
    src = np.asarray(src)
    if src.shape != dest.shape:
        raise SnapshotError(
            f"snapshot section {name!r} has shape {src.shape}, "
            f"expected {dest.shape}"
        )
    dest[:] = src.astype(dest.dtype)


@dataclass(frozen=True)
class FilterCapabilities:
    """Which operations a filter supports, split by point/bulk API.

    Mirrors Table 1 of the paper: rows are filters, columns are
    (insert, query, delete, count) x (point, bulk).
    """

    point_insert: bool = False
    bulk_insert: bool = False
    point_query: bool = False
    bulk_query: bool = False
    point_delete: bool = False
    bulk_delete: bool = False
    point_count: bool = False
    bulk_count: bool = False
    values: bool = False  #: can associate small values with items
    resizable: bool = False

    def as_row(self) -> Dict[str, bool]:
        """Return the capability flags as an ordered dict (Table 1 row)."""
        return {
            "insert_point": self.point_insert,
            "insert_bulk": self.bulk_insert,
            "query_point": self.point_query,
            "query_bulk": self.bulk_query,
            "delete_point": self.point_delete,
            "delete_bulk": self.bulk_delete,
            "count_point": self.point_count,
            "count_bulk": self.bulk_count,
        }

    def supports(self, operation: str, api: str = "point") -> bool:
        """Check support for e.g. ``supports("insert", "bulk")``."""
        attr = f"{api}_{operation}"
        if not hasattr(self, attr):
            raise ValueError(f"unknown capability {operation!r}/{api!r}")
        return bool(getattr(self, attr))


@runtime_checkable
class FilterState(Protocol):
    """The snapshot contract every persistable filter implements.

    A filter's durable identity splits into two halves:

    * **config** — the JSON-serialisable constructor arguments
      (:meth:`snapshot_config`) from which an empty twin can be built; and
    * **state** — named numpy arrays (:meth:`snapshot_state`) holding the
      complete table contents, restorable bit-for-bit with
      :meth:`restore_state`.

    The :mod:`repro.lifecycle` snapshot format persists exactly these two
    halves (config as a JSON header, state as aligned memmap-able binary
    sections), so any class implementing this protocol gains
    ``save``/``load`` for free through :class:`AbstractFilter`.
    """

    def snapshot_config(self) -> Dict[str, object]:
        """JSON-serialisable constructor arguments for an empty twin."""
        ...

    def snapshot_state(self) -> Dict[str, np.ndarray]:
        """Complete table contents as named numpy arrays."""
        ...

    def restore_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Overwrite this (freshly constructed) filter's tables in place."""
        ...


class AbstractFilter(abc.ABC):
    """Base class for all approximate-membership / counting filters.

    Concrete filters implement the point primitives they support
    (:meth:`insert`, :meth:`query`, :meth:`delete`, :meth:`count`) and may
    override the bulk entry points with genuinely different algorithms (the
    TCF and GQF do); the default bulk implementations simply loop over the
    point primitives, which is how a CPU filter would be ported naively.
    """

    #: Human-readable short name used in benchmark tables ("TCF", "GQF", ...).
    name: str = "filter"
    #: Grow inside inserts instead of leaving keys out (see :meth:`grow`).
    auto_resize = False
    #: Growth steps taken so far.
    n_resizes = 0

    def __init__(self, recorder: Optional[StatsRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else StatsRecorder()

    # ------------------------------------------------------------------ meta
    @classmethod
    @abc.abstractmethod
    def capabilities(cls) -> FilterCapabilities:
        """Return the supported-operation matrix for this filter design."""

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Maximum number of items the filter is sized for (at max load)."""

    @property
    @abc.abstractmethod
    def n_slots(self) -> int:
        """Number of physical slots/cells in the structure."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Space used by the structure, in bytes."""

    @property
    @abc.abstractmethod
    def n_items(self) -> int:
        """Number of logical items currently stored (distinct fingerprints)."""

    @property
    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        if self.n_slots == 0:
            return 0.0
        return self.n_occupied_slots / self.n_slots

    @property
    def n_occupied_slots(self) -> int:
        """Number of occupied physical slots (defaults to ``n_items``)."""
        return self.n_items

    @property
    def recommended_load_factor(self) -> float:
        """Maximum load factor the design recommends (0.9 for TCF, 0.95 GQF)."""
        return 0.9

    @property
    def bits_per_item(self) -> float:
        """Empirical bits per stored item (Table 2 metric)."""
        if self.n_items == 0:
            return float("inf")
        return 8.0 * self.nbytes / self.n_items

    @property
    def false_positive_rate(self) -> float:
        """Design (analytical) false-positive rate for the configuration."""
        return 0.0

    # ----------------------------------------------------------- point API
    def insert(self, key: int, value: int = 0) -> bool:
        """Insert ``key`` (optionally with a small associated value).

        Returns True on success; raises
        :class:`~repro.core.exceptions.FilterFullError` when no space exists,
        and :class:`~repro.core.exceptions.UnsupportedOperationError` when
        the design has no point-insert API.
        """
        raise NotImplementedError

    def query(self, key: int) -> bool:
        """Membership query.  May return false positives, never negatives."""
        raise NotImplementedError

    def delete(self, key: int) -> bool:
        """Delete one occurrence of ``key``.  Returns True if removed."""
        raise NotImplementedError

    def count(self, key: int) -> int:
        """Return the stored count estimate of ``key`` (0 if absent)."""
        raise NotImplementedError

    def get_value(self, key: int) -> Optional[int]:
        """Return the value associated with ``key`` or None if absent."""
        raise NotImplementedError

    # ------------------------------------------------------------ bulk API
    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """Insert a batch of keys; returns the number successfully inserted.

        The default implementation loops over :meth:`insert`; filters with a
        real bulk path (sorting, even-odd phases, ...) override this.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if values is None:
            values = np.zeros(len(keys), dtype=np.uint64)
        inserted = 0
        # audit: ignore[AUD101] - documented naive default; real filters override
        for key, value in zip(keys, values):
            if self.insert(int(key), int(value)):
                inserted += 1
        return inserted

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Batched insert reporting a per-key success mask instead of raising.

        The insert entry point of the bulk-job service and the shard
        workers: True at position ``i`` means ``keys[i]`` was applied; a key
        the filter cannot hold comes back False and the filter stays
        consistent.  The bulk designs implement their insert here and make
        :meth:`bulk_insert` this mask plus a raise.  The default loops the
        point API; a design without point inserts runs :meth:`bulk_insert`
        and reports every key placed, so its :class:`FilterFullError`
        (raised after some keys may have landed) propagates.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if not self.capabilities().point_insert:
            self.bulk_insert(keys, values)
            return np.ones(keys.size, dtype=bool)
        if values is None:
            values = np.zeros(keys.size, dtype=np.uint64)
        else:
            values = np.asarray(values, dtype=np.uint64)
        mask = np.zeros(keys.size, dtype=bool)
        # audit: ignore[AUD101] - documented naive default; real filters override
        for i in range(keys.size):
            try:
                mask[i] = bool(self.insert(int(keys[i]), int(values[i])))
            except FilterFullError:
                mask[i] = False
        return mask

    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        """Query a batch of keys; returns a boolean array."""
        keys = np.asarray(keys, dtype=np.uint64)
        # audit: ignore[AUD101] - documented naive default; real filters override
        return np.array([self.query(int(k)) for k in keys], dtype=bool)

    def bulk_delete(self, keys: Sequence[int]) -> int:
        """Delete a batch of keys; returns the number removed."""
        keys = np.asarray(keys, dtype=np.uint64)
        removed = 0
        # audit: ignore[AUD101] - documented naive default; real filters override
        for key in keys:
            if self.delete(int(key)):
                removed += 1
        return removed

    def bulk_count(self, keys: Sequence[int]) -> np.ndarray:
        """Count a batch of keys; returns an int64 array."""
        keys = np.asarray(keys, dtype=np.uint64)
        # audit: ignore[AUD101] - documented naive default; real filters override
        return np.array([self.count(int(k)) for k in keys], dtype=np.int64)

    # ------------------------------------------------------------------ growth
    def grow(self, extra_quotient_bits: int = 1) -> None:
        """Grow the filter in place to ``2**extra_quotient_bits`` times its
        slots, keeping every stored item.

        The one resize entry point: the quotient family extends its
        quotient, the TCF family replays its key journal into doubled
        tables, and the sharded filter grows every shard.  A design whose
        structure cannot grow refuses with
        :class:`~repro.core.exceptions.UnsupportedOperationError` before
        any state changes.
        """
        raise UnsupportedOperationError(f"{type(self).__name__} does not support resizing")

    def _init_growth(self, auto_resize: bool, auto_resize_at: Optional[float]) -> None:
        """Set the auto-resize policy: grow inside inserts once the load
        factor reaches ``auto_resize_at`` (in (0, 1]; the recommended load
        factor by default) or when a key finds no space."""
        self.auto_resize = bool(auto_resize)
        self.auto_resize_at = float(
            self.recommended_load_factor if auto_resize_at is None else auto_resize_at
        )
        if not 0.0 < self.auto_resize_at <= 1.0:
            raise ValueError("auto_resize_at must be in (0, 1]")
        self.n_resizes = 0

    def _can_grow(self) -> bool:
        """Whether the filter can grow now (never, by default); inserts grow
        it only under ``auto_resize``."""
        return False

    def _maybe_grow(self) -> None:
        """Grow ahead of an insert once the configured load factor is hit."""
        while self.auto_resize and self._can_grow() and self.load_factor >= self.auto_resize_at:
            self.grow()

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def _from_snapshot_config(
        cls, config: Dict[str, object], recorder: Optional[StatsRecorder] = None
    ) -> "AbstractFilter":
        """Build an empty twin from :meth:`FilterState.snapshot_config` output.

        The default assumes the config maps one-to-one onto constructor
        keywords; filters whose constructors take richer objects (e.g. a
        :class:`~repro.core.tcf.config.TCFConfig`) override this.
        """
        return cls(recorder=recorder, **config)

    def save(self, path) -> int:
        """Write a versioned binary snapshot of this filter to ``path``.

        Returns the number of bytes written.  Requires the filter to
        implement the :class:`FilterState` protocol.
        """
        from ..lifecycle.snapshot import save_filter

        return save_filter(self, path)

    @classmethod
    def load(cls, path, recorder: Optional[StatsRecorder] = None) -> "AbstractFilter":
        """Restore a filter from a snapshot written by :meth:`save`.

        Called on :class:`AbstractFilter` it restores whatever class the
        snapshot names; called on a concrete class it additionally checks
        the snapshot holds that class.  Raises
        :class:`~repro.core.exceptions.SnapshotError` on truncated or
        corrupt files and on format-version mismatches.
        """
        from ..lifecycle.snapshot import load_filter

        expected = None if cls is AbstractFilter else cls
        return load_filter(path, expected_class=expected, recorder=recorder)

    def __contains__(self, key: int) -> bool:
        return bool(self.query(int(key)))

    def __len__(self) -> int:
        return self.n_items

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(slots={self.n_slots}, items={self.n_items}, "
            f"load={self.load_factor:.3f})"
        )
