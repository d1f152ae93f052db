"""The quotient-filter family: every filter built on one ``QuotientFilterCore``.

The paper's GQF (point and bulk API) and its SQF, RSQF and CPU-CQF baselines
share one table layout and differ only in their schedules, kernel names
and supported operations (Table 1).  :class:`QuotientFilter` holds what they
share: sizes, point reads, snapshots and in-place growth by quotient
extension (``grow``), all read from the core (including its one
:class:`~repro.hashing.fingerprints.FingerprintScheme`), and the family's one
insert, one read and one delete:

* ``bulk_insert_mask`` is the insert, ``bulk_insert`` the mask plus a raise,
  and point ``insert`` a one-key batch with no kernel launch; its one growth
  loop grows outside any launch and resends only the rows left out;
* ``bulk_query`` and ``bulk_count`` are the read: stored counts per key
  from :meth:`QuotientFilterCore.batch_counts`, in the design's kernel;
* ``bulk_delete`` is the delete, and point ``delete`` a one-key batch
  through it with no kernel launch.

An empty batch launches nothing.  Batch routing — the vectorised path or
the per-item reference path — lives in the core (``batch_insert`` /
``batch_counts`` / ``batch_delete``).  Subclasses keep their constructors,
capabilities and hooks: the count policy (``_insert_rows``), the row order
(``_batch_order`` for inserts, ``_rows`` for reads and deletes: the bulk
GQF's reversed device sort for deletes, the SQF's charged query sort), the
kernel of each operation (``_kernel``), the mutation schedule (``_phases``:
the bulk GQF's even-odd phases, the point GQF's region locks), and each GQF
extends ``grow`` to rebuild its schedule's state around the extended core.
"""

from __future__ import annotations

from typing import ContextManager, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...gpusim.sorting import stable_argsort
from ...hashing.fingerprints import FingerprintScheme
from ..base import AbstractFilter
from ..exceptions import FilterFullError, UnsupportedOperationError
from .layout import Phase, QuotientFilterCore


class QuotientFilter(AbstractFilter):
    """Base of the filters whose table is a :class:`QuotientFilterCore`.

    Subclasses set ``self.core`` in their constructor and implement
    :meth:`_kernel`; a design whose constructor takes more than
    ``quotient_bits`` and ``remainder_bits`` extends :meth:`snapshot_config`.
    A design that grows inside its inserts calls :meth:`_init_growth`, and
    one whose schedule keeps state sized to the table extends :meth:`grow`.
    """

    core: QuotientFilterCore

    # ------------------------------------------------------------------- sizes
    @property
    def scheme(self) -> FingerprintScheme:
        """The core's fingerprint scheme (follows the core through growth)."""
        return self.core.scheme

    @property
    def capacity(self) -> int:
        return int(self.core.n_canonical_slots * self.recommended_load_factor)

    @property
    def n_slots(self) -> int:
        return self.core.n_canonical_slots

    @property
    def nbytes(self) -> int:
        return self.core.nbytes

    @property
    def n_items(self) -> int:
        """Distinct fingerprints in a counting core; every stored
        occurrence in a non-counting one, which keeps duplicates apart."""
        if self.core.counting:
            return self.core.n_distinct_items
        return self.core.total_count

    @property
    def total_count(self) -> int:
        """Multiset cardinality (every inserted occurrence)."""
        return self.core.total_count

    @property
    def n_occupied_slots(self) -> int:
        return self.core.n_occupied_slots

    @property
    def false_positive_rate(self) -> float:
        return 2.0 ** (-self.scheme.remainder_bits)

    # ----------------------------------------------------------- point reads
    def _slot_of(self, key: int) -> Tuple[int, int]:
        """``(quotient, remainder)`` of one key."""
        quotient, remainder = self.scheme.key_to_slot(np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF))
        return int(quotient), int(remainder)

    def _stored_count(self, key: int) -> int:
        return self.core.query_fingerprint(*self._slot_of(key))

    def query(self, key: int) -> bool:
        return self._stored_count(key) > 0

    def count(self, key: int) -> int:
        return self._stored_count(key)

    def get_value(self, key: int) -> Optional[int]:
        """Return the value stored via the counter, or None when absent."""
        count = self._stored_count(key)
        return count if count > 0 else None

    # ------------------------------------------------------------------- read
    def bulk_query(self, keys: Sequence[int]) -> np.ndarray:
        return self._read(keys, "query") > 0

    def bulk_count(self, keys: Sequence[int]) -> np.ndarray:
        return self._read(keys, "count")

    def _read(self, keys: Sequence[int], op: str) -> np.ndarray:
        """The family's one batched read: each key's stored count, from
        :meth:`~QuotientFilterCore.batch_counts` inside the design's ``op``
        kernel.  A design whose capabilities lack the bulk ``op`` refuses
        every non-empty batch."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        if not self.capabilities().supports(op, "bulk"):
            raise UnsupportedOperationError(f"the {self.name} does not support bulk {op}")
        quotients, remainders = self._rows(keys, op)
        with self._kernel(op):
            return self.core.batch_counts(quotients, remainders)

    def _rows(self, keys: np.ndarray, op: str) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(int64 quotients, uint64 remainders)`` a read or delete of
        uint64 ``keys`` runs over: by default the keys' own, in arrival
        order."""
        return self.scheme.key_to_slot(keys)

    # ------------------------------------------------------------------ insert
    def insert(self, key: int, value: int = 0) -> bool:
        """Insert one key: a one-key batch through the insert loop, outside
        any kernel launch.  A non-zero ``value`` is stored as the count, the
        counter re-purposing applications like Mantis use with the CQF.
        Raises :class:`FilterFullError` when the key cannot be placed."""
        key = np.array([int(key) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        # A zero value counts once, as no value does (and skips its checks).
        values = np.array([value], dtype=np.int64) if value else None
        error = self._insert(key, values, launch=False)[2]
        if error is not None:
            raise error
        return True

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> int:
        """:meth:`bulk_insert_mask` plus a raise.

        Returns the number of rows inserted (the distinct keys under the
        bulk GQF's map-reduce, else every key); raises the
        :class:`FilterFullError` that left a row out, with every row that
        fitted placed.
        """
        _mask, n_rows, error = self._insert(np.asarray(keys, dtype=np.uint64), values)
        if error is not None:
            raise error
        return n_rows

    def bulk_insert_mask(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The family's one batched insert, reported per key.

        ``values`` are counts where the design counts.  True at position
        ``i`` means ``keys[i]`` was counted; a key the table cannot hold
        comes back False instead of raising.
        """
        return self._insert(np.asarray(keys, dtype=np.uint64), values)[0]

    def _insert(
        self, keys: np.ndarray, values: Optional[Sequence[int]], launch: bool = True
    ) -> Tuple[np.ndarray, int, Optional[FilterFullError]]:
        """The insert loop: hash and order a batch once, place it, and grow.

        Checks the auto-resize threshold once per batch, then places the
        rows.  While rows are left out and the table can grow, it grows
        (outside any kernel launch) and resends only those rows: quotient
        extension keeps each p-bit fingerprint, so the pending rows re-split
        under the new geometry in the order they were sorted in.  Returns
        the per-key mask, the number of rows and the error that left rows
        out (None when every row landed).
        """
        rows, counts = self._insert_rows(keys, values)
        landed = np.zeros(rows.size, dtype=bool)
        if rows.size == 0:
            return landed, 0, None
        self._maybe_grow()
        fingerprints = self.scheme.hash_key(rows)
        todo = self._batch_order(fingerprints)
        quotients, remainders = self.scheme.split(fingerprints[todo])
        # Not kept through the placement (peak memory): the rows left out
        # re-join their fingerprints from their quotients and remainders.
        del fingerprints
        counts = counts[todo]
        while True:
            placed, error = self._place(
                quotients, remainders, counts, not self._can_grow(), launch
            )
            landed[todo[placed]] = True
            if error is None or not self._can_grow():
                break
            left = ~placed
            fingerprints = self.scheme.join(quotients[left], remainders[left])
            self.grow()
            quotients, remainders = self.scheme.split(fingerprints)
            counts, todo = counts[left], todo[left]
        if rows is keys:
            mask = landed
        elif landed.all():
            mask = np.ones(keys.size, dtype=bool)
        else:
            mask = landed[np.searchsorted(rows, keys)]
        return mask, int(rows.size), error

    def _insert_rows(
        self, keys: np.ndarray, values: Optional[Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The count policy: a batch's rows and their counts.

        By default the rows are ``keys`` themselves, and ``values`` are
        counts with 0 counted once; a negative count raises ``ValueError``
        before any state changes, and a design that does not associate
        values refuses non-zero ones.  Rows other than ``keys`` must be its
        sorted distinct keys (the bulk GQF's map-reduce).
        """
        if values is None:
            return keys, np.ones(keys.size, dtype=np.int64)
        if not self.capabilities().values and np.any(np.asarray(values)):
            raise UnsupportedOperationError(f"the {self.name} does not associate values")
        counts = np.asarray(values, dtype=np.int64)
        if counts.size and counts.min() < 0:
            raise ValueError(f"counts must be non-negative, got {int(counts.min())}")
        return keys, np.maximum(1, counts)

    def _batch_order(self, fingerprints: np.ndarray) -> np.ndarray:
        """The order rows are placed in: by fingerprint, sorted host-side.

        No device sort pass is charged; designs whose insert kernel sorts on
        the device charge one here.
        """
        return stable_argsort(fingerprints)

    def _place(
        self,
        quotients: np.ndarray,
        remainders: np.ndarray,
        counts: np.ndarray,
        fill: bool,
        launch: bool = True,
    ) -> Tuple[np.ndarray, Optional[FilterFullError]]:
        """One attempt at placing ordered rows: the core's
        :meth:`~QuotientFilterCore.batch_insert` in the design's insert
        schedule.  ``fill`` as for the core."""
        phases = self._phases(quotients, "insert", launch)
        return self.core.batch_insert(quotients, remainders, counts, phases=phases, fill=fill)

    # ------------------------------------------------------------------ delete
    def delete(self, key: int) -> bool:
        """Delete one occurrence of ``key``: a one-key batch through the
        family's delete, outside any kernel launch."""
        key = np.array([int(key) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return self._delete(key, launch=False) == 1

    def bulk_delete(self, keys: Sequence[int]) -> int:
        """The family's one batched delete: one occurrence per key, through
        :meth:`~QuotientFilterCore.batch_delete` in the design's delete
        schedule.  Returns how many keys removed one."""
        return self._delete(np.asarray(keys, dtype=np.uint64))

    def _delete(self, keys: np.ndarray, launch: bool = True) -> int:
        if keys.size == 0:
            return 0
        quotients, remainders = self._rows(keys, "delete")
        return self.core.batch_delete(
            quotients, remainders, phases=self._phases(quotients, "delete", launch)
        )

    # -------------------------------------------------------- kernels, phases
    def _kernel(self, op: str) -> ContextManager[object]:
        """The design's kernel launch for ``op`` ("insert", "query",
        "count" or "delete")."""
        raise NotImplementedError

    def _phases(self, quotients: np.ndarray, op: str, launch: bool) -> Optional[List[Phase]]:
        """The schedule of one insert attempt or delete over ordered rows:
        one phase of every row inside the ``op`` kernel, or none (the core's
        default, with no launch) for a point call."""
        if not launch:
            return None
        return [(np.ones(quotients.size, dtype=bool), self._kernel(op))]

    # ------------------------------------------------------------------ growth
    def grow(self, extra_quotient_bits: int = 1) -> None:
        """Grow in place to ``2**extra_quotient_bits`` times the slots.

        Quotient extension: the total fingerprint width ``p = q + r`` stays
        fixed and bits move from the remainder to the quotient, so every
        stored fingerprint re-splits exactly under the wider quotient and
        membership and counts are preserved.  Designs that cannot grow (the
        SQF and RSQF, whose packed layouts hold only 5- or 13-bit
        remainders) refuse before any state changes; a GQF extends this to
        rebuild its schedule's state around the extended core.
        """
        if not self.capabilities().resizable:
            raise UnsupportedOperationError(
                f"{type(self).__name__} cannot be resized: its packed layout "
                "supports no narrower remainder"
            )
        self.core = self.core.extended(extra_quotient_bits, name=self.core.slots.name)
        self.n_resizes += extra_quotient_bits

    def _can_grow(self) -> bool:
        """Growth is on and a remainder bit is left to donate."""
        return self.auto_resize and self.scheme.remainder_bits > 1

    # --------------------------------------------------------------- lifecycle
    def snapshot_config(self) -> Dict[str, object]:
        return {
            "quotient_bits": self.scheme.quotient_bits,
            "remainder_bits": self.scheme.remainder_bits,
        }

    def snapshot_state(self) -> Dict[str, np.ndarray]:
        return self.core.export_state()

    def restore_state(self, state: Mapping[str, np.ndarray]) -> None:
        self.core.import_state(state)
