"""The quotient-filter family: every filter built on one ``QuotientFilterCore``.

The paper's GQF (point and bulk API) and its SQF, RSQF and CPU-CQF baselines
share one table layout and differ only in their insert schedules, launch
geometry and supported operations (Table 1).  :class:`QuotientFilter` holds
what they share: sizes, point reads, snapshots, quotient-extension resizing
and the GQF pair's auto-resize policy, all read from the core (including its
one :class:`~repro.hashing.fingerprints.FingerprintScheme`).  Batch routing — the
vectorised merge or the per-item reference path — lives in the core too
(:meth:`QuotientFilterCore.batch_insert` / ``batch_delete`` /
``batch_counts``).  Subclasses keep their constructors, capabilities, kernel
launches and any schedule of their own (the bulk GQF's even-odd phases, the
point GQF's region locks), and each GQF keeps the ``_grow`` step that
rebuilds that schedule's state around the extended core.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ...hashing.fingerprints import FingerprintScheme
from ..base import AbstractFilter
from ..exceptions import CapacityLimitError, UnsupportedOperationError
from .layout import QuotientFilterCore


class QuotientFilter(AbstractFilter):
    """Base of the filters whose table is a :class:`QuotientFilterCore`.

    Subclasses set ``self.core`` in their constructor; a design whose
    constructor takes more than ``quotient_bits`` and ``remainder_bits``
    extends :meth:`snapshot_config`.  A design that grows in place calls
    :meth:`_init_growth` and implements ``_grow(extra_quotient_bits=1)``.
    """

    core: QuotientFilterCore
    #: Grow by quotient extension instead of raising FilterFullError.
    auto_resize = False
    #: Growth steps taken so far.
    n_resizes = 0

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

    def _hash_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(int64 quotients, uint64 remainders)`` of a key batch."""
        return self.scheme.key_to_slot(np.asarray(keys, dtype=np.uint64))

    # ------------------------------------------------------------------ resize
    def _init_growth(self, auto_resize: bool, auto_resize_at: Optional[float]) -> None:
        """Set the auto-resize policy; the threshold defaults to the
        recommended load factor and must lie in (0, 1]."""
        self.auto_resize = bool(auto_resize)
        self.auto_resize_at = float(
            self.recommended_load_factor if auto_resize_at is None else auto_resize_at
        )
        if not 0.0 < self.auto_resize_at <= 1.0:
            raise ValueError("auto_resize_at must be in (0, 1]")
        self.n_resizes = 0

    def _can_grow(self) -> bool:
        """Growth is on and a remainder bit is left to donate."""
        return self.auto_resize and self.scheme.remainder_bits > 1

    def _maybe_grow(self) -> None:
        """Pre-emptive growth once the configured load threshold is crossed."""
        while self._can_grow() and self.load_factor >= self.auto_resize_at:
            self._grow()

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

    def resized(self, extra_quotient_bits: int = 1) -> "QuotientFilter":
        """Return a filter with ``2**extra_quotient_bits`` times the slots.

        Quotient extension: the total fingerprint width ``p = q + r`` stays
        fixed and bits move from the remainder to the quotient, so every
        stored fingerprint re-splits exactly under the wider quotient and
        membership and counts are preserved.  The twin is built from
        :meth:`snapshot_config` with the new geometry; designs whose packed
        layout cannot hold the narrower remainder (the SQF and RSQF) refuse
        with :class:`UnsupportedOperationError`.  ``self`` is left untouched.
        """
        if extra_quotient_bits < 1:
            raise ValueError("resize must grow the filter")
        config = self.snapshot_config()
        if config["remainder_bits"] - extra_quotient_bits < 1:
            raise ValueError("not enough remainder bits to donate to the quotient")
        config["quotient_bits"] += extra_quotient_bits
        config["remainder_bits"] -= extra_quotient_bits
        try:
            out = type(self)._from_snapshot_config(config, recorder=self.recorder)
        except CapacityLimitError as exc:
            raise UnsupportedOperationError(
                f"{type(self).__name__} cannot be resized: its packed layout "
                f"does not support a {config['remainder_bits']}-bit remainder "
                f"({exc})"
            ) from exc
        out.core = self.core.extended(extra_quotient_bits, name=self.core.slots.name)
        return out
