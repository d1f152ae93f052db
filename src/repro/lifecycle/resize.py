"""Online resize entry point: grow any resizable filter by one policy.

Two growth mechanisms exist in the repo, matching the two filter families:

* **Quotient extension** (every
  :class:`~repro.core.gqf.quotient_filter.QuotientFilter`: point and bulk
  GQF, CPU CQF): the total fingerprint width ``p = q + r`` is fixed, so bits
  move from the remainder to the quotient — every stored ``p``-bit
  fingerprint re-splits exactly under the wider quotient and the table
  doubles per donated bit.  Exact, no keys needed.  The family's one
  ``resized()`` builds the twin from the filter's snapshot config.
* **Double-and-rehash** (TCF family): the potc fingerprint derivation is not
  invertible, so growth replays the key journal kept by auto-resizing TCFs
  into a doubled table.  Filters built without ``auto_resize=True`` carry no
  journal and cannot grow.

:func:`expand` dispatches between them, and to any other filter with a
``resized()`` hook (the sharded filter rebalances in place).  The SQF/RSQF
baselines share the quotient family's ``resized()`` but refuse it: their
packed layouts support only 5- or 13-bit remainders, so quotient extension
would leave an unsupported width — the same rigidity the paper calls out.
The Bloom baselines cannot grow at all (a bit array's hash indices are
modulo its size; there is no lossless rehash without the keys).

Auto-resize is the same machinery triggered from inside ``insert`` /
``bulk_insert`` at a configurable load factor; ``expand`` is the explicit
form for callers that want to schedule growth themselves.
"""

from __future__ import annotations

from ..core.base import AbstractFilter
from ..core.exceptions import UnsupportedOperationError
from ..core.tcf.lifecycle import TwoChoiceFilter


def expand(filt: AbstractFilter, extra_quotient_bits: int = 1) -> AbstractFilter:
    """Grow ``filt``, returning the expanded filter.

    Quotient-family filters return a **new** filter with
    ``2**extra_quotient_bits`` times the slots (the input is left
    untouched); TCF-family filters grow **in place** through their key
    journal (``extra_quotient_bits`` counts doublings) and return the same
    object.  Raises :class:`~repro.core.exceptions.UnsupportedOperationError`
    for filters whose structure cannot grow.
    """
    if extra_quotient_bits < 1:
        raise ValueError("expand must grow the filter")
    if isinstance(filt, TwoChoiceFilter):
        if not filt._can_grow():
            raise UnsupportedOperationError(
                f"{type(filt).__name__} keeps no key journal (built without "
                "auto_resize=True): its stored fingerprints cannot be "
                "re-derived, so the table cannot be rehashed larger"
            )
        for _ in range(extra_quotient_bits):
            filt._grow()
        return filt
    if hasattr(filt, "resized"):
        return filt.resized(extra_quotient_bits)
    raise UnsupportedOperationError(
        f"{type(filt).__name__} does not support resizing"
    )
