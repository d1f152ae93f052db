"""Variable-sized counter encoding for the counting quotient filter.

The CQF (and therefore the GQF) stores the multiplicity of a repeated
fingerprint *in line*, inside the same remainder slots that hold the
fingerprints, using a variable-length encoding.  This is what gives the
counting quotient filter its asymptotically optimal space even on highly
skewed multisets: an item occurring ``C`` times costs
:math:`O(\\log_{2^r} C)` extra slots, not ``C`` slots.

Encoding used here (equivalent in structure and asymptotics to Pandey et
al.'s scheme; the digit alphabet is chosen for a clean, unambiguous
specification and documented deviations are noted in DESIGN.md):

* remainders within a run are kept in ascending order;
* an item with remainder ``x`` and count ``C`` is encoded as

  ===========  ==========================================================
  ``C == 1``   ``[x]``
  ``C == 2``   ``[x, x]``
  ``C >= 3``   ``[x, d_0, ..., d_{k-1}, x]`` with every digit ``d_i < x``
               and the digits encoding ``C - 3`` in base ``x``
               (most-significant digit first)
  ===========  ==========================================================

* remainders ``0`` and ``1`` cannot host digits (no smaller values exist),
  so they fall back to unary: ``C`` copies of the remainder.  Such tiny
  remainders occur with probability :math:`2^{1-r}`, so the space impact is
  negligible for the 8/16/32-bit remainders the GQF supports.

Decoding is unambiguous: scanning a run left to right, a value smaller than
the current remainder can only be a counter digit (run order is ascending),
and the counter is terminated by the next occurrence of the remainder
itself.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: Remainder values that use unary encoding because they cannot host digits.
UNARY_REMAINDERS = (0, 1)


def slots_for_count(remainder: int, count: int) -> int:
    """Number of slots the encoding of ``(remainder, count)`` occupies."""
    return len(encode_item(remainder, count))


def encode_item(remainder: int, count: int) -> List[int]:
    """Encode one ``(remainder, count)`` pair into a list of slot values."""
    remainder = int(remainder)
    count = int(count)
    if count <= 0:
        raise ValueError("count must be positive")
    if remainder < 0:
        raise ValueError("remainder must be non-negative")
    if remainder in UNARY_REMAINDERS:
        return [remainder] * count
    if count == 1:
        return [remainder]
    if count == 2:
        return [remainder, remainder]
    # count >= 3: digits of (count - 3) in base `remainder`, MSD first.
    value = count - 3
    digits: List[int] = []
    if value == 0:
        digits = [0]
    else:
        while value > 0:
            digits.append(value % remainder)
            value //= remainder
        digits.reverse()
    return [remainder] + digits + [remainder]


def encode_run(items: Sequence[Tuple[int, int]]) -> List[int]:
    """Encode a whole run (list of ``(remainder, count)`` pairs).

    The items are sorted by remainder before encoding, matching the run
    invariant; duplicate remainders are merged by summing their counts.
    """
    merged: dict[int, int] = {}
    for remainder, count in items:
        if count <= 0:
            raise ValueError("counts must be positive")
        merged[int(remainder)] = merged.get(int(remainder), 0) + int(count)
    out: List[int] = []
    for remainder in sorted(merged):
        out.extend(encode_item(remainder, merged[remainder]))
    return out


def decode_run(slots: Iterable[int]) -> List[Tuple[int, int]]:
    """Decode a run's slot values back into ``(remainder, count)`` pairs.

    Raises ``ValueError`` on malformed encodings (e.g. an unterminated
    counter), which the property tests rely on to catch corruption.
    """
    values = [int(v) for v in slots]
    items: List[Tuple[int, int]] = []
    i = 0
    n = len(values)
    while i < n:
        x = values[i]
        if x in UNARY_REMAINDERS:
            count = 1
            i += 1
            while i < n and values[i] == x:
                count += 1
                i += 1
            items.append((x, count))
            continue
        # Look ahead to classify.
        if i + 1 >= n or values[i + 1] > x:
            items.append((x, 1))
            i += 1
            continue
        if values[i + 1] == x:
            items.append((x, 2))
            i += 2
            continue
        # values[i+1] < x: counter digits until the closing x.
        j = i + 1
        digits: List[int] = []
        while j < n and values[j] < x:
            digits.append(values[j])
            j += 1
        if j >= n or values[j] != x:
            raise ValueError(
                f"malformed counter encoding for remainder {x}: missing terminator"
            )
        value = 0
        for digit in digits:
            value = value * x + digit
        items.append((x, value + 3))
        i = j + 1
    # Verify the run invariant (ascending remainders).
    remainders = [rem for rem, _ in items]
    if remainders != sorted(remainders):
        raise ValueError("decoded run is not in ascending remainder order")
    return items


def increment(
    items: List[Tuple[int, int]], remainder: int, delta: int = 1
) -> List[Tuple[int, int]]:
    """Return a new item list with ``remainder``'s count increased by ``delta``.

    Appends the remainder with count ``delta`` if it was not present.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    out: List[Tuple[int, int]] = []
    found = False
    for rem, count in items:
        if rem == remainder:
            out.append((rem, count + delta))
            found = True
        else:
            out.append((rem, count))
    if not found:
        out.append((int(remainder), int(delta)))
    out.sort(key=lambda rc: rc[0])
    return out


def decrement(
    items: List[Tuple[int, int]], remainder: int, delta: int = 1
) -> Tuple[List[Tuple[int, int]], bool]:
    """Decrease ``remainder``'s count by ``delta`` (removing it at zero).

    Returns ``(new_items, found)``.  ``found`` is False when the remainder
    was not present, in which case the items are returned unchanged.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    out: List[Tuple[int, int]] = []
    found = False
    for rem, count in items:
        if rem == remainder and not found:
            found = True
            new_count = count - delta
            if new_count > 0:
                out.append((rem, new_count))
        else:
            out.append((rem, count))
    return out, found


def is_plain_run(values: np.ndarray) -> bool:
    """True when a run's slot values decode to singletons (count 1 each).

    Strictly increasing values can contain neither counter digits (a digit
    is always smaller than the remainder preceding it) nor duplicates (a
    count of 2+ always produces a repeated remainder), so the run needs no
    counter decoding.  This is the single definition of the fast-path
    invariant; change it together with the encoding above.
    """
    values = np.asarray(values)
    return values.size <= 1 or bool(np.all(values[1:] > values[:-1]))


def plain_run_mask(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vectorised :func:`is_plain_run` over many concatenated runs.

    ``values`` holds every run's slots back to back; ``offsets`` is the
    cumulative boundary array (``len(runs) + 1`` entries, starting at 0).
    Returns one boolean per run.
    """
    increasing = np.ones(values.size, dtype=bool)
    increasing[1:] = values[1:] > values[:-1]
    increasing[offsets[:-1]] = True
    return np.logical_and.reduceat(increasing, offsets[:-1])


def encoded_lengths(remainders: np.ndarray, counts: np.ndarray, counting: bool) -> np.ndarray:
    """Vectorised :func:`slots_for_count` (0 for a count of 0).

    A non-counting table stores each occurrence in its own slot.  In a
    counting one, an item with a digit-hosting remainder ``x`` and count
    ``C >= 3`` takes its two remainder slots plus the base-``x`` digits of
    ``C - 3`` (at least one).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if not counting or not (counts > 2).any():
        # Below 3, a count is that many copies of the remainder.
        return counts.copy()
    remainders = np.asarray(remainders, dtype=np.uint64)
    lens = np.minimum(counts, 2)
    unary = remainders < len(UNARY_REMAINDERS)
    lens[unary] = counts[unary]
    digit_items = np.flatnonzero((counts >= 3) & ~unary)
    if digit_items.size:
        base = remainders[digit_items].astype(np.int64)
        rest = (counts[digit_items] - 3) // base
        n_digits = np.ones(digit_items.size, dtype=np.int64)
        while rest.any():
            n_digits += rest > 0
            rest //= base
        lens[digit_items] = 2 + n_digits
    return lens


def encode_flat(
    remainders: np.ndarray,
    counts: np.ndarray,
    counting: bool,
    dtype: np.dtype,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised run encoder for a batch of ``(remainder, count)`` items.

    ``remainders``/``counts`` describe already-merged items in run order
    (ascending remainder within each run).  Returns ``(flat_values,
    enc_lens)`` where ``flat_values`` is the concatenation of every item's
    slot encoding and ``enc_lens[i]`` is the number of slots item ``i``
    occupies.  Counts of 1 and 2 — the overwhelmingly common cases — are
    encoded without any per-item Python work; only items that need counter
    digits (count >= 3 with a digit-hosting remainder) fall back to
    :func:`encode_item`.
    """
    remainders = np.asarray(remainders, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    if remainders.size == 0:
        return np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64)
    if counts.min() == counts.max() == 1:
        # Every item is one slot holding its remainder (read-only lengths).
        return remainders.astype(dtype), np.broadcast_to(np.int64(1), counts.shape)
    if not counting:
        enc_lens = counts.copy()
        flat = np.repeat(remainders, enc_lens).astype(dtype, copy=False)
        return flat, enc_lens
    enc_lens = encoded_lengths(remainders, counts, counting)
    digit_items = np.flatnonzero(enc_lens > np.minimum(counts, 2))
    digit_items = digit_items[remainders[digit_items] >= len(UNARY_REMAINDERS)]
    encodings = [encode_item(int(remainders[i]), int(counts[i])) for i in digit_items]
    flat = np.repeat(remainders.astype(dtype), enc_lens)
    if encodings:
        # An item's first slot is its index plus the extra slots of the
        # multi-slot items before it.
        multi = np.flatnonzero(enc_lens > 1)
        extra = np.concatenate(([0], np.cumsum(enc_lens[multi] - 1)))
        offsets = digit_items + extra[np.searchsorted(multi, digit_items)]
        for offset, enc in zip(offsets.tolist(), encodings):
            flat[offset : offset + len(enc)] = enc
    return flat, enc_lens
