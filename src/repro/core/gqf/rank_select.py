"""Bit vectors with rank/select support for quotient-filter metadata.

Quotient filters store two metadata bits per slot (``occupieds`` and
``runends``) and navigate between canonical slots and run boundaries with
rank and select:

* ``rank(B, i)``   — number of set bits in ``B[0..i]`` (inclusive);
* ``select(B, k)`` — position of the ``k``-th set bit (1-indexed).

:class:`Bitvector` is the workhorse used by the GQF/SQF/CQF cores.  It keeps
its bits **packed into little-endian uint64 words** — the same layout the
GPU (and the reference CQF) uses — so rank is a popcount over whole words,
select is a cumulative popcount plus one in-word :func:`select64`, and the
navigation helpers scan 64 slots per word instead of one boolean per slot.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

if hasattr(np, "bitwise_count"):
    _popcount_words = np.bitwise_count
else:  # pragma: no cover - NumPy < 2.0 fallback
    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)

    def _popcount_words(words: np.ndarray) -> np.ndarray:
        w = words - ((words >> np.uint64(1)) & _M1)
        w = (w & _M2) + ((w >> np.uint64(2)) & _M2)
        w = (w + (w >> np.uint64(4))) & _M4
        return (w * _H01) >> np.uint64(56)


def select64(word: int, k: int) -> int:
    """Position (0-based) of the ``k``-th (1-indexed) set bit of a 64-bit word.

    Returns 64 when the word has fewer than ``k`` set bits (CUDA/x86
    convention for "not found").
    """
    word = int(word) & 0xFFFFFFFFFFFFFFFF
    if k <= 0:
        raise ValueError("k must be >= 1")
    bits = np.unpackbits(
        np.array([word], dtype=np.uint64).view(np.uint8), bitorder="little"
    )
    cum = np.cumsum(bits)
    pos = int(np.searchsorted(cum, k, side="left"))
    return pos if pos < _WORD_BITS else _WORD_BITS


def _low_bit(word: int) -> int:
    """Index of the lowest set bit of a nonzero word."""
    return (word & -word).bit_length() - 1


def _high_bit(word: int) -> int:
    """Index of the highest set bit of a nonzero word."""
    return word.bit_length() - 1


def _low_bits(words: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_low_bit`: count the zeros below the lowest set bit."""
    return _popcount_words((words & (~words + np.uint64(1))) - np.uint64(1)).astype(np.int64)


def _high_bits(words: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_high_bit`: smear each word's top bit down, count."""
    x = words.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        x |= x >> np.uint64(shift)
    return _popcount_words(x).astype(np.int64) - 1


class Bitvector:
    """A fixed-length bit vector with rank/select queries.

    Bits are stored packed into little-endian uint64 words; the padding bits
    past ``n_bits`` in the final word are kept zero as a class invariant.

    Parameters
    ----------
    n_bits:
        Length of the vector; all bits start cleared.
    """

    __slots__ = ("n_bits", "n_words", "words")

    def __init__(self, n_bits: int) -> None:
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        self.n_bits = int(n_bits)
        self.n_words = (self.n_bits + _WORD_BITS - 1) // _WORD_BITS
        self.words = np.zeros(self.n_words, dtype=np.uint64)

    # ------------------------------------------------------------- internals
    @property
    def _pad_mask(self) -> np.uint64:
        """Mask of the valid bits within the final word."""
        tail = self.n_bits & 63
        if tail == 0:
            return _ALL_ONES
        return _ALL_ONES >> np.uint64(_WORD_BITS - tail)

    def _index(self, index: int) -> int:
        index = int(index)
        if index < 0:
            index += self.n_bits
        if not 0 <= index < self.n_bits:
            raise IndexError(f"bit index {index} out of range for {self.n_bits} bits")
        return index

    def _get_chunk(self, w0: int, w1: int) -> np.ndarray:
        """Unpack words ``[w0, w1)`` into a uint8 0/1 array (64 per word)."""
        return np.unpackbits(self.words[w0:w1].view(np.uint8), bitorder="little")

    def _put_chunk(self, w0: int, w1: int, chunk: np.ndarray) -> None:
        self.words[w0:w1] = np.packbits(chunk, bitorder="little").view(np.uint64)

    # ----------------------------------------------------------- bit access
    @property
    def bits(self) -> np.ndarray:
        """The bits as a read-only boolean array (host-side/debug view)."""
        out = np.unpackbits(
            self.words.view(np.uint8), count=self.n_bits, bitorder="little"
        ).view(np.bool_)
        out.flags.writeable = False
        return out

    def get(self, index: int) -> bool:
        """Return bit ``index``."""
        index = self._index(index)
        return bool((self.words[index >> 6] >> np.uint64(index & 63)) & np.uint64(1))

    def get_batch(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`get` (positions must be in range)."""
        positions = np.asarray(positions, dtype=np.int64)
        bit = (positions & 63).astype(np.uint64)
        return ((self.words[positions >> 6] >> bit) & np.uint64(1)).astype(bool)

    def set(self, index: int, value: bool = True) -> None:
        """Set (or clear) bit ``index``."""
        index = self._index(index)
        mask = np.uint64(1) << np.uint64(index & 63)
        if value:
            self.words[index >> 6] |= mask
        else:
            self.words[index >> 6] &= ~mask

    def clear(self, index: int) -> None:
        """Clear bit ``index``."""
        self.set(index, False)

    def _apply_range(self, start: int, stop: int, value: bool) -> None:
        start = max(int(start), 0)
        stop = min(int(stop), self.n_bits)
        if stop <= start:
            return
        w0, w1 = start >> 6, (stop - 1) >> 6
        head = _ALL_ONES << np.uint64(start & 63)
        tail = _ALL_ONES >> np.uint64(63 - ((stop - 1) & 63))
        if w0 == w1:
            mask = head & tail
            if value:
                self.words[w0] |= mask
            else:
                self.words[w0] &= ~mask
            return
        if value:
            self.words[w0] |= head
            self.words[w0 + 1 : w1] = _ALL_ONES
            self.words[w1] |= tail
        else:
            self.words[w0] &= ~head
            self.words[w0 + 1 : w1] = 0
            self.words[w1] &= ~tail

    def set_range(self, start: int, stop: int) -> None:
        """Set bits in ``[start, stop)`` (word-masked, no per-bit loop)."""
        self._apply_range(start, stop, True)

    def clear_range(self, start: int, stop: int) -> None:
        """Clear bits in ``[start, stop)``."""
        self._apply_range(start, stop, False)

    def assign_spans(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        positions: np.ndarray,
        report_cleared: bool = False,
    ) -> Optional[np.ndarray]:
        """Set the bits inside the disjoint, ascending ranges ``[starts[i],
        stops[i])`` exactly at ``positions`` (which lie inside them); bits
        outside keep their values.  With ``report_cleared``, returns the
        positions whose bits this cleared.

        The words strictly inside a range are zeroed and its edge words
        masked; then the words from the first range to the last are
        unpacked (one byte per bit), given their new bits and packed back.
        """
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if starts.size == 0:
            return np.zeros(0, dtype=np.int64) if report_cleared else None
        first_w, last_w = starts >> 6, (stops - 1) >> 6
        w0, w1 = int(first_w[0]), int(last_w[-1]) + 1
        before = self.words[w0:w1].copy() if report_cleared else None
        inner = np.bincount(first_w + 1 - w0, minlength=w1 - w0 + 1)
        inner -= np.bincount(np.maximum(last_w, first_w + 1) - w0, minlength=w1 - w0 + 1)
        self.words[w0:w1][np.cumsum(inner[:-1]) > 0] = 0
        head = _ALL_ONES << (starts & 63).astype(np.uint64)
        tail = _ALL_ONES >> (np.uint64(63) - ((stops - 1) & 63).astype(np.uint64))
        one_word = first_w == last_w
        np.bitwise_and.at(
            self.words,
            np.concatenate((first_w, last_w[~one_word])),
            ~np.concatenate((np.where(one_word, head & tail, head), tail[~one_word])),
        )
        buf = self._get_chunk(w0, w1)
        buf[np.asarray(positions, dtype=np.int64) - (w0 << 6)] = 1
        self._put_chunk(w0, w1, buf)
        if before is None:
            return None
        dropped = before & ~self.words[w0:w1]
        hit = np.flatnonzero(dropped)
        bits = np.flatnonzero(np.unpackbits(dropped[hit].view(np.uint8), bitorder="little"))
        return ((hit[bits >> 6] + w0) << 6) + (bits & 63)

    def count(self) -> int:
        """Total number of set bits."""
        return int(_popcount_words(self.words).astype(np.int64).sum())

    # ------------------------------------------------------------ rank/select
    def rank(self, index: int) -> int:
        """Number of set bits in ``[0, index]`` (inclusive).

        ``rank(-1)`` is 0 by convention.
        """
        if index < 0:
            return 0
        index = min(index, self.n_bits - 1)
        w = index >> 6
        partial = self.words[w] & (_ALL_ONES >> np.uint64(63 - (index & 63)))
        full = int(_popcount_words(self.words[:w]).astype(np.int64).sum())
        return full + int(_popcount_words(np.uint64(partial)))

    def _cum_popcounts(self) -> np.ndarray:
        return np.cumsum(_popcount_words(self.words).astype(np.int64))

    def rank_batch(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank` of every entry of ``positions``.

        One word-prefix popcount over the vector plus one masked in-word
        popcount per probe — O(m + n/64), with no per-bit work — so small
        batches never pay for more than the packed words.  Same clamping as
        :meth:`rank`: negative positions rank 0, positions past the end rank
        the whole vector.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.zeros(0, dtype=np.int64)
        pos = np.clip(positions, 0, self.n_bits - 1)
        w = pos >> 6
        words = self.words[w]
        # Bits of word w strictly above the position: inclusive prefix count
        # through word w minus those.
        above = words & ~(_ALL_ONES >> (np.uint64(63) - (pos & 63).astype(np.uint64)))
        ranks = self._cum_popcounts()[w] - _popcount_words(above).astype(np.int64)
        return np.where(positions < 0, 0, ranks)

    def select(self, k: int) -> Optional[int]:
        """Position of the ``k``-th set bit (1-indexed); None if fewer exist."""
        if k <= 0:
            raise ValueError("select is 1-indexed: k must be >= 1")
        cum = self._cum_popcounts()
        if k > int(cum[-1]):
            return None
        w = int(np.searchsorted(cum, k, side="left"))
        prior = int(cum[w - 1]) if w else 0
        return (w << 6) + select64(int(self.words[w]), k - prior)

    # ------------------------------------------------------------- navigation
    def next_set(self, start: int) -> Optional[int]:
        """First set bit at or after ``start`` (None if none)."""
        start = max(int(start), 0)
        if start >= self.n_bits:
            return None
        w0 = start >> 6
        masked = int(self.words[w0] & (_ALL_ONES << np.uint64(start & 63)))
        if masked:
            return (w0 << 6) + _low_bit(masked)
        nz = np.flatnonzero(self.words[w0 + 1 :])
        if nz.size == 0:
            return None
        w = w0 + 1 + int(nz[0])
        return (w << 6) + _low_bit(int(self.words[w]))

    def next_unset(self, start: int) -> Optional[int]:
        """First cleared bit at or after ``start`` (None if none)."""
        start = max(int(start), 0)
        if start >= self.n_bits:
            return None
        w0 = start >> 6
        inv = (~self.words[w0]) & (_ALL_ONES << np.uint64(start & 63))
        if w0 == self.n_words - 1:
            inv &= self._pad_mask
        if int(inv):
            return (w0 << 6) + _low_bit(int(inv))
        nz = np.flatnonzero(self.words[w0 + 1 :] != _ALL_ONES)
        for offset in nz:
            w = w0 + 1 + int(offset)
            inv = ~self.words[w]
            if w == self.n_words - 1:
                inv &= self._pad_mask
            if int(inv):
                return (w << 6) + _low_bit(int(inv))
        return None

    def prev_unset(self, start: int) -> Optional[int]:
        """Last cleared bit at or before ``start`` (None if none)."""
        if start < 0:
            return None
        start = min(int(start), self.n_bits - 1)
        w0 = start >> 6
        inv = int((~self.words[w0]) & (_ALL_ONES >> np.uint64(63 - (start & 63))))
        if inv:
            return (w0 << 6) + _high_bit(inv)
        full = np.flatnonzero(self.words[:w0] != _ALL_ONES)
        if full.size == 0:
            return None
        w = int(full[-1])
        return (w << 6) + _high_bit(int(~self.words[w] & _ALL_ONES))

    def next_unset_batch(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`next_unset` (``n_bits`` where no cleared bit
        follows), searched as :meth:`prev_unset_batch` searches."""
        positions = np.asarray(positions, dtype=np.int64)
        w = positions >> 6
        inv = ~self.words[w] & (_ALL_ONES << (positions & 63).astype(np.uint64))
        out = (w << 6) + _low_bits(inv)
        far = np.flatnonzero(inv == 0)
        if far.size:
            # The final word's padding bits read as cleared, past n_bits.
            open_words = np.flatnonzero(self.words != _ALL_ONES)
            k = np.searchsorted(open_words, w[far], side="right")
            after = k < open_words.size
            nxt = open_words[k[after]]
            out[far] = self.n_bits
            out[far[after]] = (nxt << 6) + _low_bits(~self.words[nxt])
        return np.minimum(out, self.n_bits)

    def prev_unset_batch(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`prev_unset` (-1 where no cleared bit precedes).

        One masked in-word search per position; positions whose word has no
        cleared bit at or below them look up the last non-full word before
        it (one O(n/64) pass over the words).
        """
        positions = np.asarray(positions, dtype=np.int64)
        w = positions >> 6
        below = _ALL_ONES >> (np.uint64(63) - (positions & 63).astype(np.uint64))
        inv = ~self.words[w] & below
        out = (w << 6) + _high_bits(inv)
        far = np.flatnonzero(inv == 0)
        if far.size:
            open_words = np.flatnonzero(self.words != _ALL_ONES)
            k = np.searchsorted(open_words, w[far]) - 1
            prev = open_words[np.maximum(k, 0)] if open_words.size else np.zeros_like(k)
            out[far] = np.where(k >= 0, (prev << 6) + _high_bits(~self.words[prev]), -1)
        return out

    def set_positions(self, start: int, stop: int) -> np.ndarray:
        """Positions of set bits within ``[start, stop)``."""
        start = max(int(start), 0)
        stop = min(int(stop), self.n_bits)
        if stop <= start:
            return np.zeros(0, dtype=np.int64)
        w0, w1 = start >> 6, (stop + 63) >> 6
        chunk = self._get_chunk(w0, w1)
        base = w0 << 6
        return (start + np.flatnonzero(chunk[start - base : stop - base])).astype(
            np.int64
        )

    # -------------------------------------------------------------- shifting
    def shift_right_one(self, start: int, stop: int) -> None:
        """Shift bits ``[start, stop)`` one position right (towards stop).

        Bit ``stop`` receives the old bit ``stop - 1``; bit ``start`` is
        cleared.  Used when Robin-Hood insertion shifts remainders: the
        ``runends`` bits move with their slots.
        """
        if stop <= start:
            return
        if stop >= self.n_bits:
            raise IndexError("shift would run past the end of the bit vector")
        w0, w1 = start >> 6, (stop >> 6) + 1
        chunk = self._get_chunk(w0, w1)
        base = w0 << 6
        s, e = start - base, stop - base
        chunk[s + 1 : e + 1] = chunk[s:e]
        chunk[s] = 0
        self._put_chunk(w0, w1, chunk)

    # ------------------------------------------------------------ packed view
    def to_words(self) -> np.ndarray:
        """Export the bits as packed little-endian uint64 words."""
        return self.words.copy()

    @classmethod
    def from_words(cls, words: np.ndarray, n_bits: int) -> "Bitvector":
        """Build a bit vector from packed uint64 words."""
        words = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
        bv = cls(n_bits)
        bv.words[: words.size] = words[: bv.n_words]
        bv.words[-1] &= bv._pad_mask
        return bv

    @classmethod
    def adopt_words(cls, words: np.ndarray, n_bits: int) -> "Bitvector":
        """Wrap an existing packed-word buffer **without copying**.

        The shared-memory path of :mod:`repro.sharding`: the returned vector
        reads and mutates ``words`` in place, so two processes adopting the
        same buffer observe each other's updates.  ``words`` must be a
        C-contiguous uint64 array of exactly the word count ``n_bits``
        requires; the caller keeps the padding-bits-zero invariant (exported
        words always satisfy it).
        """
        if not isinstance(words, np.ndarray) or words.dtype != np.uint64:
            raise TypeError("adopt_words needs a uint64 ndarray")
        bv = cls(n_bits)
        if words.size != bv.n_words or not words.flags.c_contiguous:
            raise ValueError(
                f"adopt_words needs a contiguous buffer of {bv.n_words} words "
                f"for {n_bits} bits, got {words.size}"
            )
        bv.words = words
        return bv

    def __len__(self) -> int:
        return self.n_bits

    def __repr__(self) -> str:  # pragma: no cover
        return f"Bitvector(n_bits={self.n_bits}, set={self.count()})"
