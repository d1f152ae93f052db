"""Double-hashing backing table for the TCF.

The TCF's cache-line-sized blocks are much smaller than the CPU vector
quotient filter's blocks, so the load variance across blocks is higher and,
without help, the filter can only reach ~79.6 % load factor before an insert
finds both candidate blocks full.  The paper's solution — to our knowledge
the first filter to use one — is a small *backing store*: a double-hashing
hash table sized to 1/100th of the main table that absorbs the <<1 % of items
whose blocks are full, raising the achievable load factor to 90 %.

Positive queries rarely touch the backing table, but negative queries must
always probe at least one backing bucket (and up to ``max_probes`` in the
worst case), which is exactly the asymmetry the paper reports for
false-positive query performance.

The point API probes lazily — one bucket at a time, stopping at the first
match or the first bucket with an empty slot.  The bulk API processes a whole
batch per probe round: all still-unresolved keys gather their round-``i``
bucket at once, so a batch of *n* keys costs a handful of vectorised passes
instead of *n* Python loops.  A bucket's ``BUCKET_WIDTH`` one-byte flags
(match, empty) are one 8-byte word, so each bucket test is one ``uint64``
compare (:func:`_any_slot`), not a 2-D reduction.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ...gpusim.atomics import atomic_cas
from ...gpusim.memory import DeviceArray
from ...gpusim.sorting import group_ranks, run_first_mask, stable_argsort
from ...gpusim.stats import StatsRecorder
from ...hashing.mixers import murmur64_mix, splitmix64
from .config import EMPTY_SLOT, TOMBSTONE_SLOT, TCFConfig

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _any_slot(flags: np.ndarray) -> np.ndarray:
    """Per row of ``(n, BUCKET_WIDTH)`` bool flags, read as one word: any set?"""
    return flags.view(np.uint64)[:, 0] != 0


class BackingTable:
    """A small double-hashing table storing (fingerprint, value) overflow items.

    Keys are stored as full 64-bit hashed keys (not truncated fingerprints),
    so the backing table contributes no additional false positives beyond the
    main table's — its job is purely to absorb overflow.

    Parameters
    ----------
    n_buckets:
        Number of bucket groups; each bucket holds ``bucket_width`` slots.
    config:
        The owning TCF's configuration (for value packing).
    recorder:
        Stats recorder shared with the owning filter.
    max_probes:
        Maximum number of buckets probed before giving up (20 in the paper's
        worst-case negative-query description).
    """

    #: Slots per backing bucket (one cache line of 64-bit entries).
    BUCKET_WIDTH = 8

    def __init__(
        self,
        n_buckets: int,
        config: TCFConfig,
        recorder: StatsRecorder,
        max_probes: int = 20,
        name: str = "tcf-backing",
    ) -> None:
        self.n_buckets = max(1, int(n_buckets))
        self.config = config
        self.recorder = recorder
        self.max_probes = int(max_probes)
        self.keys = DeviceArray(
            self.n_buckets * self.BUCKET_WIDTH,
            np.uint64,
            recorder,
            fill=EMPTY_SLOT,
            name=f"{name}-keys",
        )
        self.values = DeviceArray(
            self.n_buckets * self.BUCKET_WIDTH,
            np.uint64,
            recorder,
            fill=0,
            name=f"{name}-values",
        )
        self._n_items = 0

    # ------------------------------------------------------------------ sizes
    @property
    def n_slots(self) -> int:
        return self.n_buckets * self.BUCKET_WIDTH

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + (self.values.nbytes if self.config.value_bits else 0)

    @property
    def n_items(self) -> int:
        return self._n_items

    @property
    def load_factor(self) -> float:
        return self._n_items / self.n_slots if self.n_slots else 0.0

    # ----------------------------------------------------------------- probing
    def _probe_sequence(self, key: int) -> Iterator[int]:
        """Bucket indices visited for ``key`` (double hashing, odd stride).

        Lazily yields one bucket at a time so callers that stop at the first
        match or empty bucket (the common case) never pay for the full
        ``max_probes`` sequence.  Arithmetic wraps at 64 bits, matching the
        vectorised batch probing exactly.
        """
        key = int(key) & _MASK64
        h1 = int(murmur64_mix(np.uint64(key)))
        h2 = int(splitmix64(np.uint64(key))) | 1
        cursor = h1
        for _ in range(self.max_probes):
            yield cursor % self.n_buckets
            cursor = (cursor + h2) & _MASK64

    def _hash_batch(
        self, keys: np.ndarray, mixes: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-key (start, stride) of the double-hashing probe sequence.

        ``mixes`` are the keys' ``(murmur64_mix, splitmix64)`` values when
        the caller already holds them (the TCF's addressing derives from the
        same two); otherwise they are computed here.
        """
        if mixes is None:
            keys = np.asarray(keys, dtype=np.uint64)
            mixes = murmur64_mix(keys), splitmix64(keys)
        h1, h2 = mixes
        return np.asarray(h1, dtype=np.uint64), np.asarray(h2, dtype=np.uint64) | np.uint64(1)

    def _probe_round(self, h1: np.ndarray, h2: np.ndarray, round_idx: int) -> np.ndarray:
        """Round-``i`` bucket per key (uint64 wraparound, then modulo)."""
        cursor = h1 + np.uint64(round_idx) * h2  # wraps at 2^64, as the point path
        return (cursor % np.uint64(self.n_buckets)).astype(np.int64)

    def _encode_key(self, key: int) -> int:
        """Stored key encoding; the reserved sentinels are displaced."""
        key = int(key) & _MASK64
        if key in (EMPTY_SLOT, TOMBSTONE_SLOT):
            key += 2
        return key

    def _encode_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_encode_key` (the sentinels are words 0 and 1)."""
        stored = np.asarray(keys, dtype=np.uint64).copy()
        stored[stored <= np.uint64(TOMBSTONE_SLOT)] += np.uint64(2)
        return stored

    def _bucket_windows(self, buckets: np.ndarray) -> np.ndarray:
        """Host-side view of the ``(n, BUCKET_WIDTH)`` key windows probed.

        The per-bucket cache-line read is charged by the caller (one line per
        probing key, as the point path's ``read_range`` does).
        """
        return np.take(self.keys.peek().reshape(-1, self.BUCKET_WIDTH), buckets, axis=0)

    # ------------------------------------------------------------------ insert
    def insert(self, key: int, value: int = 0) -> bool:
        """Insert an overflow item; returns False when the table is full."""
        stored = self._encode_key(key)
        for bucket in self._probe_sequence(key):
            start = int(bucket) * self.BUCKET_WIDTH
            slots = self.keys.read_range(start, start + self.BUCKET_WIDTH)
            free = np.flatnonzero((slots == EMPTY_SLOT) | (slots == TOMBSTONE_SLOT))
            for offset in free:
                expected = slots[int(offset)]
                swapped, _old = atomic_cas(self.keys, start + int(offset), expected, stored)
                if swapped:
                    if self.config.value_bits:
                        self.values.write(start + int(offset), value)
                    self._n_items += 1
                    return True
        return False

    def bulk_insert(
        self, keys: Sequence[int], values: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Vectorised insert of a batch; returns a per-key success mask.

        Each probe round resolves every still-unplaced key at once: the
        round's buckets are gathered, free slots are assigned *positionally*
        by each key's rank inside its bucket group (so duplicate keys and
        bucket collisions never race for one slot), and the leftovers carry
        to the next round.  Hardware events mirror the point path: one
        cache-line read per (key, bucket probed), one atomic CAS (32-byte
        read + write) per placement, one line write per value stored.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        placed = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return placed
        if values is None:
            values = np.zeros(keys.size, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        stored = self._encode_batch(keys)
        h1, h2 = self._hash_batch(keys)
        data = self.keys.peek()
        pending = np.arange(keys.size)
        for round_idx in range(self.max_probes):
            if pending.size == 0:
                break
            buckets = self._probe_round(h1[pending], h2[pending], round_idx)
            self.recorder.add(cache_line_reads=int(pending.size))
            windows = self._bucket_windows(buckets)
            free_mask = (windows == np.uint64(EMPTY_SLOT)) | (
                windows == np.uint64(TOMBSTONE_SLOT)
            )
            n_free = free_mask.sum(axis=1)
            # Rank each key inside its bucket group (batch order preserved).
            order = stable_argsort(buckets)
            rank = group_ranks(buckets[order])
            take = rank < n_free[order]
            if take.any():
                rows = order[take]
                # The rank-th free slot of each window, free slots first.
                # audit: ignore[AUD107] - per-row 2-D argsort over 8-slot windows
                free_order = np.argsort(~free_mask, axis=1, kind="stable")
                slot_offsets = free_order[rows, rank[take]]
                flat = buckets[rows] * self.BUCKET_WIDTH + slot_offsets
                winners = pending[rows]
                data[flat] = stored[winners]
                self.recorder.add(
                    atomic_ops=int(rows.size),
                    coalesced_bytes_read=32 * int(rows.size),
                    coalesced_bytes_written=32 * int(rows.size),
                )
                if self.config.value_bits:
                    self.values.peek()[flat] = values[winners]
                    self.recorder.add(cache_line_writes=int(rows.size))
                placed[winners] = True
                self._n_items += int(rows.size)
            pending = pending[order[~take]] if (~take).any() else pending[:0]
        return placed

    # ------------------------------------------------------------------- query
    def query(self, key: int) -> Optional[int]:
        """Return the stored value for ``key`` (0 when values are disabled).

        Probing stops early at a bucket containing an empty slot, because an
        insert would have used that slot: the item cannot be further along
        the probe sequence.
        """
        stored = self._encode_key(key)
        for bucket in self._probe_sequence(key):
            start = int(bucket) * self.BUCKET_WIDTH
            slots = self.keys.read_range(start, start + self.BUCKET_WIDTH)
            matches = np.flatnonzero(slots == stored)
            if matches.size:
                offset = int(matches[0])
                if self.config.value_bits:
                    return int(self.values.read(start + offset))
                return 0
            if np.any(slots == EMPTY_SLOT):
                return None
        return None

    def contains(self, key: int) -> bool:
        return self.query(key) is not None

    def bulk_contains(
        self, keys: Sequence[int], mixes: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> np.ndarray:
        """Vectorised membership for a batch; returns a boolean array.

        Keys resolve as soon as their probe round either matches (present)
        or lands in a bucket with an empty slot (definitely absent); only
        unresolved keys continue, so the typical negative query costs one
        round, exactly like the point path.  ``mixes``: see
        :meth:`_hash_batch`.
        """
        found, _values = self.bulk_query_values(keys, mixes)
        return found

    def bulk_query_values(
        self, keys: Sequence[int], mixes: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised lookup: ``(found mask, stored values)`` per key."""
        keys = np.asarray(keys, dtype=np.uint64)
        found = np.zeros(keys.size, dtype=bool)
        out_values = np.zeros(keys.size, dtype=np.uint64)
        if keys.size == 0:
            return found, out_values
        stored = self._encode_batch(keys)
        cursor, h2 = self._hash_batch(keys, mixes)
        # Round 0 probes with the batch's own arrays; the keys still probing
        # carry batch index, cursor, stride and stored word to the next round.
        pending = np.arange(keys.size)
        for _ in range(self.max_probes):
            buckets = (cursor % np.uint64(self.n_buckets)).astype(np.int64)
            self.recorder.add(cache_line_reads=int(pending.size))
            windows = self._bucket_windows(buckets)
            match_mask = windows == stored[:, None]
            hit = _any_slot(match_mask)
            if hit.any():
                hit_rows = np.flatnonzero(hit)
                found[pending[hit_rows]] = True
                if self.config.value_bits:
                    slot_offsets = np.argmax(match_mask[hit_rows], axis=1)
                    flat = buckets[hit_rows] * self.BUCKET_WIDTH + slot_offsets
                    out_values[pending[hit_rows]] = self.values.peek()[flat]
                    self.recorder.add(cache_line_reads=int(hit_rows.size))
            # A key resolves on a match or at a bucket holding an empty slot.
            probing = ~(hit | _any_slot(windows == np.uint64(EMPTY_SLOT)))
            if not probing.any():
                break
            pending, stored, h2 = pending[probing], stored[probing], h2[probing]
            cursor = cursor[probing] + h2
        return found, out_values

    # ------------------------------------------------------------------ delete
    def delete(self, key: int) -> bool:
        """Tombstone one occurrence of ``key``; returns True if found."""
        stored = self._encode_key(key)
        for bucket in self._probe_sequence(key):
            start = int(bucket) * self.BUCKET_WIDTH
            slots = self.keys.read_range(start, start + self.BUCKET_WIDTH)
            matches = np.flatnonzero(slots == stored)
            if matches.size:
                offset = int(matches[0])
                swapped, _old = atomic_cas(
                    self.keys, start + offset, stored, TOMBSTONE_SLOT
                )
                if swapped:
                    self._n_items -= 1
                    return True
            if np.any(slots == EMPTY_SLOT):
                return False
        return False

    def bulk_delete(self, keys: Sequence[int]) -> np.ndarray:
        """Tombstone one occurrence per requested key; returns a removal mask.

        Duplicate requests for one key are ranked so each consumes a distinct
        stored copy; a request whose rank exceeds the copies in the round's
        bucket falls through to the next probe round, mirroring sequential
        point deletes.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        removed = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return removed
        stored = self._encode_batch(keys)
        h1, h2 = self._hash_batch(keys)
        data = self.keys.peek()
        pending = np.arange(keys.size)
        for round_idx in range(self.max_probes):
            if pending.size == 0:
                break
            buckets = self._probe_round(h1[pending], h2[pending], round_idx)
            self.recorder.add(cache_line_reads=int(pending.size))
            windows = self._bucket_windows(buckets)
            match_mask = windows == stored[pending, None]
            n_match = match_mask.sum(axis=1)
            # Rank requests contending for the same stored slots: the round's
            # contention group is (bucket, stored word) — duplicate keys
            # always share it, and sentinel-aliased distinct keys (0/2, 1/3
            # encode to one word) share it exactly when they land in the same
            # bucket and really do fight over the same matches.  A 64-bit
            # stored word plus the bucket index cannot be packed into one key.
            # audit: ignore[AUD107] - unpackable (bucket, 64-bit word) key
            order = np.lexsort((stored[pending], buckets))
            b_ord, s_ord = buckets[order], stored[pending][order]
            first = run_first_mask(b_ord) | run_first_mask(s_ord)
            first_idx = np.flatnonzero(first)
            rank = np.arange(order.size) - first_idx[np.cumsum(first) - 1]
            take = rank < n_match[order]
            if take.any():
                rows = order[take]
                # audit: ignore[AUD107] - per-row 2-D argsort over 8-slot windows
                match_order = np.argsort(~match_mask, axis=1, kind="stable")
                slot_offsets = match_order[rows, rank[take]]
                flat = buckets[rows] * self.BUCKET_WIDTH + slot_offsets
                data[flat] = np.uint64(TOMBSTONE_SLOT)
                self.recorder.add(
                    atomic_ops=int(rows.size),
                    coalesced_bytes_read=32 * int(rows.size),
                    coalesced_bytes_written=32 * int(rows.size),
                )
                removed[pending[rows]] = True
                self._n_items -= int(rows.size)
            # Unmatched requests stop at a bucket holding an empty slot.
            has_empty = _any_slot(windows == np.uint64(EMPTY_SLOT))
            leftover = order[~take]
            pending = pending[leftover[~has_empty[leftover]]]
        return removed

    # ----------------------------------------------------------------- iterate
    def iter_items(self):
        """Yield (stored_key, value) for every live entry (host-side)."""
        keys = self.keys.peek()
        values = self.values.peek()
        for index in np.flatnonzero((keys != EMPTY_SLOT) & (keys != TOMBSTONE_SLOT)):
            yield int(keys[index]), int(values[index])
