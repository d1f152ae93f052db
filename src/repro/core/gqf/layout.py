"""Core counting-quotient-filter machinery shared by the GQF, SQF and CQF.

A quotient filter stores, for every inserted item, an ``r``-bit remainder in
an array of :math:`2^q` slots.  The remainder is placed as close as possible
to its *canonical slot* (the ``q``-bit quotient), using Robin-Hood linear
probing; two metadata bit vectors, ``occupieds`` and ``runends``, record
which canonical slots own a *run* and where each run ends.  Contiguous runs
with no empty slot between them form a *cluster*: an insert at the start of a
cluster must shift every following slot of the cluster one position right,
which is the cost the GQF's sorted/bulk insertion strategies are designed to
avoid.

:class:`QuotientFilterCore` implements the full functional data structure —
including the in-slot variable-length counters from
:mod:`~repro.core.gqf.counters` — together with hardware-event accounting.
The point GQF adds region locking on top; the bulk GQF adds the even-odd
phased insertion; the SQF/RSQF/CQF baselines reuse the same core with
different configuration and cost models.  All five share one filter base,
:class:`~repro.core.gqf.quotient_filter.QuotientFilter`, and route their
batches through :meth:`QuotientFilterCore.batch_insert`,
:meth:`~QuotientFilterCore.batch_delete` and
:meth:`~QuotientFilterCore.batch_counts`.  The first two take the caller's
phase schedule (``(row_mask, kernel launch)`` pairs); ``batch_insert``
reports which rows landed, so the base's growth loop can resend the rest.
"""

from __future__ import annotations

import contextlib
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ...gpusim.memory import DeviceArray
from ...gpusim.sorting import run_first_mask, stable_argsort
from ...gpusim.stats import StatsRecorder
from ...hashing.fingerprints import FingerprintScheme
from ..exceptions import FilterFullError, SnapshotError
from . import counters
from .rank_select import Bitvector

#: Batches at or below this size always take the per-item route (see
#: :meth:`QuotientFilterCore.prefers_sequential`), the reference path the
#: vectorised merge, delete and lookup are pinned to.
SEQUENTIAL_BATCH_MAX = 32

#: Extra slots appended after the 2^q canonical slots so that runs near the
#: end of the table can shift past it (the reference CQF does the same).
DEFAULT_SLACK_SLOTS = 1024

#: Metadata bits per slot: occupieds + runends (+ the per-block offset byte
#: of the packed representation, amortised).  Used for logical space
#: accounting, matching the paper's ~2.125 bits/slot overhead figure.
METADATA_BITS_PER_SLOT = 2.125


#: Run geometry in quotient order: ``(run_q, run_starts, run_lens)``.
_Geometry = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: One phase of a batch's charging schedule: the rows it covers, and the
#: context (a kernel launch) its events are recorded in.
Phase = Tuple[np.ndarray, ContextManager[object]]

#: Decoded items ``(keys, counts)``, as in :class:`_Decoded`.
_Items = Tuple[np.ndarray, np.ndarray]


class _Change(NamedTuple):
    """What a batch changes."""

    #: The batch's distinct fingerprints, as sorted packed keys.
    keys: np.ndarray
    #: Slots each one's encoding grows by (negative: shrinks).
    grow: np.ndarray
    #: Each batch row's fingerprint, as an index into ``keys`` (None when
    #: the rows are ``keys``).
    row_key: Optional[np.ndarray]


#: ``(starts, lens)`` of the runs of a batch's spans, in span order.
_Window = Tuple[np.ndarray, np.ndarray]

#: Spans of a batch fewer runs apart than this merge into one.
SPAN_MERGE_RUNS = 16


class _Decoded(NamedTuple):
    """The memoised whole-table decode (see ``_decode_items``)."""

    #: One row per distinct fingerprint: its packed ``q << remainder_bits |
    #: r`` key (ascending, so sorted by (quotient, remainder)) and count.
    keys: np.ndarray
    c: np.ndarray
    #: Run geometry in quotient order.
    run_q: np.ndarray
    run_starts: np.ndarray
    run_lens: np.ndarray


class _Spans(NamedTuple):
    """The runs a batch mutation may move, before and after it.

    ``run_q`` are the table's runs plus the batch's new ones (an emptied run
    stays, with length 0 after).  The spans are ranges of those runs, each
    starting at a cluster start: ``idx`` indexes their runs in order (a
    slice when there is one span) and ``first`` marks where each span
    begins in it.  A run outside the spans keeps its start and length.
    """

    run_q: np.ndarray
    #: Starts and lengths before the batch over all of ``run_q`` (0 for the
    #: new runs, whose starts before mean nothing); the write turns them
    #: into the memo's geometry in place.
    run_starts: np.ndarray
    run_lens: np.ndarray
    idx: Union[np.ndarray, slice]
    first: np.ndarray
    #: ``run_q[idx]``.
    q: np.ndarray
    before: _Window
    after: _Window
    #: Per run of ``after``, its start minus the length of the spans' runs
    #: before it.
    gaps: np.ndarray
    #: Each batch row's run, as a position in ``idx`` (-1: the row's
    #: quotient has no run).
    row_at: np.ndarray


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(start, start + len)`` of every range, concatenated."""
    offsets = np.cumsum(lens)
    offsets -= lens
    return np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))


def _inserted(
    arrays: Sequence[np.ndarray], positions: np.ndarray, values: Sequence[object]
) -> List[np.ndarray]:
    """Each array with its value(s) inserted before the ascending
    ``positions`` (``np.insert``, with the layout shared by the arrays)."""
    n = arrays[0].size + positions.size
    dest = positions + np.arange(positions.size)
    kept = np.ones(n, dtype=bool)
    kept[dest] = False
    out = []
    for array, value in zip(arrays, values):
        grown = np.empty(n, dtype=array.dtype)
        grown[dest] = value
        grown[kept] = array
        out.append(grown)
    return out


def _dtype_for_remainder(remainder_bits: int) -> np.dtype:
    """Smallest machine dtype that holds an ``r``-bit remainder."""
    if remainder_bits <= 8:
        return np.dtype(np.uint8)
    if remainder_bits <= 16:
        return np.dtype(np.uint16)
    if remainder_bits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


class QuotientFilterCore:
    """Functional counting quotient filter with hardware-event accounting.

    Parameters
    ----------
    quotient_bits:
        log2 of the number of canonical slots.
    remainder_bits:
        Width of the stored remainder (sets the false-positive rate ~2^-r).
        ``quotient_bits + remainder_bits`` must fit one 64-bit fingerprint.
    recorder:
        Stats recorder for simulated hardware events.
    counting:
        When True (GQF/CQF), duplicate fingerprints are collapsed into
        in-slot variable-length counters; when False (SQF/RSQF-style), each
        duplicate occupies its own slot.
    slack_slots:
        Overflow slots appended after the canonical region.
    slot_metadata_packed:
        When True, the remainder and its 3 metadata bits share one machine
        word (the SQF layout with 5/13-bit remainders); affects only space
        accounting.
    name:
        Label for the device allocation.
    """

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int,
        recorder: StatsRecorder,
        counting: bool = True,
        slack_slots: Optional[int] = None,
        slot_metadata_packed: bool = False,
        name: str = "qf-core",
    ) -> None:
        if quotient_bits < 3 or quotient_bits > 40:
            raise ValueError("quotient_bits must be in [3, 40]")
        if remainder_bits < 1 or remainder_bits > 64:
            raise ValueError("remainder_bits must be in [1, 64]")
        if quotient_bits + remainder_bits > 64:
            raise ValueError("quotient_bits + remainder_bits must fit in 64")
        self.quotient_bits = int(quotient_bits)
        self.remainder_bits = int(remainder_bits)
        self.recorder = recorder
        self.counting = bool(counting)
        #: The one fingerprint scheme of the table; filters read it from here.
        self.scheme = FingerprintScheme(quotient_bits, remainder_bits)
        self.n_canonical_slots = 1 << self.quotient_bits
        if slack_slots is None:
            # Enough overflow room for the longest cluster, without dominating
            # the footprint of small (test-scale) tables.
            slack_slots = min(DEFAULT_SLACK_SLOTS, max(64, self.n_canonical_slots // 8))
        self.total_slots = self.n_canonical_slots + int(slack_slots)
        self.slot_metadata_packed = bool(slot_metadata_packed)
        self.slots = DeviceArray(
            self.total_slots,
            _dtype_for_remainder(remainder_bits),
            recorder,
            fill=0,
            name=name,
        )
        self.occupieds = Bitvector(self.total_slots)
        self.runends = Bitvector(self.total_slots)
        self.slot_used = Bitvector(self.total_slots)
        self._n_distinct = 0
        self._total_count = 0
        #: Memoised whole-table decode (host-side): the state a batch call
        #: carries to the next.  Every per-item mutation drops it; a batch
        #: mutation updates it from the runs its spans rewrote.
        self._decoded_cache: Optional[_Decoded] = None
        #: Whether free slots may hold stale remainders (per-item deletes
        #: leave them, and so may imported or shared tables).  A batch
        #: mutation writes only its spans, so it zeroes every free slot
        #: first; afterwards all free slots stay zero.
        self._stale_free_slots = False
        #: When the table is adopted onto shared memory (:meth:`adopt_state`),
        #: the int64[2] view holding [n_distinct, total_count]; None for
        #: ordinary heap-allocated tables.
        self._shared_scalars: Optional[np.ndarray] = None

    # ---------------------------------------------------------------- metrics
    @property
    def n_slots(self) -> int:
        """Canonical slot count (2^q)."""
        return self.n_canonical_slots

    @property
    def n_occupied_slots(self) -> int:
        """Physical slots currently in use (including counter slots)."""
        return self.slot_used.count()

    @property
    def load_factor(self) -> float:
        return self.n_occupied_slots / self.n_canonical_slots

    @property
    def n_distinct_items(self) -> int:
        """Number of distinct fingerprints stored."""
        return self._n_distinct

    @property
    def total_count(self) -> int:
        """Sum of all stored counts (multiset cardinality)."""
        return self._total_count

    @property
    def slot_bytes(self) -> int:
        return int(self.slots.itemsize)

    @property
    def nbytes(self) -> int:
        """Logical packed footprint: r bits + ~2.125 metadata bits per slot."""
        bits_per_slot = self.remainder_bits + METADATA_BITS_PER_SLOT
        if self.slot_metadata_packed:
            bits_per_slot = self.slot_bytes * 8  # metadata already inside the word
        return int(np.ceil(self.total_slots * bits_per_slot / 8.0))

    # ------------------------------------------------------------- accounting
    def _slot_lines(self, n_slots_touched: int) -> int:
        """Cache lines covered by ``n_slots_touched`` contiguous slots."""
        if n_slots_touched <= 0:
            return 0
        return int(np.ceil(n_slots_touched * self.slot_bytes / 128.0)) or 1

    def _account(self, read_slots: int = 0, write_slots: int = 0, metadata_lines: int = 1,
                 shifted: int = 0) -> None:
        self.recorder.add(
            cache_line_reads=self._slot_lines(read_slots) + metadata_lines,
            cache_line_writes=(
                self._slot_lines(write_slots) + (metadata_lines if write_slots else 0)
            ),
            slots_shifted=shifted,
            instructions=4 + read_slots + write_slots,
        )

    # ---------------------------------------------------------- run navigation
    def run_interval(self, quotient: int) -> Tuple[int, int]:
        """Return the inclusive ``[start, end]`` slot range of ``quotient``'s run.

        Requires ``occupieds[quotient]`` to be set.
        """
        if not self.occupieds.get(quotient):
            raise ValueError(f"quotient {quotient} has no run")
        t = self.occupieds.rank(quotient)
        run_end = self.runends.select(t)
        if run_end is None:
            raise RuntimeError("runends/occupieds invariant violated")
        if t == 1:
            prev_end = -1
        else:
            prev_end = self.runends.select(t - 1)
            if prev_end is None:
                raise RuntimeError("runends/occupieds invariant violated")
        run_start = max(quotient, prev_end + 1)
        return run_start, run_end

    def new_run_position(self, quotient: int) -> int:
        """Slot where a new run for ``quotient`` would begin."""
        t = self.occupieds.rank(quotient)
        if t == 0:
            return quotient
        prev_end = self.runends.select(t)
        if prev_end is None:
            raise RuntimeError("runends/occupieds invariant violated")
        return max(quotient, prev_end + 1)

    def cluster_bounds(self, position: int) -> Tuple[int, int]:
        """Inclusive bounds of the cluster (maximal used region) containing
        ``position`` (which must be a used slot)."""
        if not self.slot_used.get(position):
            raise ValueError(f"slot {position} is not in use")
        prev_unused = self.slot_used.prev_unset(position)
        cstart = 0 if prev_unused is None else prev_unused + 1
        next_unused = self.slot_used.next_unset(position)
        cend = self.total_slots - 1 if next_unused is None else next_unused - 1
        return cstart, cend

    # -------------------------------------------------------------- shifting
    def _first_unused(self, start: int) -> int:
        pos = self.slot_used.next_unset(start)
        if pos is None:
            raise FilterFullError(
                "quotient filter has no free slots left",
                n_items=self.n_distinct_items,
                n_slots=self.total_slots,
                load_factor=self.load_factor,
            )
        return pos

    def _shift_right_one(self, pos: int) -> int:
        """Open one slot at ``pos`` by shifting the cluster tail right.

        Returns the number of slots moved.
        """
        u = self._first_unused(pos)
        moved = u - pos
        if moved > 0:
            segment = self.slots.read_range(pos, u)
            self.slots.write_range(pos + 1, segment)
            self.runends.shift_right_one(pos, u)
        self.slot_used.set(u, True)
        self.recorder.add(slots_shifted=moved)
        return moved

    def _shift_right(self, pos: int, delta: int) -> int:
        """Open ``delta`` slots starting at ``pos``; returns slots moved.

        Raises :class:`FilterFullError` before moving anything when fewer
        than ``delta`` free slots lie at or after ``pos``: an insert that
        overflows part-way through its shifts would leave a run unfinished.
        """
        free = pos
        for _ in range(delta):
            free = self._first_unused(free) + 1
        moved = 0
        for i in range(delta):
            moved += self._shift_right_one(pos + i)
        return moved

    # ------------------------------------------------------------ run (de)code
    def _read_run(self, run_start: int, run_end: int) -> List[Tuple[int, int]]:
        values = self.slots.read_range(run_start, run_end + 1)
        # Plain runs (no counter digits, no duplicates) are the common case
        # and need no per-slot Python scan.
        if not self.counting or counters.is_plain_run(values):
            return [(int(v), 1) for v in values.tolist()]
        return counters.decode_run(values.tolist())

    def _encode_items(self, items: Sequence[Tuple[int, int]]) -> List[int]:
        if self.counting:
            return counters.encode_run(items)
        out: List[int] = []
        for rem, count in sorted(items, key=lambda rc: rc[0]):
            out.extend([int(rem)] * int(count))
        return out

    # ------------------------------------------------------------------ insert
    def insert_fingerprint(self, quotient: int, remainder: int, count: int = 1) -> None:
        """Insert ``count`` occurrences of a fingerprint.

        Raises :class:`FilterFullError` when the table has no free slots.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if not 0 <= quotient < self.n_canonical_slots:
            raise ValueError("quotient out of range")
        if remainder >= (1 << self.remainder_bits):
            raise ValueError("remainder wider than remainder_bits")
        self._decoded_cache = None

        was_present = False
        if self.occupieds.get(quotient):
            run_start, run_end = self.run_interval(quotient)
            items = self._read_run(run_start, run_end)
            was_present = any(rem == remainder for rem, _ in items)
            if self.counting:
                new_items = counters.increment(items, remainder, count)
            else:
                new_items = items + [(int(remainder), 1)] * count
            old_len = run_end - run_start + 1
        else:
            run_start = self.new_run_position(quotient)
            items = []
            new_items = [(int(remainder), int(count))] if self.counting else [
                (int(remainder), 1)
            ] * count
            old_len = 0

        encoded = self._encode_items(new_items)
        new_len = len(encoded)
        delta = new_len - old_len
        shifted = 0
        if delta > 0:
            shifted = self._shift_right(run_start + old_len, delta)
        elif delta < 0:
            raise RuntimeError("insert can never shrink a run")

        self.slots.write_range(run_start, np.asarray(encoded, dtype=self.slots.data.dtype))
        self.slot_used.set_range(run_start, run_start + new_len)
        if old_len > 0:
            self.runends.clear(run_start + old_len - 1)
        self.runends.set(run_start + new_len - 1, True)
        self.occupieds.set(quotient, True)

        # Two metadata bit vectors (occupieds and runends) are read and
        # updated on every insert, in addition to the remainder slots.
        self._account(
            read_slots=old_len,
            write_slots=new_len + shifted,
            metadata_lines=2,
            shifted=shifted,
        )
        if not was_present:
            self._n_distinct += 1
        self._total_count += count

    # ------------------------------------------------------------------- query
    def query_fingerprint(self, quotient: int, remainder: int) -> int:
        """Return the stored count of a fingerprint (0 when absent)."""
        if not self.occupieds.get(quotient):
            self._account(read_slots=0, metadata_lines=1)
            return 0
        run_start, run_end = self.run_interval(quotient)
        items = self._read_run(run_start, run_end)
        self._account(read_slots=run_end - run_start + 1, metadata_lines=1)
        if self.counting:
            for rem, count in items:
                if rem == remainder:
                    return count
            return 0
        return sum(1 for rem, _ in items if rem == remainder)

    # ------------------------------------------------------------------ delete
    def delete_fingerprint(self, quotient: int, remainder: int, count: int = 1) -> bool:
        """Remove ``count`` occurrences of a fingerprint.

        Returns False (and changes nothing) when the fingerprint is absent.
        The whole cluster containing the run is re-canonicalised, which both
        removes the slots and lets trailing runs slide back towards their
        canonical positions (the left-shifting the paper describes for
        deletes).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if not self.occupieds.get(quotient):
            self._account(metadata_lines=1)
            return False
        self._decoded_cache = None
        run_start, run_end = self.run_interval(quotient)
        cstart, cend = self.cluster_bounds(run_start)
        cluster_len = cend - cstart + 1

        # Decode every run in the cluster, in quotient order.
        runs: List[Tuple[int, List[Tuple[int, int]]]] = []
        pos = cstart
        for q in self.occupieds.set_positions(cstart, cend + 1):
            rend = self.runends.next_set(pos)
            if rend is None or rend > cend:
                raise RuntimeError("cluster decoding ran past its bounds")
            runs.append((int(q), self._read_run(pos, rend)))
            pos = rend + 1
        if pos != cend + 1:
            raise RuntimeError("cluster decoding did not cover the cluster")

        # Remove the requested occurrences.
        found = False
        removed_exactly = 0
        new_runs: List[Tuple[int, List[Tuple[int, int]]]] = []
        for q, items in runs:
            if q == quotient and not found:
                if self.counting:
                    present = next((c for r, c in items if r == remainder), 0)
                    if present:
                        found = True
                        removed_exactly = min(count, present)
                        items, _ = counters.decrement(items, remainder, removed_exactly)
                else:
                    present = sum(1 for r, _ in items if r == remainder)
                    if present:
                        found = True
                        removed_exactly = min(count, present)
                        kept: List[Tuple[int, int]] = []
                        to_remove = removed_exactly
                        for r, c in items:
                            if r == remainder and to_remove > 0:
                                to_remove -= 1
                            else:
                                kept.append((r, c))
                        items = kept
            new_runs.append((q, items))
        if not found:
            self._account(read_slots=cluster_len, metadata_lines=1)
            return False

        # Re-write the cluster from scratch with canonical placement; the
        # freed tail slots keep their old values.
        self._stale_free_slots = True
        self.slot_used.clear_range(cstart, cend + 1)
        self.runends.clear_range(cstart, cend + 1)
        write_slots = 0
        pos = cstart
        for q, items in new_runs:
            if not items:
                self.occupieds.clear(q)
                continue
            start = max(q, pos)
            encoded = self._encode_items(items)
            self.slots.write_range(start, np.asarray(encoded, dtype=self.slots.data.dtype))
            self.slot_used.set_range(start, start + len(encoded))
            self.runends.set(start + len(encoded) - 1, True)
            self.occupieds.set(q, True)
            write_slots += len(encoded)
            pos = start + len(encoded)

        self._account(
            read_slots=cluster_len,
            write_slots=write_slots,
            metadata_lines=2,
            shifted=cluster_len,
        )
        item_gone = self.query_fingerprint(quotient, remainder) == 0
        if item_gone:
            self._n_distinct -= 1
        self._total_count -= removed_exactly
        return True

    # ----------------------------------------------------------- batch (bulk)
    # The bulk GQF processes whole sorted batches at once.  The key fact the
    # batch path exploits is that the quotient-filter layout is *canonical*:
    # runs are stored in quotient order and packed greedily left to right
    # (``start = max(quotient, previous_end + 1)``), so the final slot layout
    # is a pure function of the stored (quotient, remainder, count) multiset,
    # independent of insertion order — producing bit-for-bit the same table
    # the per-item Robin-Hood path would.  A batch insert or delete splices
    # the batch into the memoised decoded item arrays (one ``searchsorted``,
    # no re-sort of the stored items) and rewrites only its *spans*: the
    # clusters holding its quotients, extended right while an insert's
    # growth spills past free slots (:meth:`_span_windows`).  A cluster's
    # first run sits at its quotient, so the new starts follow span by span,
    # and only the spans' slots and metadata words are written.  A batch
    # scheduled in phases (the bulk GQF's even and odd regions) is still
    # written once: the layout between two phases matters only for charging
    # each phase's events, and inside the spans its run geometry follows
    # from the run lengths alone (:meth:`_phase_windows`).

    def _slot_lines_vec(self, n_slots: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_slot_lines`: cache lines per contiguous span
        of ``n_slots >= 0`` slots."""
        return (n_slots * self.slot_bytes + 127) >> 7

    def _span_lines_vec(self, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Alignment-aware cache lines per span (DeviceArray.lines_in_range)."""
        # Slots per 128-byte line is a power of two: shift instead of divide.
        shift = max(1, 128 // self.slot_bytes).bit_length() - 1
        return np.where(lens > 0, ((starts + lens - 1) >> shift) - (starts >> shift) + 1, 0)

    def _run_traffic_of(
        self,
        quotients: np.ndarray,
        run_starts: np.ndarray,
        run_lens: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-quotient run ``(lengths, cache lines)`` as the per-item path
        charges them: one alignment-aware ``read_range``/``write_range``
        transaction plus one ``_account`` charge per run touched.

        ``run_starts``/``run_lens`` are the decoded run geometry in quotient
        order.  The i-th occupied quotient owns the i-th run, so a probe's
        run index is ``rank(occupieds, q) - 1`` — one vectorised rank over
        the packed ``occupieds`` words, in any probe order; the occupied
        test reads the same word.
        """
        if run_lens.size == 0:
            zero = np.zeros(quotients.size, dtype=np.int64)
            return zero, zero.copy()
        hit = self.occupieds.get_batch(quotients)
        idx = self.occupieds.rank_batch(quotients) - 1
        lens = np.where(hit, run_lens[idx], 0)
        starts = np.where(hit, run_starts[idx], 0)
        return lens, self._span_lines_vec(starts, lens) + self._slot_lines_vec(lens)

    def prefers_sequential(self, batch_size: int) -> bool:
        """Whether a batch takes the per-item route.

        The quotient filters' one size rule: batches of up to
        :data:`SEQUENTIAL_BATCH_MAX` rows, or of up to ``occupied >> 10``
        rows, run per item (the floor is checked first: counting the
        occupied slots reads the whole ``slot_used`` vector).  A batch call
        costs its spans plus the memo splice, far less than the old
        whole-table rewrite, yet the occupancy term stays for two reasons,
        both measured at q=20:

        * the batch path's mutation charges are calibrated, not exact, so
          the route decides which events a batch is charged.  At half load
          a 64-key ``BulkGQF`` insert costs 182/260 cache-line reads/writes
          batched against 193/271 per item, and a 64-key delete 307/243/132
          reads/writes/slots shifted against 484/298/264;
        * a cold memo makes small batched reads expensive: 1-32 probes cost
          70-98 ms batched (one whole-table decode) against 0.2-8 ms per
          item, at 0.5 and at 0.9 load.
        """
        return batch_size <= SEQUENTIAL_BATCH_MAX or batch_size <= self.n_occupied_slots >> 10

    def batch_counts(self, quotients: np.ndarray, remainders: np.ndarray) -> np.ndarray:
        """Per-fingerprint stored counts, routed by batch size.

        Large batches take :meth:`lookup_counts` (one memoised whole-table
        decode, one sort of the probes, one merge-like search); small ones
        probe per item with :meth:`query_fingerprint`, the reference path.
        Both return the same counts and charge the same simulated traffic.
        """
        quotients = np.asarray(quotients, dtype=np.int64)
        remainders = np.asarray(remainders, dtype=np.uint64)
        if not self.prefers_sequential(quotients.size):
            return self.lookup_counts(quotients, remainders)
        return np.array(
            [
                self.query_fingerprint(int(q), int(r))
                for q, r in zip(quotients, remainders)
            ],
            dtype=np.int64,
        )

    def batch_insert(
        self,
        quotients: np.ndarray,
        remainders: np.ndarray,
        counts: np.ndarray,
        phases: Optional[Sequence[Phase]] = None,
        fill: bool = True,
    ) -> Tuple[np.ndarray, Optional[FilterFullError]]:
        """Insert a batch in row order, routed by batch size and run in phases.

        Returns which rows landed, and the :class:`FilterFullError` that
        stopped the batch (None when every row did).  ``phases`` is the
        schedule, as for :meth:`insert_sorted_batch`; the default is one
        phase of every row with no launch.

        Large batches take one :meth:`insert_sorted_batch` merge, small ones
        :meth:`insert_fingerprint` per row (the reference path), phase by
        phase inside each phase's launch; both build the same table.  The
        merge is all-or-nothing, so when the whole batch does not fit, each
        phase of a multi-phase schedule is merged on its own (the earlier
        phases still land), and a phase that does not fit is replayed per
        row: an over-capacity batch still fills the table.  A caller that
        grows the table and resends the rows left out passes ``fill=False``,
        which stops at the first merge that does not fit instead.  The batch
        stops at the first phase that overflows; the error leaves through
        that phase's launch, which therefore records no kernel.
        """
        quotients = np.asarray(quotients, dtype=np.int64)
        remainders = np.asarray(remainders, dtype=np.uint64)
        n = int(quotients.size)
        landed = np.zeros(n, dtype=bool)
        if n == 0:
            return landed, None
        if phases is None:
            phases = self._single_phase(n)
        vectorised = not self.prefers_sequential(n)
        if vectorised:
            try:
                self.insert_sorted_batch(quotients, remainders, counts, phases=phases)
                landed[:] = True
                return landed, None
            except FilterFullError as exc:
                if not fill and len(phases) == 1:
                    return landed, exc
        try:
            for mask, launch in phases:
                with launch:
                    rows = np.flatnonzero(mask)
                    if vectorised and len(phases) > 1 and rows.size:
                        try:
                            self.insert_sorted_batch(
                                quotients[rows], remainders[rows], counts[rows]
                            )
                            landed[rows] = True
                            continue
                        except FilterFullError:
                            if not fill:
                                raise
                    for i in rows:
                        self.insert_fingerprint(
                            int(quotients[i]), int(remainders[i]), int(counts[i])
                        )
                        landed[i] = True
        except FilterFullError as exc:
            return landed, exc
        return landed, None

    def batch_delete(
        self,
        quotients: np.ndarray,
        remainders: np.ndarray,
        phases: Optional[Sequence[Phase]] = None,
    ) -> int:
        """Delete one occurrence per row, routed by batch size.

        Large batches take :meth:`delete_sorted_batch`; small ones run
        :meth:`delete_fingerprint` per row, phase by phase inside each
        phase's launch and in row order within a phase.  Returns how many
        rows removed an occurrence.
        """
        if not self.prefers_sequential(int(quotients.size)):
            return self.delete_sorted_batch(quotients, remainders, phases=phases)
        removed = 0
        if phases is None:
            phases = self._single_phase(quotients.size)
        for mask, launch in phases:
            with launch:
                for i in np.flatnonzero(mask):
                    if self.delete_fingerprint(int(quotients[i]), int(remainders[i]), 1):
                        removed += 1
        return removed

    @staticmethod
    def _single_phase(n_rows: int) -> List[Phase]:
        """The default schedule: one phase of every row, with no launch."""
        return [(np.ones(n_rows, dtype=bool), contextlib.nullcontext())]

    def _packed_fingerprints(self, quotients: np.ndarray, remainders: np.ndarray) -> np.ndarray:
        """``q << remainder_bits | r`` keys, ordered like ``(q, r)`` pairs."""
        shift = np.uint64(self.remainder_bits)
        return (quotients.astype(np.uint64) << shift) | remainders

    def _split_fingerprints(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`_packed_fingerprints`: ``(quotients, remainders)``."""
        shift = np.uint64(self.remainder_bits)
        return (keys >> shift).view(np.int64), keys & ((np.uint64(1) << shift) - np.uint64(1))

    def fingerprint_order(self, quotients: np.ndarray, remainders: np.ndarray) -> np.ndarray:
        """Stable permutation sorting a batch by ``(quotient, remainder)``:
        one :func:`stable_argsort` of the packed fingerprints."""
        quotients = np.asarray(quotients, dtype=np.int64)
        remainders = np.asarray(remainders, dtype=np.uint64)
        return stable_argsort(self._packed_fingerprints(quotients, remainders))

    def _runs_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Whole-table run geometry: ``(quotients, starts, ends, lengths)``.

        Uses the rank/select correspondence (the i-th occupied quotient owns
        the i-th runend) to recover every run boundary in one pass.
        """
        uq = np.flatnonzero(self.occupieds.bits).astype(np.int64)
        if uq.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return uq, empty, empty.copy(), empty.copy()
        ends = np.flatnonzero(self.runends.bits).astype(np.int64)
        if ends.size != uq.size:
            raise RuntimeError("runends/occupieds invariant violated")
        starts = np.maximum(uq, np.concatenate(([0], ends[:-1] + 1)))
        return uq, starts, ends, ends - starts + 1

    def _decoded(self, items: _Items, geometry: _Geometry) -> _Decoded:
        """Memoise ``(items, runs)`` as the decoded table and return it."""
        self._decoded_cache = _Decoded(*items, *geometry)
        return self._decoded_cache

    def _decode_items(self) -> _Decoded:
        """Decode the whole table into merged item arrays.

        Items come sorted by (quotient, remainder) with one row per distinct
        fingerprint, alongside the run geometry.  Runs whose slot values are
        strictly increasing (no counter digits, no duplicates) decode
        vectorised; only runs that embed counters fall back to the per-run
        Python decoder.  The result is memoised until the next mutation
        (callers treat it as read-only), so back-to-back batch probes decode
        the table once.
        """
        if self._decoded_cache is not None:
            return self._decoded_cache
        uq, starts, _ends, lens = self._runs_layout()
        if uq.size == 0:
            items = np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
            return self._decoded(items, (uq, starts, lens))
        total = int(lens.sum())
        off = np.concatenate(([0], np.cumsum(lens)))
        pos = np.repeat(starts - off[:-1], lens) + np.arange(total)
        vals = self.slots.peek()[pos].astype(np.uint64)
        run_id = np.repeat(np.arange(uq.size), lens)

        if not self.counting:
            item_q, item_r = uq[run_id], vals
            item_c = np.ones(total, dtype=np.int64)
        else:
            plain_run = counters.plain_run_mask(vals, off)
            if plain_run.all():
                item_q, item_r = uq[run_id], vals
                item_c = np.ones(total, dtype=np.int64)
            else:
                fast = plain_run[run_id]
                parts_q = [uq[run_id[fast]]]
                parts_r = [vals[fast]]
                parts_c = [np.ones(int(np.count_nonzero(fast)), dtype=np.int64)]
                for k in np.flatnonzero(~plain_run):
                    decoded = counters.decode_run(vals[off[k] : off[k + 1]].tolist())
                    parts_q.append(np.full(len(decoded), uq[k], dtype=np.int64))
                    parts_r.append(np.array([r for r, _ in decoded], dtype=np.uint64))
                    parts_c.append(np.array([c for _, c in decoded], dtype=np.int64))
                item_q = np.concatenate(parts_q)
                item_r = np.concatenate(parts_r)
                item_c = np.concatenate(parts_c)
                order = self.fingerprint_order(item_q, item_r)
                item_q, item_r, item_c = item_q[order], item_r[order], item_c[order]

        if item_q.size > 1:
            # Merge duplicate (q, r) rows (possible in non-counting mode).
            fresh = np.ones(item_q.size, dtype=bool)
            fresh[1:] = (item_q[1:] != item_q[:-1]) | (item_r[1:] != item_r[:-1])
            if not fresh.all():
                first = np.flatnonzero(fresh)
                item_c = np.add.reduceat(item_c, first)
                item_q, item_r = item_q[first], item_r[first]
        item_keys = self._packed_fingerprints(item_q, item_r)
        return self._decoded((item_keys, item_c), (uq, starts, lens))

    @staticmethod
    def _canonical_starts(
        run_q: np.ndarray, run_lens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Greedy run starts ``max(q, previous_end + 1)`` for runs in
        quotient order, and the empty slots before each run (its start minus
        the total length of the runs before it).

        Also right for the runs of a batch's spans alone: each span begins
        at a cluster start, which the packing puts at its quotient whatever
        span precedes it in the list.
        """
        cum = np.cumsum(run_lens)
        cum -= run_lens
        gaps = run_q - cum
        np.maximum.accumulate(gaps, out=gaps)
        cum += gaps
        return cum, gaps

    @staticmethod
    def _merged_spans(start: np.ndarray, stop: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ascending run ranges ``[start, stop)`` with those that overlap or
        lie fewer than :data:`SPAN_MERGE_RUNS` runs apart merged, and all
        of them merged when they cover half the runs from the first to the
        last: rewriting the gaps then costs less than indexing around them.
        """
        if 2 * (int(stop.sum()) - int(start.sum())) >= int(stop.max()) - int(start[0]):
            return start[[0]], np.array([stop.max()])
        reach = np.maximum.accumulate(stop)
        head = np.ones(start.size, dtype=bool)
        head[1:] = start[1:] >= reach[:-1] + SPAN_MERGE_RUNS
        heads = np.flatnonzero(head)
        return start[heads], reach[np.append(heads[1:], start.size) - 1]

    @staticmethod
    def _span_index(
        starts: np.ndarray, stops: np.ndarray
    ) -> Tuple[Union[np.ndarray, slice], np.ndarray]:
        """Run indices of the spans ``[starts[i], stops[i])``, concatenated
        (a slice for one span), and the position in them where each span
        begins."""
        sizes = stops - starts
        first = np.cumsum(sizes)
        first -= sizes
        if starts.size == 1:
            return slice(int(starts[0]), int(stops[0])), first
        return _concat_ranges(starts, sizes), first

    def _span_windows(
        self,
        run_q: np.ndarray,
        run_starts: np.ndarray,
        run_lens: np.ndarray,
        touched: np.ndarray,
        touched_lens: np.ndarray,
    ) -> Tuple[
        Union[np.ndarray, slice], np.ndarray, np.ndarray, _Window, _Window, np.ndarray, np.ndarray
    ]:
        """The spans of a batch: ``(idx, first, q, before, after, gaps,
        touched_at)`` for :class:`_Spans`.

        ``run_starts``/``run_lens`` are the geometry before the batch; the
        ``touched`` runs take ``touched_lens`` after it.  A span is a range
        of whole clusters (a touched run in a free quotient slot is a
        cluster of its own): it starts at the cluster holding its first
        touched run and ends with the cluster holding its last, extended
        while the runs' new end spills into the next cluster.  A delete's
        shrinkage never leaves its cluster; an insert's growth runs on
        until free slots absorb it.  Nearby spans merge
        (:meth:`_merged_spans`), so a batch that touches most clusters
        rewrites the table in one span.
        """
        if not touched.size:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, (empty, empty), (empty, empty), empty, empty
        n_runs = int(run_q.size)
        used = self.slot_used
        start, stop = self._merged_spans(touched, touched + 1)
        # Back to the first run of the cluster holding each first quotient.
        quotient = run_q[start]
        in_use = used.get_batch(quotient)
        start[in_use] = np.searchsorted(run_q, used.prev_unset_batch(quotient[in_use]) + 1)
        while True:
            # On to the run after the cluster holding each span's last run.
            stop = np.searchsorted(run_q, used.next_unset_batch(run_q[stop - 1]), side="right")
            start, stop = self._merged_spans(start, stop)
            idx, first = self._span_index(start, stop)
            # Every touched run lies in its span: place it without a search.
            if start.size == 1:
                touched_at = touched - start[0]
            else:
                span_of = np.searchsorted(start, touched, side="right") - 1
                touched_at = first[span_of] + touched - start[span_of]
            q_w = run_q[idx]
            old_starts, old_lens = run_starts[idx], run_lens[idx]
            if touched.size == q_w.size:
                new_lens = touched_lens
            else:
                new_lens = old_lens.copy()
                new_lens[touched_at] = touched_lens
            new_starts, new_gaps = self._canonical_starts(q_w, new_lens)
            # The next cluster starts at its quotient; growth that reaches
            # it would move it.
            last = first + stop - start - 1
            spill = (stop < n_runs) & (
                new_starts[last] + new_lens[last] > run_q[np.minimum(stop, n_runs - 1)]
            )
            if not spill.any():
                after = (new_starts, new_lens)
                return idx, first, q_w, (old_starts, old_lens), after, new_gaps, touched_at
            stop[spill] = np.minimum(n_runs, 2 * stop[spill] - start[spill])

    def _relayout(self, old: _Decoded, items: _Items, change: _Change) -> _Spans:
        """The spans a batch's ``change`` rewrites, turning ``old`` into the
        decoded ``items``.  Writes nothing.

        Every changed quotient that has a run before or after the batch is
        touched, and its run's length moves by its fingerprints' change.
        Raises :class:`FilterFullError` when the new layout does not fit.
        """
        shift = np.uint64(self.remainder_bits)
        quotients = (change.keys >> shift).view(np.int64)
        new_group = run_first_mask(quotients)
        first = np.flatnonzero(new_group)
        batch_q = quotients[first]
        del quotients
        if first.size and change.grow.min() == change.grow.max() == 1:
            grow = np.diff(first, append=new_group.size)
        else:
            grow = np.add.reduceat(change.grow, first) if first.size else change.grow
        # Each row's quotient group: row -> fingerprint -> quotient.
        row_group = np.cumsum(new_group)
        row_group -= 1
        if change.row_key is not None:
            row_group = row_group[change.row_key]
        del new_group, first
        if not old.run_q.size:
            # An empty table: every run is new.
            kept = np.ones(batch_q.size, dtype=bool)
            run_q, run_starts, run_lens = batch_q, np.zeros_like(grow), np.zeros_like(grow)
            touched = np.arange(batch_q.size)
        else:
            # The i-th occupied quotient owns the i-th run.
            at = self.occupieds.rank_batch(batch_q - 1)
            known = self.occupieds.get_batch(batch_q)
            # A delete may name quotients without a run: they touch nothing.
            kept = known | (grow > 0)
            if not kept.all():
                batch_q, grow, at, known = batch_q[kept], grow[kept], at[kept], known[kept]
            run_q, run_starts, run_lens = old.run_q, old.run_starts, old.run_lens
            if not known.all():
                run_q, run_starts, run_lens = _inserted(
                    (run_q, run_starts, run_lens), at[~known], (batch_q[~known], 0, 0)
                )
            # A touched run's index moves up by the new runs before it.
            born = ~known
            touched = at + np.cumsum(born)
            touched -= born
            del at, born
        idx, first, q_w, before, after, gaps, touched_at = self._span_windows(
            run_q, run_starts, run_lens, touched, run_lens[touched] + grow
        )
        # Ends ascend, so the last run overflows first.
        if q_w.size and after[0][-1] + after[1][-1] > self.total_slots:
            past = np.flatnonzero(after[0] + after[1] > self.total_slots)
            # Where the first run that does not fit begins in the items.
            first_out = np.uint64(q_w[past[0]]) << shift
            raise FilterFullError(
                "quotient filter has no free slots left",
                n_items=self.n_distinct_items,
                n_slots=self.total_slots,
                load_factor=self.load_factor,
                batch_offset=int(np.searchsorted(items[0], first_out)),
            )
        # Each row's run: its quotient group's touched run.
        group_at = touched_at
        if not kept.all():
            group_at = np.full(kept.size, -1, dtype=np.int64)
            group_at[kept] = touched_at
        row_at = group_at[row_group]
        return _Spans(
            run_q, run_starts, run_lens, idx, first, q_w, before, after, gaps, row_at
        )

    def _write_spans(self, items: _Items, spans: _Spans, total_count: int) -> None:
        """Rewrite the spans' slots and metadata words, and carry the decoded
        ``items`` and the new run geometry over to the next batch call."""
        data = self.slots.peek()
        if self._stale_free_slots:
            data[~self.slot_used.bits] = 0
            self._stale_free_slots = False
        (old_starts, old_lens), (new_starts, new_lens) = spans.before, spans.after
        first = spans.first
        q_w = spans.q
        last = np.append(first[1:], q_w.size) - 1
        # Re-encode the spans' items: each span's runs hold one key range.
        keys, counts = items
        shift = np.uint64(self.remainder_bits)
        low_bits = (np.uint64(1) << shift) - np.uint64(1)
        lo = np.searchsorted(keys, q_w[first].astype(np.uint64) << shift)
        hi = np.searchsorted(keys, (q_w[last].astype(np.uint64) << shift) | low_bits, "right")
        rows = slice(lo[0], hi[0]) if lo.size == 1 else _concat_ranges(lo, hi - lo)
        flat = counters.encode_flat(
            keys[rows] & low_bits, counts[rows], self.counting, data.dtype
        )[0]
        del rows
        # A span's first run keeps its start (a new one holds no old slot).
        slot_lo = new_starts[first]
        slot_hi = np.maximum(old_starts[last] + old_lens[last], new_starts[last] + new_lens[last])
        used = np.repeat(spans.gaps, new_lens)
        used += np.arange(used.size)
        # Free slots hold zeros: clear the ones the spans give up.
        data[self.slot_used.assign_spans(slot_lo, slot_hi, used, report_cleared=True)] = 0
        data[used] = flat
        del flat, used
        # The spans' runs after the batch, without the emptied ones.
        live = np.flatnonzero(new_lens) if int(new_lens.min(initial=1)) == 0 else None
        q_live, starts_live, lens_live = (
            (q_w, new_starts, new_lens)
            if live is None
            else (q_w[live], new_starts[live], new_lens[live])
        )
        self.runends.assign_spans(slot_lo, slot_hi, starts_live + lens_live - 1)
        self.occupieds.assign_spans(q_w[first], q_w[last] + 1, q_live)
        self._n_distinct = int(keys.size)
        self._total_count = total_count

        run_q, run_starts, run_lens = spans.run_q, spans.run_starts, spans.run_lens
        if live is None:
            run_starts[spans.idx] = new_starts
            run_lens[spans.idx] = new_lens
        elif isinstance(spans.idx, slice):
            a, b = spans.idx.start, spans.idx.stop
            run_q, run_starts, run_lens = (
                np.concatenate((whole[:a], part, whole[b:]))
                for whole, part in (
                    (run_q, q_live), (run_starts, starts_live), (run_lens, lens_live)
                )
            )
        else:
            run_starts[spans.idx] = new_starts
            run_lens[spans.idx] = new_lens
            kept = run_lens > 0
            run_q, run_starts, run_lens = run_q[kept], run_starts[kept], run_lens[kept]
        self._decoded(items, (run_q, run_starts, run_lens))

    def _splice_insert(
        self,
        old: _Decoded,
        quotients: np.ndarray,
        remainders: np.ndarray,
        counts: np.ndarray,
    ) -> Tuple[_Items, _Change]:
        """Decoded ``(keys, counts)`` items of the table plus a batch, and
        the batch's change.

        The batch is sorted (unless it already is) and deduplicated, then
        placed with one ``searchsorted`` into the stored keys: counts of
        stored fingerprints add in place, new fingerprints are inserted at
        their positions.
        """
        keys, counts, row_key = self._distinct(
            self._packed_fingerprints(quotients, remainders), counts
        )
        n = old.keys.size
        stored_counts = np.zeros(keys.size, dtype=np.int64)
        if n == 0:
            item_keys, item_c = keys, counts
        else:
            pos = np.searchsorted(old.keys, keys)
            new = old.keys[np.minimum(pos, n - 1)] != keys
            new_before = np.cumsum(new)
            stored = ~new
            stored_counts[stored] = old.c[pos[stored]]
            if new_before[-1]:
                item_keys, item_c = _inserted(
                    (old.keys, old.c), pos[new], (keys[new], counts[new])
                )
            else:
                item_keys, item_c = old.keys, old.c.copy()
            item_c[(pos + new_before - new)[stored]] += counts[stored]
        change = _Change(keys, self._grown_slots(keys, stored_counts, counts), row_key)
        return (item_keys, item_c), change

    @staticmethod
    def _distinct(
        keys: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """A batch's distinct keys (ascending), each one's summed counts,
        and each row's index into them (None: row ``i`` is key ``i``)."""
        order = None
        # One pass finds the rows not above their predecessor; only those
        # can be duplicates or out of order.
        fresh = np.ones(keys.size, dtype=bool)
        np.greater(keys[1:], keys[:-1], out=fresh[1:])
        stalled = np.flatnonzero(~fresh)
        if not stalled.size:
            return keys, counts, None
        if np.any(keys[stalled] < keys[stalled - 1]):
            order = stable_argsort(keys)
            keys, counts = keys[order], counts[order]
            fresh[1:] = keys[1:] != keys[:-1]
        row_key = np.cumsum(fresh)
        row_key -= 1
        if order is not None:
            row_key[order] = row_key.copy()
        if not fresh.all():
            first = np.flatnonzero(fresh)
            keys, counts = keys[first], np.add.reduceat(counts, first)
        return keys, counts, row_key

    def _grown_slots(self, keys: np.ndarray, counts: np.ndarray, added: np.ndarray) -> np.ndarray:
        """Slots each fingerprint's encoding gains when its stored count
        moves from ``counts`` by ``added`` (negative: loses)."""
        # Up to 2, a count is that many slots; above, the encoding decides.
        if not self.counting or int(counts.max()) + max(int(added.max()), 0) <= 2:
            return added
        total = counts + added
        # ``added`` has one sign per batch: the larger count is the new one
        # for an insert and the stored one for a delete.
        big = np.flatnonzero((total if added[0] >= 0 else counts) > 2)
        remainders = keys[big] & ((np.uint64(1) << np.uint64(self.remainder_bits)) - np.uint64(1))
        grown = added.copy()
        grown[big] = counters.encoded_lengths(remainders, total[big], True)
        grown[big] -= counters.encoded_lengths(remainders, counts[big], True)
        return grown

    def _splice_delete(
        self, old: _Decoded, quotients: np.ndarray, remainders: np.ndarray
    ) -> Tuple[int, Optional[_Items], _Change]:
        """Rows removed, the remaining ``(keys, counts)`` items, and the
        batch's change.

        Each distinct requested fingerprint removes ``min(requests, stored
        count)``; the remaining items are None when nothing was removed.
        """
        req, n_req, row_key = self._distinct(
            self._packed_fingerprints(quotients, remainders),
            np.ones(quotients.size, dtype=np.int64),
        )
        change = _Change(req, np.zeros(req.size, dtype=np.int64), row_key)
        if old.keys.size == 0:
            return 0, None, change
        j = np.minimum(np.searchsorted(old.keys, req), old.keys.size - 1)
        found = old.keys[j] == req
        j, taken = j[found], np.minimum(n_req[found], old.c[j[found]])
        removed = int(taken.sum())
        if not removed:
            return 0, None, change
        change.grow[found] = self._grown_slots(req[found], old.c[j], -taken)
        partial = old.c[j] > taken
        gone, kept = j[~partial], j[partial]
        if gone.size:
            rows = np.ones(old.keys.size, dtype=bool)
            rows[gone] = False
            keys, item_c = old.keys[rows], old.c[rows]
        else:
            keys, item_c = old.keys, old.c.copy()
        # A row that keeps a count moved left by the gone rows before it.
        item_c[kept - np.searchsorted(gone, kept)] -= taken[partial]
        return removed, (keys, item_c), change

    def _phase_windows(
        self, at: np.ndarray, masks: Sequence[np.ndarray], spans: _Spans
    ) -> List[_Window]:
        """The spans' run geometry before each phase and after the last one.

        Each quotient's rows sit in one phase, and the batch only grows
        (insert) or only shrinks (delete) runs.  So once phase ``k`` has
        run, a run has its final length if a phase up to ``k`` touched its
        quotient and its old length otherwise; the starts follow from the
        lengths by the canonical packing, span by span (runs outside the
        spans never move).  No slot is written for these intermediate
        layouts — they exist only to charge each phase.  ``at`` is each
        row's run in the spans (``-1`` for rows without a run).
        """
        if len(masks) == 1:
            return [spans.before, spans.after]
        phase_of = np.zeros(spans.q.size, dtype=np.int8)
        for k, mask in enumerate(masks):
            rows = at[mask]
            phase_of[rows[rows >= 0]] = k
        windows = [spans.before]
        for k in range(1, len(masks)):
            lens = np.where(phase_of < k, spans.after[1], spans.before[1])
            windows.append((self._canonical_starts(spans.q, lens)[0], lens))
        windows.append(spans.after)
        return windows

    def _charge_phases(
        self,
        charge: Callable[[np.ndarray, np.ndarray, _Window, _Window], None],
        quotients: np.ndarray,
        phases: Optional[Sequence[Phase]],
        spans: _Spans,
    ) -> None:
        """Charge every phase's rows inside its launch, in schedule order."""
        if phases is None:
            phases = self._single_phase(quotients.size)
        at = spans.row_at
        windows = self._phase_windows(at, [mask for mask, _ in phases], spans)
        for k, (mask, launch) in enumerate(phases):
            with launch:
                if mask.any():
                    charge(quotients[mask], at[mask], windows[k], windows[k + 1])

    def insert_sorted_batch(
        self,
        quotients: np.ndarray,
        remainders: np.ndarray,
        counts: Optional[np.ndarray] = None,
        phases: Optional[Sequence[Phase]] = None,
    ) -> None:
        """Insert a batch sorted by (quotient, remainder) in one merge.

        Functionally identical to calling :meth:`insert_fingerprint` per row
        (the canonical-layout argument above), but all slot and metadata
        traffic happens as array operations over the batch's spans.
        Hardware events are charged per input row, mirroring what the
        sequential thread-per-region insertion would generate.

        ``phases`` is the charging schedule: ``(row_mask, launch)`` pairs
        whose masks split the rows by quotient (no quotient in two phases).
        Each phase is charged inside its ``launch`` context as though the
        phases ran one after another; the table is still written once.  The
        default is one phase of every row with no context.  On
        :class:`FilterFullError` nothing is written or charged and no launch
        is entered.
        """
        quotients = np.asarray(quotients, dtype=np.int64)
        remainders = np.asarray(remainders, dtype=np.uint64)
        m = int(quotients.size)
        if m == 0:
            return
        # A copy: the merged counts may become the memoised decoded table.
        counts = np.ones(m, dtype=np.int64) if counts is None else np.array(counts, dtype=np.int64)
        if np.any(counts <= 0):
            raise ValueError("count must be positive")
        if np.any((quotients < 0) | (quotients >= self.n_canonical_slots)):
            raise ValueError("quotient out of range")
        if np.any(remainders >= (np.uint64(1) << np.uint64(self.remainder_bits))):
            raise ValueError("remainder wider than remainder_bits")

        old = self._decode_items()
        items, change = self._splice_insert(old, quotients, remainders, counts)
        spans = self._relayout(old, items, change)
        # Charged first: a one-span window views the geometry the write
        # then updates in place.
        self._charge_phases(self._charge_insert, quotients, phases, spans)
        self._write_spans(items, spans, self._total_count + int(counts.sum()))

    def _charge_insert(
        self, quotients: np.ndarray, at: np.ndarray, before: _Window, after: _Window
    ) -> None:
        """Charge the rows of one insert phase, given the spans' run geometry
        ``before`` and ``after`` the phase (``at``: each row's run in them).

        Each input row reads its run as it stands *when that row inserts* —
        the pre-phase run plus one slot per earlier row with the same
        quotient (rank within the sorted quotient group) — and writes it one
        slot longer, plus two metadata vectors, exactly as the per-item path
        does.  That path charges run traffic twice (an alignment-aware
        DeviceArray transaction plus an aligned _account charge) and records
        each moved slot twice (once in _shift_right_one, once in _account),
        folding the shift into the write/instruction charge.  Mirroring all
        of it, with the growing per-row lengths anchored at the run's
        settled start position, makes both paths agree exactly — on every
        counter — for sorted fills whose runs never move mid-batch (fills
        into an empty table, the benchmark workload, with plain counts);
        merges into an already-loaded table undercount the per-item path's
        per-move shift transactions by ~10-15 %.  Runs move only inside the
        spans, so the shifted slots sum over the spans' runs.
        """
        old_starts, old_lens = before
        new_starts, _new_lens = after
        m = int(quotients.size)
        row_starts = new_starts[at]
        eff_old = old_lens[at]
        old_start_rows = np.where(eff_old > 0, old_starts[at], row_starts)
        group_first = np.ones(m, dtype=bool)
        group_first[1:] = quotients[1:] != quotients[:-1]
        first_idx = np.flatnonzero(group_first)
        if first_idx.size < m:
            # Each row after its group's first sees the run one slot longer.
            eff_old += np.arange(m)
            eff_old -= np.repeat(first_idx, np.diff(np.append(first_idx, m)))
        # The rows' span lines (sums of the alignment-aware line counts,
        # an empty span taking none) and aligned slot lines, as the
        # per-item path charges them.
        shift = max(1, 128 // self.slot_bytes).bit_length() - 1
        old_lines = (old_start_rows + eff_old - 1) >> shift
        old_lines -= old_start_rows >> shift
        old_lines += 1
        old_lines *= eff_old > 0
        new_lines = int(((row_starts + eff_old) >> shift).sum()) - int((row_starts >> shift).sum())
        eff_sum = int(eff_old.sum())
        reads = int(old_lines.sum()) + int(self._slot_lines_vec(eff_old).sum())
        eff_old += 1
        writes = new_lines + m + int(self._slot_lines_vec(eff_old).sum())
        shifted = int(np.sum((new_starts - old_starts) * old_lens))
        self.recorder.add(
            cache_line_reads=reads + 2 * m + self._slot_lines(shifted),
            cache_line_writes=writes + 2 * m + self._slot_lines(shifted),
            slots_shifted=2 * shifted,
            instructions=4 * m + 2 * eff_sum + m + shifted,
        )

    def lookup_counts(self, quotients: np.ndarray, remainders: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`query_fingerprint` over a whole batch.

        Probes arrive in caller (hash) order.  They are packed into
        ``q << r | remainder`` keys, sorted once, answered with one
        ``searchsorted`` against the decoded table's sorted item keys — a
        sorted probe sequence walks the table front to back instead of
        jumping around it — and the counts are scattered back to caller
        order.  Run traffic is charged through :meth:`_run_traffic_of`,
        exactly as the per-item path charges it.
        """
        quotients = np.asarray(quotients, dtype=np.int64)
        remainders = np.asarray(remainders, dtype=np.uint64)
        m = int(quotients.size)
        out = np.zeros(m, dtype=np.int64)
        if m == 0:
            return out
        table = self._decode_items()
        # Per probe, the per-item path charges one read_range transaction
        # for the run plus _account's aligned charge and one metadata line;
        # mirror it so batch and per-item queries record the same traffic.
        q_lens, q_lines = self._run_traffic_of(quotients, table.run_starts, table.run_lens)
        self.recorder.add(
            cache_line_reads=int(q_lines.sum()) + m,
            instructions=int(4 * m + q_lens.sum()),
        )
        if table.keys.size == 0:
            return out
        probe_keys = self._packed_fingerprints(quotients, remainders)
        order = stable_argsort(probe_keys)
        sorted_keys = probe_keys[order]
        idx = np.minimum(np.searchsorted(table.keys, sorted_keys), table.keys.size - 1)
        out[order] = np.where(table.keys[idx] == sorted_keys, table.c[idx], 0)
        return out

    def delete_sorted_batch(
        self,
        quotients: np.ndarray,
        remainders: np.ndarray,
        phases: Optional[Sequence[Phase]] = None,
    ) -> int:
        """Delete one occurrence per row; returns how many rows removed one.

        Functionally identical to per-row :meth:`delete_fingerprint` calls:
        requests against an absent fingerprint remove nothing, and several
        requests against the same fingerprint remove at most its stored
        count.  ``phases`` schedules the charge as for
        :meth:`insert_sorted_batch`; the table is written once, over the
        clusters holding the requested quotients.
        """
        quotients = np.asarray(quotients, dtype=np.int64)
        remainders = np.asarray(remainders, dtype=np.uint64)
        if quotients.size == 0:
            return 0
        old = self._decode_items()
        removed, items, change = self._splice_delete(old, quotients, remainders)
        spans = self._relayout(old, old[:2] if items is None else items, change)
        self._charge_phases(self._charge_delete, quotients, phases, spans)
        if items is not None:
            self._write_spans(items, spans, self._total_count - removed)
        return removed

    def _charge_delete(
        self, quotients: np.ndarray, at: np.ndarray, before: _Window, _after: _Window
    ) -> None:
        """Charge the rows of one delete phase from the pre-phase geometry.

        A delete re-canonicalises the whole cluster containing its run, as
        the per-item path does.  Approximation, not exact parity: the
        per-item path decodes and rewrites its cluster run by run (one line
        transaction per run on top of the whole-cluster accounting) and
        verifies the removal with a trailing query, but each request *here*
        sees the length-biased pre-phase cluster, whereas sequential
        deletion shrinks clusters as it proceeds.  Halving the per-cluster
        terms calibrates the two paths at benchmark scale (q=12, ~30 % of
        the table deleted: within ~10 % on every counter); smaller tables
        land within ~2x, which keeps every Figure 6 ordering intact.  A
        delete's spans are whole clusters, and a phase only splits them, so
        every row's cluster lies inside the spans.
        """
        starts, lens = before
        m = int(quotients.size)
        # A run opens a new cluster when it starts past the end of every
        # run before it (an emptied run is no run, and ends nowhere).
        live = lens > 0
        all_live = bool(live.all())
        reach = starts + lens
        if not all_live:
            reach *= live
        np.maximum.accumulate(reach, out=reach)
        opens = np.ones(live.size, dtype=bool)
        np.greater(starts[1:], reach[:-1], out=opens[1:])
        if not all_live:
            opens &= live
        cluster_of = np.cumsum(opens)
        cluster_of -= 1
        first = np.flatnonzero(opens)
        last = np.append(first[1:], opens.size)[: first.size] - 1
        cluster_len = reach[last] - starts[first]
        if all_live:
            cluster_runs = last - first + 1
        else:
            runs_before = np.cumsum(live)
            cluster_runs = runs_before[last] - runs_before[first] + 1
        req_cluster = np.zeros(m, dtype=np.int64)
        req_runs = np.zeros(m, dtype=np.int64)
        rows = np.flatnonzero(at >= 0)
        rows = rows[live[at[rows]]]
        cluster = cluster_of[at[rows]]
        req_cluster[rows] = cluster_len[cluster]
        req_runs[rows] = cluster_runs[cluster]
        cluster_traffic = int(((req_runs + self._slot_lines_vec(req_cluster)) // 2).sum())
        self.recorder.add(
            cache_line_reads=cluster_traffic + 3 * m,
            cache_line_writes=cluster_traffic + 2 * m,
            slots_shifted=int(req_cluster.sum()) // 2,
            instructions=int(4 * m + req_cluster.sum()),
        )

    # --------------------------------------------------------------- iterate
    def iter_fingerprints(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(quotient, remainder, count)`` for every stored item.

        Host-side enumeration (used for resize / merge and by tests); does
        not count device traffic.
        """
        table = self._decode_items()
        quotients, remainders = self._split_fingerprints(table.keys)
        for q, r, c in zip(quotients.tolist(), remainders.tolist(), table.c.tolist()):
            if self.counting:
                yield int(q), int(r), int(c)
            else:
                # Non-counting cores store duplicates in separate slots and
                # enumerate them one per slot.
                for _ in range(int(c)):
                    yield int(q), int(r), 1

    def check_invariants(self) -> None:
        """Raise AssertionError if the metadata invariants are violated.

        Used heavily by the test suite: every occupied quotient has exactly
        one runend, runs are within bounds, used slots are exactly the slots
        covered by runs, and every run decodes cleanly.
        """
        assert self.occupieds.count() == self.runends.count(), (
            "occupieds/runends count mismatch"
        )
        uq, starts, ends, lens = self._runs_layout()
        covered = np.zeros(self.total_slots, dtype=bool)
        if uq.size:
            assert np.all(starts >= uq), "run starts before its canonical slot"
            assert np.all(ends >= starts), "empty run interval"
            assert int(ends[-1]) < self.total_slots, "run past the end of the table"
            total = int(lens.sum())
            off = np.concatenate(([0], np.cumsum(lens)))
            pos = np.repeat(starts - off[:-1], lens) + np.arange(total)
            covered[pos] = True
            if self.counting:
                vals = self.slots.peek()[pos]
                for k in np.flatnonzero(~counters.plain_run_mask(vals, off)):
                    counters.decode_run(vals[off[k] : off[k + 1]].tolist())
        assert np.array_equal(covered, self.slot_used.bits), "slot_used does not match run coverage"

    # -------------------------------------------------------------- lifecycle
    def decoded_items(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(quotients, remainders, counts)`` sorted by fingerprint.

        Host-side enumeration (like :meth:`iter_fingerprints`, but as whole
        arrays for the lifecycle merge/resize paths); charges no device
        traffic.  The arrays are copies — callers may mutate them freely.
        """
        table = self._decode_items()
        return (*self._split_fingerprints(table.keys), table.c.copy())

    def export_state(self) -> "Dict[str, np.ndarray]":
        """Snapshot the complete table state as named arrays."""
        return {
            "slots": self.slots.peek().copy(),
            "occupieds": self.occupieds.to_words(),
            "runends": self.runends.to_words(),
            "slot_used": self.slot_used.to_words(),
            "scalars": np.array(
                [self._n_distinct, self._total_count], dtype=np.int64
            ),
        }

    def import_state(self, state: "Mapping[str, np.ndarray]") -> None:
        """Restore the table from :meth:`export_state` output, bit for bit."""
        slots = np.asarray(state["slots"])
        data = self.slots.peek()
        if slots.size != data.size:
            raise SnapshotError(
                f"slot section holds {slots.size} slots, table has {data.size}"
            )
        data[:] = slots.astype(data.dtype, copy=False)
        if self._shared_scalars is None:
            self.occupieds = Bitvector.from_words(state["occupieds"], self.total_slots)
            self.runends = Bitvector.from_words(state["runends"], self.total_slots)
            self.slot_used = Bitvector.from_words(state["slot_used"], self.total_slots)
        else:
            # Adopted tables must keep writing through the shared-memory
            # buffers, so restore the metadata bits in place of the views
            # instead of rebinding fresh heap vectors.
            for bv, section in (
                (self.occupieds, "occupieds"),
                (self.runends, "runends"),
                (self.slot_used, "slot_used"),
            ):
                words = np.asarray(state[section], dtype=np.uint64)
                if words.size != bv.n_words:
                    raise SnapshotError(
                        f"snapshot section {section!r} holds {words.size} "
                        f"words, table has {bv.n_words}"
                    )
                bv.words[:] = words
        scalars = np.asarray(state["scalars"], dtype=np.int64)
        self._n_distinct = int(scalars[0])
        self._total_count = int(scalars[1])
        self._decoded_cache = None
        self._stale_free_slots = True
        if self._shared_scalars is not None:
            self.flush_shared()

    # ----------------------------------------------------------- shared state
    def adopt_state(self, state: "Mapping[str, np.ndarray]") -> None:
        """Rebind the table onto externally allocated buffers, zero-copy.

        The shared-memory allocation path of :mod:`repro.sharding`: ``state``
        carries the same named sections as :meth:`export_state`, but backed
        by ``multiprocessing.shared_memory`` views.  After adoption every
        slot/metadata mutation writes straight through to the shared
        segment; only the two scalar counters live as Python ints and are
        synchronised explicitly with :meth:`refresh_shared` (at task start,
        after another process may have mutated the table) and
        :meth:`flush_shared` (at task end).
        """
        slots = np.asarray(state["slots"])
        if slots.size != self.total_slots or slots.dtype != self.slots.data.dtype:
            raise SnapshotError(
                f"cannot adopt a {slots.dtype} slot buffer of {slots.size} "
                f"slots; table needs {self.slots.data.dtype} x {self.total_slots}"
            )
        self.slots.data = slots
        self.occupieds = Bitvector.adopt_words(state["occupieds"], self.total_slots)
        self.runends = Bitvector.adopt_words(state["runends"], self.total_slots)
        self.slot_used = Bitvector.adopt_words(state["slot_used"], self.total_slots)
        scalars = np.asarray(state["scalars"])
        if scalars.dtype != np.int64 or scalars.size != 2:
            raise SnapshotError("scalar section must be int64[2]")
        self._shared_scalars = scalars
        self.refresh_shared()

    def refresh_shared(self) -> None:
        """Reload the scalar counters and drop caches after external writes."""
        if self._shared_scalars is None:
            raise SnapshotError("table is not adopted onto shared buffers")
        self._n_distinct = int(self._shared_scalars[0])
        self._total_count = int(self._shared_scalars[1])
        self._decoded_cache = None
        self._stale_free_slots = True

    def flush_shared(self) -> None:
        """Write the scalar counters back into the shared buffer."""
        if self._shared_scalars is None:
            raise SnapshotError("table is not adopted onto shared buffers")
        self._shared_scalars[0] = self._n_distinct
        self._shared_scalars[1] = self._total_count

    def extended(
        self, extra_quotient_bits: int = 1, name: Optional[str] = None
    ) -> "QuotientFilterCore":
        """Return a core with ``extra_quotient_bits`` moved from remainder to
        quotient, holding the same fingerprint multiset.

        This is the quotient filter's resize primitive: the total fingerprint
        width ``p = q + r`` stays fixed, so every stored ``p``-bit
        fingerprint re-splits exactly under the wider quotient.  The stored
        items are enumerated host-side (no device traffic, like
        :meth:`iter_fingerprints`) and rebuilt into the new table through the
        canonical sorted merge, which charges the rebuild's calibrated
        events.
        """
        if extra_quotient_bits < 1:
            raise ValueError("resize must grow the filter")
        new_r = self.remainder_bits - extra_quotient_bits
        if new_r < 1:
            raise ValueError("not enough remainder bits to donate to the quotient")
        new_q = self.quotient_bits + extra_quotient_bits
        new_core = QuotientFilterCore(
            new_q,
            new_r,
            self.recorder,
            counting=self.counting,
            slot_metadata_packed=self.slot_metadata_packed,
            name=name if name is not None else self.slots.name,
        )
        item_q, item_r, item_c = self.decoded_items()
        if item_q.size:
            # Re-split under the new geometry; fingerprint order (and thus
            # the sorted-batch precondition) is preserved by construction.
            fingerprints = (
                item_q.astype(np.uint64) << np.uint64(self.remainder_bits)
            ) | item_r
            new_quotients = (fingerprints >> np.uint64(new_r)).astype(np.int64)
            new_remainders = fingerprints & np.uint64((1 << new_r) - 1)
            new_core.insert_sorted_batch(new_quotients, new_remainders, item_c)
        return new_core
