"""k-way filter merge: stream sorted fingerprint runs into a fresh table.

The quotient-filter families merge *exactly*: a CQF-layout table is a pure
function of its stored (fingerprint, count) multiset, so decoding each input
into its sorted fingerprint run, merging the runs with the same device
sort + reduce-by-key pipeline the map-reduce insert path uses
(:func:`repro.core.gqf.mapreduce.merge_sorted_runs`), and bulk-inserting the
result yields bit-for-bit the table a single filter fed the union would
have.  Counts are summed for counting filters; non-counting cores keep one
slot per duplicate, exactly as repeated inserts would.

The TCF family cannot re-derive keys from stored fingerprints, so two routes
exist:

* **journal merge** — when every input runs with ``auto_resize=True`` (and
  therefore carries a key journal), the union of journals is bulk-inserted
  into a fresh, larger auto-resizing filter.  Exact, and the only route that
  can grow the table.
* **same-geometry merge** — otherwise, all inputs must share one geometry;
  blocks merge slot-wise (a stored word stays valid in the same block index)
  and backing entries keep their bucket.  Raises
  :class:`~repro.core.exceptions.FilterFullError` if any block or bucket
  overflows, since spilled words cannot be re-routed without keys.

Duplicate values for one TCF key resolve by ``value_policy``: ``"all"``
keeps every stored copy (the default — what repeated inserts produce),
``"first"`` keeps the first in input order, ``"min"``/``"max"`` keep the
extreme value.  Policies apply within each storage class (per (block,
fingerprint) group in the table, per key in the backing store and journal);
a fingerprint shared by distinct keys cannot be split without the keys, the
same aliasing every fingerprint filter has.

Bloom-family filters merge by word-wise OR over identical geometries; the
summed ``n_items`` is an upper bound when the inputs share items (a Bloom
filter cannot count distinct insertions).

:func:`merge` picks the route by family base: :class:`TwoChoiceFilter`,
:class:`~repro.core.gqf.quotient_filter.QuotientFilter` or
:class:`~repro.baselines.bloom.BitArrayFilter`; any other class refuses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..baselines.bloom import BitArrayFilter
from ..core.base import AbstractFilter
from ..core.exceptions import FilterFullError, UnsupportedOperationError
from ..core.gqf.mapreduce import merge_sorted_runs
from ..core.gqf.quotient_filter import QuotientFilter
from ..core.tcf.backing import BackingTable
from ..core.tcf.config import EMPTY_SLOT, TOMBSTONE_SLOT
from ..core.tcf.lifecycle import TwoChoiceFilter
from ..gpusim.stats import StatsRecorder

VALUE_POLICIES = ("all", "first", "min", "max")


def merge(
    *filters: AbstractFilter,
    value_policy: str = "all",
    recorder: Optional[StatsRecorder] = None,
) -> AbstractFilter:
    """Merge ``filters`` into one fresh filter holding the union of items.

    All inputs must be instances of one filter class.  Returns a new filter
    (inputs are left untouched); the merge's sort/insert work is charged to
    the new filter's recorder, so merge cost is measurable.
    """
    if len(filters) < 2:
        raise ValueError("merge needs at least two filters")
    if value_policy not in VALUE_POLICIES:
        raise ValueError(f"value_policy must be one of {VALUE_POLICIES}")
    cls = type(filters[0])
    if any(type(f) is not cls for f in filters[1:]):
        names = sorted({type(f).__name__ for f in filters})
        raise ValueError(f"cannot merge different filter classes: {names}")
    if isinstance(filters[0], TwoChoiceFilter):
        return _merge_tcf(filters, value_policy, recorder)
    if isinstance(filters[0], QuotientFilter):
        return _merge_gqf_family(filters, recorder)
    if isinstance(filters[0], BitArrayFilter):
        return _merge_bloom_family(filters, recorder)
    raise UnsupportedOperationError(
        f"{cls.__name__} does not support merging"
    )


# ------------------------------------------------------------------ GQF family
def _merge_gqf_family(
    filters: Sequence[AbstractFilter], recorder: Optional[StatsRecorder]
) -> AbstractFilter:
    """Exact merge of quotient-filter-core filters via sorted-run k-way merge."""
    total_bits = {
        f.scheme.quotient_bits + f.scheme.remainder_bits for f in filters
    }
    if len(total_bits) != 1:
        raise ValueError(
            "quotient filters only merge when they share one total fingerprint "
            f"width (quotient + remainder bits); got {sorted(total_bits)}"
        )
    fingerprint_bits = total_bits.pop()
    runs: List[np.ndarray] = []
    counts: List[np.ndarray] = []
    for f in filters:
        quotients, remainders, item_counts = f.core.decoded_items()
        runs.append(f.scheme.join(quotients, remainders))
        counts.append(item_counts)

    rec = recorder if recorder is not None else StatsRecorder()
    unique, summed = merge_sorted_runs(runs, counts, rec)
    fps = unique.astype(np.uint64)

    config = filters[0].snapshot_config()
    quotient_bits = max(f.scheme.quotient_bits for f in filters)
    # Pre-size so the distinct union fits at a healthy load factor; keep a
    # grow-and-retry loop anyway (insert_sorted_batch is all-or-nothing, so
    # a failed attempt leaves nothing to clean up).
    while fps.size > 0.95 * (1 << quotient_bits):
        quotient_bits += 1
    while True:
        remainder_bits = fingerprint_bits - quotient_bits
        if remainder_bits < 1:
            raise FilterFullError(
                "merged filter cannot grow further: no remainder bits left "
                "to donate to the quotient",
                n_slots=1 << quotient_bits,
            )
        config["quotient_bits"] = quotient_bits
        config["remainder_bits"] = remainder_bits
        out = type(filters[0])._from_snapshot_config(config, recorder=rec)
        new_quotients = (fps >> np.uint64(remainder_bits)).astype(np.int64)
        new_remainders = fps & np.uint64((1 << remainder_bits) - 1)
        try:
            out.core.insert_sorted_batch(new_quotients, new_remainders, summed)
            return out
        except FilterFullError:
            quotient_bits += 1


# ------------------------------------------------------------------ TCF family
def _tcf_policy_winners(
    group_ids: np.ndarray, values: np.ndarray, policy: str
) -> np.ndarray:
    """Indices of the entries a dedup policy keeps (one per group)."""
    keep = []
    best: dict = {}
    for i, (group, value) in enumerate(zip(group_ids.tolist(), values.tolist())):
        if group not in best:
            best[group] = i
        elif policy == "min" and value < values[best[group]]:
            best[group] = i
        elif policy == "max" and value > values[best[group]]:
            best[group] = i
        # "first": the initial entry stands.
    keep = sorted(best.values())
    return np.asarray(keep, dtype=np.int64)


def _merge_tcf(
    filters: Sequence[AbstractFilter],
    value_policy: str,
    recorder: Optional[StatsRecorder],
) -> AbstractFilter:
    configs = {f.config for f in filters}
    if len(configs) != 1:
        raise ValueError("TCFs only merge when they share one TCFConfig")
    if all(f._journal is not None for f in filters):
        return _merge_tcf_by_journal(filters, value_policy, recorder)
    return _merge_tcf_tables(filters, value_policy, recorder)


def _merge_tcf_by_journal(
    filters: Sequence[AbstractFilter],
    value_policy: str,
    recorder: Optional[StatsRecorder],
) -> AbstractFilter:
    """Exact TCF merge through the key journals (all inputs auto-resizing)."""
    parts = [f._journal.arrays() for f in filters]
    keys = np.concatenate([p[0] for p in parts])
    values = np.concatenate([p[1] for p in parts])
    if value_policy != "all" and keys.size:
        keep = _tcf_policy_winners(keys, values, value_policy)
        keys, values = keys[keep], values[keep]
    out = type(filters[0])(
        sum(f.table.n_slots for f in filters),
        filters[0].config,
        recorder=recorder,
        auto_resize=True,
        auto_resize_at=filters[0].auto_resize_at,
    )
    if keys.size:
        out.bulk_insert(keys, values)
    return out


def _merge_tcf_tables(
    filters: Sequence[AbstractFilter],
    value_policy: str,
    recorder: Optional[StatsRecorder],
) -> AbstractFilter:
    """Same-geometry TCF merge: slot-wise blocks, bucket-wise backing."""
    geometries = {(f.table.n_blocks, f.backing.n_buckets) for f in filters}
    if len(geometries) != 1:
        raise ValueError(
            "TCFs without key journals only merge at one shared geometry; "
            "build them with auto_resize=True to merge across sizes"
        )
    first = filters[0]
    config = first.config
    out = type(first)(first.table.n_slots, config, recorder=recorder)
    block_size = config.block_size
    value_bits = config.value_bits
    out_rows = out.table.rows()
    dtype = out_rows.dtype
    live_slots = 0
    input_rows = [f.table.rows() for f in filters]
    for block in range(first.table.n_blocks):
        words_parts = []
        for rows in input_rows:
            row = rows[block]
            words_parts.append(row[(row != EMPTY_SLOT) & (row != TOMBSTONE_SLOT)])
        words = np.concatenate(words_parts)
        if value_policy != "all" and words.size:
            fingerprints = (words >> value_bits) if value_bits else words
            slot_values = (
                words & dtype.type((1 << value_bits) - 1)
                if value_bits
                else np.zeros(words.size, dtype=dtype)
            )
            keep = _tcf_policy_winners(fingerprints, slot_values, value_policy)
            words = words[keep]
        if words.size > block_size:
            raise FilterFullError(
                f"merged TCF block {block} overflows "
                f"({words.size} live words > {block_size} slots); stored "
                "fingerprints cannot be re-routed without keys — merge "
                "auto_resize filters instead",
                n_slots=first.table.n_slots,
                batch_offset=block,
            )
        # Rows stay ascending overall (the bulk TCF's searchsorted
        # invariant): empties sort in front of the live words.
        row = np.full(block_size, EMPTY_SLOT, dtype=dtype)
        row[block_size - words.size :] = np.sort(words)
        out_rows[block] = row
        live_slots += int(words.size)

    backing_items = _merge_backing(filters, out, value_policy)
    out._n_items = live_slots + backing_items
    out.backing._n_items = backing_items
    return out


def _merge_backing(
    filters: Sequence[AbstractFilter], out: AbstractFilter, value_policy: str
) -> int:
    """Bucket-preserving merge of the backing tables; returns live entries.

    An entry's bucket was on its key's probe path in the source and every
    earlier-round bucket was full there; merged buckets are supersets, so
    lookups still terminate correctly.  Policy-deduped losers become
    tombstones (not empties) to preserve the early-exit invariant.
    """
    width = BackingTable.BUCKET_WIDTH
    out_keys = out.backing.keys.peek()
    out_values = out.backing.values.peek()
    placed_flat: List[int] = []
    placed_key: List[int] = []
    placed_value: List[int] = []
    for f in filters:
        keys = f.backing.keys.peek()
        values = f.backing.values.peek()
        for index in np.flatnonzero((keys != EMPTY_SLOT) & (keys != TOMBSTONE_SLOT)):
            bucket = int(index) // width
            start = bucket * width
            window = out_keys[start : start + width]
            free = np.flatnonzero(
                (window == EMPTY_SLOT) | (window == TOMBSTONE_SLOT)
            )
            if free.size == 0:
                raise FilterFullError(
                    f"merged TCF backing bucket {bucket} overflows; merge "
                    "auto_resize filters instead",
                    n_slots=out.backing.n_slots,
                )
            flat = start + int(free[0])
            out_keys[flat] = keys[index]
            out_values[flat] = values[index]
            placed_flat.append(flat)
            placed_key.append(int(keys[index]))
            placed_value.append(int(values[index]))
    count = len(placed_flat)
    if value_policy != "all" and count:
        keep = set(
            _tcf_policy_winners(
                np.asarray(placed_key, dtype=np.uint64),
                np.asarray(placed_value, dtype=np.uint64),
                value_policy,
            ).tolist()
        )
        for i, flat in enumerate(placed_flat):
            if i not in keep:
                out_keys[flat] = np.uint64(TOMBSTONE_SLOT)
                out_values[flat] = np.uint64(0)
                count -= 1
    return count


# ---------------------------------------------------------------- Bloom family
def _merge_bloom_family(
    filters: Sequence[AbstractFilter], recorder: Optional[StatsRecorder]
) -> AbstractFilter:
    """Word-wise OR of identical-geometry Bloom-family filters.

    ``n_items`` sums the inputs' counts — an upper bound when they share
    items, the best a Bloom filter can report.
    """
    configs = {
        (f.snapshot_config()["n_hashes"], f.words.peek().shape) for f in filters
    }
    first = filters[0]
    if len({f.n_bits for f in filters}) != 1 or len(configs) != 1:
        raise ValueError("Bloom filters only merge at one shared geometry")
    out = type(first)._from_snapshot_config(first.snapshot_config(), recorder=recorder)
    merged = first.words.peek().copy()
    for f in filters[1:]:
        merged |= f.words.peek()
    state = {
        "words": merged,
        "scalars": np.array([sum(f.n_items for f in filters)], dtype=np.int64),
    }
    out.restore_state(state)
    return out
