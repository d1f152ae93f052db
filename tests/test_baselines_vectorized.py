"""Differential tests guarding the vectorised baseline bulk paths.

All six baseline filters (Bloom, blocked Bloom, SQF, RSQF, CPU CQF, CPU
VQF) compute whole batches with array operations; these tests pin each
vectorised path to the per-item route (the point methods, which the
quotient filters' tiny batches also take): identical table state, identical
results, and identical simulated hardware events — mirroring
``test_tcf_vectorized.py`` for the TCF and ``test_gqf_vectorized.py`` for
the GQF.

Event parity for the quotient-filter family is exact for the calibrated
regime (sorted fills into an empty table — the benchmark workload — and
arbitrary query batches); deletes are pinned on results and state only, as
their accounting is documented as approximate.
"""

import numpy as np
import pytest

from repro.baselines.blocked_bloom import BlockedBloomFilter
from repro.baselines.bloom import BloomFilter
from repro.baselines.cpu_cqf import CPUCountingQuotientFilter
from repro.baselines.cpu_vqf import CPUVectorQuotientFilter
from repro.baselines.rsqf import RankSelectQuotientFilter
from repro.baselines.sqf import StandardQuotientFilter
from repro.core.exceptions import FilterFullError, UnsupportedOperationError
from repro.core.gqf.layout import SEQUENTIAL_BATCH_MAX
from repro.gpusim.stats import StatsRecorder

#: Every counter that must agree between the vectorised and per-item paths.
EVENT_FIELDS = (
    "cache_line_reads",
    "cache_line_writes",
    "coalesced_bytes_read",
    "coalesced_bytes_written",
    "shared_memory_accesses",
    "atomic_ops",
    "cas_retries",
    "warp_intrinsics",
    "divergent_branches",
    "slots_shifted",
    "instructions",
    "kernel_launches",
    "items_sorted",
)


def _force_sequential(filt):
    """Route every quotient-filter batch through the per-item reference path."""
    filt.core.prefers_sequential = lambda n: True


def _insert(filt, keys, sequential, per_item_bulk):
    """Insert through ``bulk_insert`` or the per-item reference."""
    if sequential:
        per_item_bulk(filt, "insert", keys)
    else:
        filt.bulk_insert(keys)


def _keys(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2**63, size=n, dtype=np.uint64)


def _assert_events_equal(vect, seq, context):
    for field in EVENT_FIELDS:
        assert getattr(vect, field) == getattr(seq, field), (
            context,
            field,
            getattr(vect, field),
            getattr(seq, field),
        )


BUILDERS = {
    "BF": lambda rec: BloomFilter.for_capacity(4000, recorder=rec),
    "BBF": lambda rec: BlockedBloomFilter.for_capacity(4000, recorder=rec),
    "SQF": lambda rec: StandardQuotientFilter(12, 5, rec),
    "RSQF": lambda rec: RankSelectQuotientFilter(12, 5, rec),
    "CQF": lambda rec: CPUCountingQuotientFilter(12, 8, recorder=rec),
    "VQF": lambda rec: CPUVectorQuotientFilter.for_capacity(4000, recorder=rec),
}


def _table_state(filt):
    if hasattr(filt, "core"):
        return filt.core.slots.peek()
    if hasattr(filt, "table"):
        return filt.table.slots.peek()
    return filt.words.peek()


def _run_insert_and_query(name, sequential, keys, probes, per_item_bulk):
    """Fill and probe a fresh filter, in batch or through the per-item path
    (the quotient filters' forced size route, else the point methods)."""
    rec = StatsRecorder()
    filt = BUILDERS[name](rec)
    insert, query = filt.bulk_insert, filt.bulk_query
    if sequential and hasattr(filt, "core"):
        _force_sequential(filt)
    elif sequential:
        insert = lambda batch: per_item_bulk(filt, "insert", batch)
        query = lambda batch: per_item_bulk(filt, "query", batch)
    insert(keys)
    insert_stats = rec.total.copy()
    rec.reset()
    out = query(probes)
    return filt, insert_stats, rec.total.copy(), out


class TestInsertQueryDifferential:
    """Vectorised fills/probes must match the per-item path bit for bit."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_state_results_and_events_match(self, name, seed, per_item_bulk):
        keys = _keys(3000, seed)
        probes = np.concatenate([keys[:800], _keys(800, seed + 100)])
        vect = _run_insert_and_query(name, False, keys, probes, per_item_bulk)
        seq = _run_insert_and_query(name, True, keys, probes, per_item_bulk)
        assert np.array_equal(_table_state(vect[0]), _table_state(seq[0])), name
        assert np.array_equal(vect[3], seq[3]), name
        assert vect[0].n_items == seq[0].n_items
        _assert_events_equal(vect[1], seq[1], (name, "insert"))
        _assert_events_equal(vect[2], seq[2], (name, "query"))

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_empty_batches_are_noops(self, name):
        rec = StatsRecorder()
        filt = BUILDERS[name](rec)
        empty = np.zeros(0, dtype=np.uint64)
        assert filt.bulk_insert(empty) == 0
        assert filt.bulk_query(empty).size == 0
        assert filt.n_items == 0

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_tiny_batches_route_per_item_with_same_result(self, name):
        """Dribbling tiny batches builds the same filter as one batch (the
        quotient filters run them per item, the others in batch)."""
        keys = _keys(4 * SEQUENTIAL_BATCH_MAX, 7)
        one_shot = BUILDERS[name](StatsRecorder())
        dribbled = BUILDERS[name](StatsRecorder())
        one_shot.bulk_insert(keys)
        for chunk in np.split(keys, 4):  # chunks == SEQUENTIAL_BATCH_MAX
            dribbled.bulk_insert(chunk)
        assert np.array_equal(_table_state(one_shot), _table_state(dribbled))
        assert one_shot.bulk_query(keys[: SEQUENTIAL_BATCH_MAX]).all()

    def test_negative_query_early_exit_is_charged(self, per_item_bulk):
        """Bloom negative probes stop at the first zero bit; the batched
        path must charge the same (data-dependent) number of line reads."""
        keys = _keys(500, 3)
        negatives = _keys(2000, 90)
        vect = _run_insert_and_query("BF", False, keys, negatives, per_item_bulk)
        seq = _run_insert_and_query("BF", True, keys, negatives, per_item_bulk)
        _assert_events_equal(vect[2], seq[2], "negative-query")
        # Mostly-empty filter: far fewer reads than k per probe.
        assert vect[2].cache_line_reads < 0.5 * 7 * negatives.size


class TestDeleteDifferential:
    """Bulk deletes agree with per-item deletes on results and state."""

    @pytest.mark.parametrize("name", ["SQF", "CQF"])
    def test_bulk_delete_matches_per_item(self, name):
        keys = _keys(2000, 11)
        doomed = np.concatenate([keys[::3], _keys(300, 12)])
        results = {}
        for sequential in (False, True):
            filt = BUILDERS[name](StatsRecorder())
            if sequential:
                _force_sequential(filt)
            filt.bulk_insert(keys)
            results[sequential] = (filt, filt.bulk_delete(doomed))
        assert results[False][1] == results[True][1]
        # The per-item delete leaves stale bytes in vacated slots while the
        # batch rebuild zeroes them, so compare the *logical* content.
        assert sorted(results[False][0].core.iter_fingerprints()) == sorted(
            results[True][0].core.iter_fingerprints()
        )
        for filt, _ in results.values():
            filt.core.check_invariants()
        # Random doomed keys may collide with stored fingerprints (deleting
        # a kept key's slot is legitimate filter semantics), so pin the two
        # paths to each other rather than asserting no false negatives.
        kept = np.setdiff1d(keys, doomed)
        assert np.array_equal(
            results[False][0].bulk_query(kept), results[True][0].bulk_query(kept)
        )

    def test_cqf_bulk_count_matches_point_counts(self):
        keys = _keys(600, 13)
        batch = np.concatenate([keys, keys[:200]])  # duplicates count up
        filt = BUILDERS["CQF"](StatsRecorder())
        filt.bulk_insert(batch)
        probes = np.concatenate([keys, _keys(200, 14)])
        bulk = filt.bulk_count(probes)
        point = np.array([filt.count(int(k)) for k in probes], dtype=np.int64)
        assert np.array_equal(bulk, point)


class TestOverflowSemantics:
    """Over-capacity batches fill the table before raising, on both routes."""

    @pytest.mark.parametrize("name", ["SQF", "RSQF", "CQF"])
    def test_quotient_family_fills_then_raises(self, name):
        cls = {"SQF": StandardQuotientFilter, "RSQF": RankSelectQuotientFilter}.get(name)
        rec = StatsRecorder()
        if cls is not None:
            filt = cls(6, 5, rec)
        else:
            filt = CPUCountingQuotientFilter(6, 8, recorder=rec)
        with pytest.raises(FilterFullError):
            filt.bulk_insert(_keys(5000, 21))
        assert filt.core.n_occupied_slots > 0.9 * filt.core.total_slots
        filt.core.check_invariants()

    def test_vqf_overflow_matches_per_item(self, per_item_bulk):
        keys = _keys(3000, 22)
        states = {}
        for sequential in (False, True):
            rec = StatsRecorder()
            filt = CPUVectorQuotientFilter(2000, recorder=rec)
            if sequential:
                assert not per_item_bulk(filt, "insert", keys).all()
            else:
                with pytest.raises(FilterFullError):
                    filt.bulk_insert(keys)
            states[sequential] = (filt, rec.total.copy())
        assert states[False][0].n_items == states[True][0].n_items
        assert np.array_equal(
            _table_state(states[False][0]), _table_state(states[True][0])
        )
        _assert_events_equal(states[False][1], states[True][1], "vqf-overflow")


class TestVQFStatefulPaths:
    """Two-choice routing reads evolving fills; pin the tricky regimes."""

    def test_high_load_shortcut_and_swap_decisions_match(self, per_item_bulk):
        keys = _keys(4300, 23)
        results = {}
        for sequential in (False, True):
            rec = StatsRecorder()
            filt = CPUVectorQuotientFilter.for_capacity(4400, recorder=rec)
            _insert(filt, keys, sequential, per_item_bulk)
            results[sequential] = (filt, rec.total.copy())
        assert np.array_equal(
            _table_state(results[False][0]), _table_state(results[True][0])
        )
        _assert_events_equal(results[False][1], results[True][1], "vqf-high-load")
        assert results[False][0].load_factor > 0.9

    def test_tombstoned_tables_consume_free_slots_in_scan_order(self, per_item_bulk):
        base = _keys(1500, 24)
        more = _keys(800, 25)
        results = {}
        for sequential in (False, True):
            rec = StatsRecorder()
            filt = CPUVectorQuotientFilter.for_capacity(3000, recorder=rec)
            _insert(filt, base, sequential, per_item_bulk)
            for key in base[::4]:
                filt.delete(int(key))
            rec.reset()
            _insert(filt, more, sequential, per_item_bulk)
            results[sequential] = (filt, rec.total.copy())
        assert np.array_equal(
            _table_state(results[False][0]), _table_state(results[True][0])
        )
        _assert_events_equal(results[False][1], results[True][1], "vqf-tombstones")

    def test_large_delete_batch_on_a_tombstoned_table_matches(self, per_item_bulk):
        stored = _keys(4500, 26)
        absent = _keys(400, 27)
        rng = np.random.default_rng(28)
        # Repeats of stored keys, absent keys, and keys already deleted.
        batch = rng.choice(np.concatenate([stored[:900], absent]), size=1_200)
        pair = []
        for _ in range(2):
            filt = CPUVectorQuotientFilter.for_capacity(4400, recorder=StatsRecorder())
            filt.bulk_insert(stored)
            for key in stored[::30]:
                filt.delete(int(key))
            pair.append(filt)
        bulk, reference = pair
        slots = _table_state(bulk)
        assert bulk.load_factor > 0.9
        assert np.count_nonzero(slots == 1) > 0  # tombstones
        assert np.unique(batch).size < batch.size
        removed = bulk.bulk_delete(batch)
        assert removed == per_item_bulk(reference, "delete", batch)
        assert 0 < removed < batch.size
        assert np.array_equal(_table_state(bulk), _table_state(reference))
        assert bulk.n_items == reference.n_items
        assert bulk.recorder.total.as_dict() == reference.recorder.total.as_dict()
        records = [
            [(k.name, k.stats.as_dict()) for k in filt.kernels.kernels]
            for filt in pair
        ]
        assert records[0] == records[1]
        assert records[0][-1][0] == "cpu_vqf_delete"


class TestValueRejection:
    """Bulk inserts must reject values exactly like the point API does."""

    @pytest.mark.parametrize("name", ["BF", "BBF", "VQF"])
    def test_bulk_values_raise(self, name):
        filt = BUILDERS[name](StatsRecorder())
        keys = _keys(100, 31)
        values = np.ones(keys.size, dtype=np.uint64)
        with pytest.raises(UnsupportedOperationError):
            filt.bulk_insert(keys, values)
        # All-zero values mean "no value" (the point API accepts value=0).
        assert filt.bulk_insert(keys, np.zeros(keys.size, dtype=np.uint64)) == keys.size


class TestSizingStored:
    """`for_capacity` must honour a non-paper bits-per-item budget."""

    def test_bloom_capacity_uses_constructed_budget(self):
        filt = BloomFilter.for_capacity(1000, bits_per_item=20.0)
        assert filt.capacity == pytest.approx(1000, rel=0.01)
        assert filt.sizing_bits_per_item == 20.0
        assert filt.n_bits == pytest.approx(20_000, rel=0.01)

    def test_blocked_bloom_capacity_uses_constructed_budget(self):
        filt = BlockedBloomFilter.for_capacity(1000, bits_per_item=20.0)
        assert filt.capacity == pytest.approx(1000, rel=0.06)  # block rounding

    def test_blocked_bloom_fp_rate_needs_no_scipy(self):
        """The closed-form Poisson mix must work without scipy installed."""
        import sys

        filt = BlockedBloomFilter.for_capacity(4000, recorder=StatsRecorder())
        filt.bulk_insert(_keys(3000, 32))
        hidden = {
            mod: sys.modules.pop(mod)
            for mod in list(sys.modules)
            if mod == "scipy" or mod.startswith("scipy.")
        }
        sys.modules["scipy"] = None  # import raises ImportError if attempted
        try:
            rate = filt.false_positive_rate
        finally:
            del sys.modules["scipy"]
            sys.modules.update(hidden)
        assert 0.0 < rate < 0.2
