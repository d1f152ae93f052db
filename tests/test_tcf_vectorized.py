"""Differential tests guarding the vectorised bulk-TCF path.

The bulk TCF computes whole batches with array operations; these tests pin
its behaviour to the per-item path (``_bulk_insert_sequential``, the point
probes and deletes; the insert and delete of tables whose slot words do not
pack with the block index): identical slot placement, identical backing
contents, identical simulated hardware events.  They also cover the
historic duplicate-word spill mis-attribution (`np.isin` matched spills by
*value*, so a duplicated fingerprint word could route the wrong key/value to
pass 2 or the backing table) by asserting positional spill tracking.
"""

import numpy as np
import pytest

from repro.core.exceptions import FilterFullError
from repro.core.tcf import BULK_TCF_DEFAULT, BulkTCF, TCFConfig
from repro.core.tcf import bulk_tcf
from repro.core.tcf.backing import BackingTable
from repro.core.tcf.config import EMPTY_SLOT
from repro.gpusim.stats import StatsRecorder

#: A values-enabled bulk layout (20-bit packed slots, fits the cache line).
VALUES_CONFIG = TCFConfig(fingerprint_bits=16, block_size=32, cg_size=32, value_bits=4)


def _build(capacity, config=BULK_TCF_DEFAULT):
    return BulkTCF.for_capacity(capacity, config, StatsRecorder())


def _insert_both_paths(capacity, keys, values=None, config=BULK_TCF_DEFAULT):
    """Same batch through the vectorised and the per-item path."""
    vect = _build(capacity, config)
    seq = _build(capacity, config)
    if values is None:
        values = np.zeros(keys.size, dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)
    vect.bulk_insert(keys, values)
    h = seq._derive_batch(keys)
    words = seq._pack_words(h.fingerprint, values)
    seq._bulk_insert_sequential(keys, values, h, words)
    return vect, seq


def _run(filt, op, keys, per_item, per_item_bulk):
    """One bulk ``op`` call, or its per-item reference."""
    if per_item:
        return per_item_bulk(filt, op, keys)
    return getattr(filt, f"bulk_{op}")(keys)


def _assert_same_state(vect, seq):
    assert np.array_equal(vect.table.slots.peek(), seq.table.slots.peek())
    assert sorted(vect.backing.iter_items()) == sorted(seq.backing.iter_items())
    assert vect.n_items == seq.n_items


class TestInsertDifferential:
    """One batch through both insert paths must build identical tables."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_high_load_batches_build_identical_tables(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2**63, size=3600, dtype=np.uint64)
        vect, seq = _insert_both_paths(4000, keys)
        _assert_same_state(vect, seq)
        assert vect.load_factor > 0.8
        assert vect.bulk_query(keys).all()

    def test_values_and_duplicates_build_identical_tables(self):
        rng = np.random.default_rng(3)
        pool = rng.integers(0, 2**63, size=700, dtype=np.uint64)
        keys = rng.choice(pool, size=1700, replace=True)
        values = rng.integers(0, 16, size=keys.size, dtype=np.uint64)
        vect, seq = _insert_both_paths(2400, keys, values, VALUES_CONFIG)
        _assert_same_state(vect, seq)
        assert vect.bulk_query(keys).all()

    def test_overflow_reaches_backing_identically(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 2**63, size=1900, dtype=np.uint64)
        vect, seq = _insert_both_paths(2000, keys)
        assert vect.backing.n_items > 0
        _assert_same_state(vect, seq)
        assert vect.bulk_query(keys).all()

    def test_event_counts_calibrated_exactly(self):
        """Both paths must record identical simulated hardware events."""
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 2**63, size=2048, dtype=np.uint64)
        values = np.zeros(keys.size, dtype=np.uint64)
        stats = {}
        for label in ("vect", "seq"):
            rec = StatsRecorder()
            filt = BulkTCF.for_capacity(2400, BULK_TCF_DEFAULT, rec)
            h = filt._derive_batch(keys)
            words = filt._pack_words(h.fingerprint, values)
            rec.reset()
            if label == "vect":
                filt._bulk_insert_vectorised(keys, values, h.primary, h.secondary, words)
            else:
                filt._bulk_insert_sequential(keys, values, h, words)
            stats[label] = rec.total
        for field in (
            "cache_line_reads",
            "cache_line_writes",
            "shared_memory_accesses",
            "instructions",
            "coalesced_bytes_read",
            "coalesced_bytes_written",
            "kernel_launches",
        ):
            assert getattr(stats["vect"], field) == getattr(stats["seq"], field), field

    def test_query_and_delete_event_counts_calibrated_exactly(self, per_item_bulk):
        """Batched probes must record the same events as per-item probes."""
        rng = np.random.default_rng(15)
        keys = rng.integers(0, 2**63, size=2048, dtype=np.uint64)
        probes = np.concatenate(
            [keys[:400], rng.integers(0, 2**63, size=300, dtype=np.uint64)]
        )
        stats = {}
        for label in ("vect", "seq"):
            rec = StatsRecorder()
            filt = BulkTCF.for_capacity(2400, BULK_TCF_DEFAULT, rec)
            filt.bulk_insert(keys)
            rec.reset()
            _run(filt, "query", probes, label == "seq", per_item_bulk)
            stats[(label, "query")] = rec.total.copy()
            rec.reset()
            _run(filt, "delete", keys[:512], label == "seq", per_item_bulk)
            stats[(label, "delete")] = rec.total.copy()
        for phase in ("query", "delete"):
            for field in (
                "cache_line_reads",
                "cache_line_writes",
                "shared_memory_accesses",
                "instructions",
                "atomic_ops",
                "kernel_launches",
            ):
                assert getattr(stats[("vect", phase)], field) == getattr(
                    stats[("seq", phase)], field
                ), (phase, field)

    def test_full_filter_raises_after_filling(self):
        filt = _build(400)
        keys = np.arange(1, 4000, dtype=np.uint64)
        with pytest.raises(FilterFullError):
            filt.bulk_insert(keys)
        # The table filled up before raising (benchmark fill loops rely on it).
        assert filt.n_items > 0.9 * filt.table.n_slots


class TestSpillAttribution:
    """Spills must be tracked positionally, never matched by word value."""

    def test_duplicate_words_spill_the_positional_tail(self):
        filt = _build(4000)
        block_size = filt.config.block_size
        # Pre-fill block 0 so only two slots are free (row invariant: the
        # empty slots sort to the front of the ascending row).
        rows = filt.table.rows()
        rows[0, 2:] = np.arange(10, 10 + block_size - 2, dtype=rows.dtype)
        # Batch: three copies of word 5 and one word 9, all aimed at block 0.
        words = np.array([5, 5, 9, 5], dtype=filt.config.slot_dtype)
        blocks = np.zeros(4, dtype=np.int64)
        positions = np.arange(4)
        spilled = filt._merge_pass(
            words, blocks, positions, "bulk_tcf_insert_pass1", scan_all_blocks=True
        )
        # The two smallest words (the first two 5s, stable order) fit; the
        # spilled items are exactly the *third* copy of 5 and the 9 — the old
        # `isin` logic instead reported the first two batch items.
        assert sorted(spilled.tolist()) == [2, 3]
        assert rows[0, :2].tolist() == [5, 5]

    def test_duplicate_keys_with_distinct_values_round_trip(self):
        """Regression for the duplicate-key spill mis-attribution."""
        rng = np.random.default_rng(6)
        pool = rng.integers(0, 2**63, size=500, dtype=np.uint64)
        keys = np.concatenate([pool, pool, pool[:400]])  # heavy duplication
        values = rng.integers(0, 16, size=keys.size, dtype=np.uint64)
        vect, seq = _insert_both_paths(1600, keys, values, VALUES_CONFIG)
        _assert_same_state(vect, seq)
        assert vect.n_items == keys.size
        assert vect.bulk_query(keys).all()
        # Each stored word must belong to some (key, value) pair actually
        # inserted: collect stored (fingerprint, value) words and compare
        # against the multiset derived from the batch.
        h = vect._derive_batch(keys)
        expected = vect._pack_words(h.fingerprint, values)
        data = vect.table.slots.peek()
        live = np.sort(data[data > 1])
        stored_keys = {k for k, _ in vect.backing.iter_items()}
        encoded = vect.backing._encode_batch(keys)
        assert stored_keys <= set(encoded.tolist())
        # Every main-table word appears no more often than the batch supplies.
        exp_words, exp_counts = np.unique(expected, return_counts=True)
        got_words, got_counts = np.unique(live, return_counts=True)
        exp_map = dict(zip(exp_words.tolist(), exp_counts.tolist()))
        for word, count in zip(got_words.tolist(), got_counts.tolist()):
            assert count <= exp_map.get(word, 0)


class TestQueryDifferential:
    @pytest.mark.parametrize("config", [BULK_TCF_DEFAULT, VALUES_CONFIG])
    def test_bulk_query_matches_point_query(self, config):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 2**63, size=2500, dtype=np.uint64)
        filt = _build(2800, config)
        filt.bulk_insert(keys, rng.integers(0, 16, size=keys.size, dtype=np.uint64))
        probes = np.concatenate(
            [keys[::2], rng.integers(0, 2**63, size=1500, dtype=np.uint64)]
        )
        bulk = filt.bulk_query(probes)
        point = np.array([filt.query(int(k)) for k in probes])
        assert np.array_equal(bulk, point)

    def test_queries_see_backing_overflow(self):
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 2**63, size=2040, dtype=np.uint64)
        filt = _build(2000)
        filt.bulk_insert(keys)
        assert filt.backing.n_items > 0
        assert filt.bulk_query(keys).all()

    def test_small_batches_give_same_result(self):
        rng = np.random.default_rng(10)
        keys = rng.integers(0, 2**63, size=600, dtype=np.uint64)
        filt = _build(900)
        filt.bulk_insert(keys)
        small = keys[:32]
        assert filt.bulk_query(small).all()
        assert filt.bulk_query(keys).all()


class TestDeleteDifferential:
    def test_bulk_delete_matches_point_deletes(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**63, size=2600, dtype=np.uint64)
        vect, seq = _insert_both_paths(3000, keys)
        doomed = np.concatenate(
            [keys[::3], rng.integers(0, 2**63, size=300, dtype=np.uint64)]
        )
        removed_vect = vect.bulk_delete(doomed)
        removed_seq = sum(seq.delete(int(k)) for k in doomed)
        assert removed_vect == removed_seq
        _assert_same_state(vect, seq)
        kept = np.setdiff1d(keys, doomed)
        assert vect.bulk_query(kept).all()

    def test_duplicate_delete_requests_consume_distinct_copies(self):
        rng = np.random.default_rng(12)
        pool = rng.integers(0, 2**63, size=400, dtype=np.uint64)
        keys = np.concatenate([pool, pool])  # two stored copies per key
        vect, seq = _insert_both_paths(1000, keys)
        doomed = np.concatenate([pool[:200], pool[:200], pool[:200]])
        removed_vect = vect.bulk_delete(doomed)
        removed_seq = sum(seq.delete(int(k)) for k in doomed)
        # Only two copies exist: the third request per key removes nothing.
        assert removed_vect == removed_seq == 400
        _assert_same_state(vect, seq)

    def test_delete_reaches_backing(self):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 2**63, size=1900, dtype=np.uint64)
        vect, seq = _insert_both_paths(2000, keys)
        assert vect.backing.n_items > 0
        removed_vect = vect.bulk_delete(keys)
        removed_seq = sum(seq.delete(int(k)) for k in keys)
        assert removed_vect == removed_seq == keys.size
        assert vect.backing.n_items == 0
        assert vect.n_items == 0
        _assert_same_state(vect, seq)

    def test_shared_block_fingerprint_deletes_match_per_item_path(self, per_item_bulk):
        """Repeated requests, plus keys B stored in their secondary block under
        the (block, fingerprint) pair of another key A's primary: the batch
        removes as many, leaves the same slots and records the same events
        as per-item deletes."""
        rng = np.random.default_rng(16)
        pool = rng.integers(0, 2**63, size=100_000, dtype=np.uint64)
        background, candidates = pool[:1900], pool[1900:]
        layout = _build(2000)
        layout.bulk_insert(background)
        h = layout._derive_batch(candidates)
        shift = np.uint64(layout.table.flat_key_shift)
        fp = h.fingerprint.astype(np.uint64)
        _, ia, ib = np.intersect1d(
            (h.primary.astype(np.uint64) << shift) | fp,
            (h.secondary.astype(np.uint64) << shift) | fp,
            return_indices=True,
        )
        # B's primary block is full and A's (= B's secondary) has room, so
        # B spills onto A's (block, fingerprint) pair.
        free = layout.config.block_size - layout.table.fills()
        usable = (ia != ib) & (free[h.primary[ib]] == 0) & (free[h.primary[ia]] >= 3)
        a_keys, b_keys = candidates[ia[usable][:20]], candidates[ib[usable][:20]]
        assert a_keys.size == 20
        # Three requests per A (two stored copies, so the third consumes B's
        # copy on the shared pair) ahead of the B requests: the order in which
        # the per-item path resolves them matches the batch's pass order (all
        # primaries, then secondaries, then backing; see bulk_delete).
        doomed = np.concatenate(
            [
                rng.permutation(np.concatenate([a_keys, a_keys, a_keys, background[::4]])),
                rng.permutation(b_keys),
            ]
        )
        results = {}
        for label in ("vect", "seq"):
            rec = StatsRecorder()
            filt = BulkTCF.for_capacity(2000, BULK_TCF_DEFAULT, rec)
            filt.bulk_insert(background)
            filt.bulk_insert(np.concatenate([a_keys, a_keys, b_keys]))
            hb = filt._derive_batch(b_keys)
            rows = filt.table.rows()
            spilled_b = sum(
                bool((rows[hb.secondary[i]] == hb.fingerprint[i]).any())
                and not (rows[hb.primary[i]] == hb.fingerprint[i]).any()
                for i in range(b_keys.size)
            )
            assert spilled_b >= 10  # B copies really sit on A's pairs
            rec.reset()
            removed = _run(filt, "delete", doomed, label == "seq", per_item_bulk)
            results[label] = (removed, filt, rec.total.copy())
        removed_vect, vect, events_vect = results["vect"]
        removed_seq, seq, events_seq = results["seq"]
        assert removed_vect == removed_seq
        _assert_same_state(vect, seq)
        assert events_vect == events_seq

    def test_values_enabled_delete_differential(self):
        rng = np.random.default_rng(14)
        keys = rng.integers(0, 2**63, size=1500, dtype=np.uint64)
        values = rng.integers(0, 16, size=keys.size, dtype=np.uint64)
        vect, seq = _insert_both_paths(1700, keys, values, VALUES_CONFIG)
        doomed = keys[::2]
        assert vect.bulk_delete(doomed) == sum(seq.delete(int(k)) for k in doomed)
        _assert_same_state(vect, seq)


class TestChunkParity:
    """A bulk call walks its batch in chunks of ``bulk_tcf._CHUNK`` keys;
    any chunk size must leave the same table, journal, events, kernel
    records and results as one chunk larger than the batch."""

    @staticmethod
    def _trace(monkeypatch, chunk, make, ops):
        monkeypatch.setattr(bulk_tcf, "_CHUNK", chunk)
        rec = StatsRecorder()
        filt = make(rec)
        results = [np.asarray(op(filt)).tobytes() for op in ops]
        state = {name: array.tobytes() for name, array in filt.snapshot_state().items()}
        sections = {name: stats.as_dict() for name, stats in rec.sections.items()}
        kernels = [(k.name, k.stats.as_dict()) for k in filt.kernels.kernels]
        return filt, (state, rec.total.as_dict(), sections, kernels, results)

    def _assert_chunk_parity(self, monkeypatch, make, ops):
        whole_filt, whole = self._trace(monkeypatch, 1 << 30, make, ops)
        for chunk in (1, 7, 64):
            _filt, chunked = self._trace(monkeypatch, chunk, make, ops)
            assert chunked == whole, chunk
        return whole_filt

    def test_spills_duplicates_query_and_delete(self, monkeypatch):
        rng = np.random.default_rng(21)
        pool = rng.integers(0, 2**63, size=1500, dtype=np.uint64)
        keys = rng.permutation(np.concatenate([pool, pool[:600]]))
        probes = np.concatenate([keys[::3], rng.integers(0, 2**63, size=400, dtype=np.uint64)])
        doomed = np.concatenate(
            [pool[:300], pool[:200], rng.integers(0, 2**63, size=50, dtype=np.uint64)]
        )
        filt = self._assert_chunk_parity(
            monkeypatch,
            lambda rec: BulkTCF(1 << 11, recorder=rec),
            [
                lambda f: f.bulk_insert_mask(keys),
                lambda f: f.bulk_query(probes),
                lambda f: f.bulk_delete(doomed),
                lambda f: f.bulk_query(probes),
            ],
        )
        # The batch overfills the table: spills reach pass 2, the backing
        # table, and past it.
        assert filt.kernels.kernels_named("bulk_tcf_insert_pass2")
        assert filt.backing.n_items > 0
        assert filt.n_items < keys.size

    def test_values_config(self, monkeypatch):
        rng = np.random.default_rng(22)
        pool = rng.integers(0, 2**63, size=900, dtype=np.uint64)
        keys = np.concatenate([pool, pool[:300]])
        values = rng.integers(0, 16, size=keys.size, dtype=np.uint64)
        filt = self._assert_chunk_parity(
            monkeypatch,
            lambda rec: BulkTCF(1 << 10, VALUES_CONFIG, recorder=rec),
            [
                lambda f: f.bulk_insert_mask(keys, values),
                lambda f: f.bulk_query(keys),
                lambda f: f.bulk_delete(pool[::2]),
            ],
        )
        assert filt.backing.n_items > 0

    def test_auto_resize_growth_replay(self, monkeypatch):
        rng = np.random.default_rng(23)
        first, second = (rng.integers(0, 2**63, size=n, dtype=np.uint64) for n in (900, 1500))
        filt = self._assert_chunk_parity(
            monkeypatch,
            lambda rec: BulkTCF(1 << 10, recorder=rec, auto_resize=True),
            [
                lambda f: f.bulk_insert_mask(first),
                lambda f: f.bulk_insert_mask(second),
                lambda f: f.bulk_delete(first[::4]),
                lambda f: f.bulk_query(second),
            ],
        )
        assert filt.n_resizes >= 2


class TestBackingBulkAPI:
    """The backing table's bulk entry points against its point loops."""

    def _pair(self, n_buckets=8, config=VALUES_CONFIG):
        return (
            BackingTable(n_buckets, config, StatsRecorder()),
            BackingTable(n_buckets, config, StatsRecorder()),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bulk_matches_point_below_overflow(self, seed):
        rng = np.random.default_rng(seed)
        bulk, point = self._pair()
        keys = rng.integers(0, 2**63, size=40, dtype=np.uint64)
        keys = np.concatenate([keys, keys[:10]])
        values = rng.integers(0, 16, size=keys.size, dtype=np.uint64)
        placed = bulk.bulk_insert(keys, values)
        placed_ref = np.array(
            [point.insert(int(k), int(v)) for k, v in zip(keys, values)]
        )
        assert np.array_equal(placed, placed_ref)
        probes = np.concatenate(
            [keys, rng.integers(0, 2**63, size=60, dtype=np.uint64)]
        )
        found, values_out = bulk.bulk_query_values(probes)
        assert np.array_equal(
            found, np.array([point.contains(int(k)) for k in probes])
        )
        point_values = np.array(
            [point.query(int(k)) or 0 for k in probes], dtype=np.uint64
        )
        assert np.array_equal(values_out[found], point_values[found])
        doomed = np.concatenate(
            [keys[::2], keys[:6], rng.integers(0, 2**63, size=10, dtype=np.uint64)]
        )
        removed = bulk.bulk_delete(doomed)
        removed_ref = np.array([point.delete(int(k)) for k in doomed])
        assert np.array_equal(removed, removed_ref)
        assert bulk.n_items == point.n_items
        assert sorted(bulk.iter_items()) == sorted(point.iter_items())

    def test_sentinel_aliased_keys_delete_independently(self):
        """Keys 0 and 2 both *store* word 2 (sentinel displacement); their
        delete requests must not be ranked as duplicates of one key."""
        bulk, point = self._pair()
        for key in (0, 2, 1, 3):
            bulk.insert(key)
            point.insert(key)
        removed = bulk.bulk_delete(np.array([0, 2, 1, 3], dtype=np.uint64))
        removed_ref = np.array([point.delete(k) for k in (0, 2, 1, 3)])
        assert np.array_equal(removed, removed_ref)
        assert removed.all()
        assert bulk.n_items == 0

    def test_aliased_keys_in_one_bucket_cannot_double_claim_a_slot(self):
        """With a single bucket, keys 0 and 2 probe the same window and both
        match stored word 2; only one request may consume the single copy."""
        config = TCFConfig(fingerprint_bits=16, block_size=16)
        bulk = BackingTable(1, config, StatsRecorder())
        point = BackingTable(1, config, StatsRecorder())
        bulk.insert(0)
        point.insert(0)
        removed = bulk.bulk_delete(np.array([0, 2], dtype=np.uint64))
        removed_ref = np.array([point.delete(k) for k in (0, 2)])
        assert np.array_equal(removed, removed_ref)
        assert removed.tolist() == [True, False]
        assert bulk.n_items == 0

    def test_probe_sequence_is_lazy_and_wraps_like_the_batch_path(self):
        table, _ = self._pair()
        key = 0xDEADBEEF
        seq = table._probe_sequence(key)
        assert not isinstance(seq, np.ndarray)  # generator, not an eager array
        lazy = [next(seq) for _ in range(5)]
        h1, h2 = table._hash_batch(np.array([key], dtype=np.uint64))
        batch = [int(table._probe_round(h1, h2, i)[0]) for i in range(5)]
        assert lazy == batch

    def test_overflow_reports_failures(self):
        bulk, _ = self._pair(n_buckets=2)
        rng = np.random.default_rng(42)
        keys = rng.integers(0, 2**63, size=60, dtype=np.uint64)
        placed = bulk.bulk_insert(keys)
        assert not placed.all()
        assert placed.sum() == bulk.n_items <= bulk.n_slots
        found, _ = bulk.bulk_query_values(keys)
        assert np.array_equal(found[placed], np.ones(int(placed.sum()), dtype=bool))

    @staticmethod
    def _assert_query_matches_point(bulk, point, probes):
        """Found mask, values and cache-line reads of one bulk query equal
        the point ``query`` loop's."""
        with bulk.recorder.section("q") as bulk_stats:
            found, values = bulk.bulk_query_values(probes)
        with point.recorder.section("q") as point_stats:
            answers = [point.query(int(key)) for key in probes]
        assert found.tolist() == [answer is not None for answer in answers]
        assert values.tolist() == [answer or 0 for answer in answers]
        assert bulk_stats.cache_line_reads == point_stats.cache_line_reads
        return found, values

    def test_bucket_flags_are_one_word(self):
        """The bulk probes test a bucket's bool flags as one uint64 word."""
        assert BackingTable.BUCKET_WIDTH * np.dtype(bool).itemsize == np.dtype(np.uint64).itemsize

    def test_tombstones_keep_probing_and_only_empty_stops(self):
        """Two full buckets; emptying one by deletes leaves tombstones only,
        so keys stored one round on must still be found, and absent keys
        probe all ``max_probes`` rounds."""
        bulk, point = self._pair(n_buckets=2)
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**63, size=16, dtype=np.uint64)
        values = rng.integers(1, 16, size=keys.size, dtype=np.uint64)
        assert bulk.bulk_insert(keys, values).all()
        for key, value in zip(keys, values):
            assert point.insert(int(key), int(value))
        stored_at = np.array(
            [np.flatnonzero(bulk.keys.peek() == key)[0] // bulk.BUCKET_WIDTH for key in keys]
        )
        h1, h2 = bulk._hash_batch(keys)
        first_bucket = bulk._probe_round(h1, h2, 0)
        moved_on = stored_at != first_bucket
        assert moved_on.any()  # the seed overfills one bucket's round 0
        drained = first_bucket[moved_on][0]
        kept = stored_at != drained
        assert bulk.bulk_delete(keys[~kept]).all()
        assert all(point.delete(int(key)) for key in keys[~kept])
        assert not np.any(bulk.keys.peek() == EMPTY_SLOT)
        absent = rng.integers(0, 2**63, size=5, dtype=np.uint64)
        probes = np.concatenate([keys, absent])
        found, out = self._assert_query_matches_point(bulk, point, probes)
        # The moved-on keys are found only past a bucket of tombstones.
        assert found.tolist() == kept.tolist() + [False] * absent.size
        assert np.array_equal(out[: keys.size][kept], values[kept])
        with bulk.recorder.section("absent") as stats:
            bulk.bulk_query_values(absent)
        assert stats.cache_line_reads == bulk.max_probes * absent.size

    @pytest.mark.parametrize("n_buckets", [1, 2])
    def test_full_table_probes_every_round_with_values(self, n_buckets):
        """A full 1-2-bucket table: every probe round runs, values included."""
        bulk, point = self._pair(n_buckets=n_buckets)
        rng = np.random.default_rng(n_buckets)
        keys = rng.integers(0, 2**63, size=bulk.n_slots, dtype=np.uint64)
        values = rng.integers(1, 16, size=keys.size, dtype=np.uint64)
        assert bulk.bulk_insert(keys, values).all()
        assert all(point.insert(int(k), int(v)) for k, v in zip(keys, values))
        absent = rng.integers(0, 2**63, size=6, dtype=np.uint64)
        found, out = self._assert_query_matches_point(bulk, point, np.concatenate([keys, absent]))
        assert found.tolist() == [True] * keys.size + [False] * absent.size
        assert np.array_equal(out[: keys.size], values)

    @pytest.mark.parametrize("n_buckets", [1, 8])
    def test_keys_zero_to_three_alias_like_the_point_path(self, n_buckets):
        """Keys 0/2 and 1/3 store one word each (sentinel displacement)."""
        bulk, point = self._pair(n_buckets=n_buckets)
        for key, value in ((0, 5), (3, 9)):
            bulk.insert(key, value)
            point.insert(key, value)
        probes = np.array([0, 1, 2, 3, 4], dtype=np.uint64)
        found, out = self._assert_query_matches_point(bulk, point, probes)
        assert found[[0, 3]].all() and out[[0, 3]].tolist() == [5, 9]
        assert not found[4]
        if n_buckets == 1:
            assert found.tolist() == [True, True, True, True, False]


@pytest.mark.parametrize("value", [0, (1 << 60) - 1])
def test_the_largest_fingerprint_of_a_64_bit_word_is_found(value):
    """A fingerprint's word range ends at the top of a 64-bit slot word when
    ``fingerprint_bits + value_bits == 64``: its exclusive end would wrap to
    0, and every stored key with the largest fingerprint would read absent."""
    config = TCFConfig(fingerprint_bits=4, value_bits=60, block_size=16, cg_size=16)
    bulk = BulkTCF(64, config, StatsRecorder())
    keys = np.arange(2, 4_000, dtype=np.uint64)
    keys = keys[bulk._derive_batch(keys).fingerprint == 15][:5]
    assert keys.size == 5
    bulk.bulk_insert(keys, np.full(keys.size, value, dtype=np.uint64))
    assert bulk.bulk_query(keys).all()
    assert all(bulk.query(int(key)) for key in keys)
    assert [bulk.get_value(int(key)) for key in keys] == [value] * keys.size
