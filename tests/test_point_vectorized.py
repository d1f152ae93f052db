"""Differential tests guarding the vectorised point-API paths.

PR 4 batches the *point* APIs: ``PointGQF.bulk_insert/bulk_delete`` replay
the region-lock acquisition stream and the canonical-layout merge, and
``PointTCF.bulk_insert/bulk_query/bulk_delete`` replay the two-choice
decision stream over plain integer state.  These tests pin the batched paths
to the per-item loops they replace: identical filter state, identical
simulated hardware events (locks, probes, shortcut reads, shifts), covering
duplicate keys, tiny/empty batches, near-full filters and
``set_concurrency`` contention levels — plus the batched k-mer applications
against per-item references.
"""

import numpy as np
import pytest

from repro.apps.kmer_counter import GPUKmerCounter
from repro.apps.metahipmer import KmerAnalysisPhase
from repro.core.exceptions import FilterFullError
from repro.core.gqf import PointGQF
from repro.core.tcf import POINT_TCF_DEFAULT, PointTCF, TCFConfig
from repro.gpusim.atomics import SpinLockTable
from repro.gpusim.stats import StatsRecorder
from repro.workloads import kmer as kmer_mod

#: Counter fields asserted for exact batched-vs-per-item parity.
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
    "lock_acquisitions",
    "lock_failures",
    "slots_shifted",
    "instructions",
    "kernel_launches",
)

#: A values-enabled point layout (16-bit fingerprints + 4-bit values).
VALUES_CONFIG = TCFConfig(fingerprint_bits=16, block_size=16, cg_size=4, value_bits=4)
#: A layout whose block size is not a multiple of the group (divergent tail
#: strides) and whose 12-bit packed slots under-fill the CAS word.
DIVERGENT_CONFIG = TCFConfig(fingerprint_bits=12, block_size=12, cg_size=8)


def _assert_events_equal(stats_a, stats_b, context=""):
    for field in EVENT_FIELDS:
        assert getattr(stats_a, field) == getattr(stats_b, field), (context, field)


# --------------------------------------------------------------------------
# region-lock batch replay
# --------------------------------------------------------------------------
class TestLockBatchReplay:
    """lock_unlock_batch must equal sequential lock()/unlock() exactly."""

    @pytest.mark.parametrize("probability", [0.0, 0.3, 0.8, 0.95])
    @pytest.mark.parametrize("n_calls", [0, 1, 7, 64, 700])
    def test_totals_and_generator_state_match(self, probability, n_calls):
        rec_seq, rec_batch = StatsRecorder(), StatsRecorder()
        seq = SpinLockTable(8, rec_seq, contention_probability=probability)
        batch = SpinLockTable(8, rec_batch, contention_probability=probability)
        for i in range(n_calls):
            seq.lock(i % 8)
            seq.unlock(i % 8)
        batch.lock_unlock_batch(n_calls)
        assert rec_seq.total.as_dict() == rec_batch.total.as_dict()
        # The replay must consume the exact same generator stream, so later
        # (per-item or batched) operations keep agreeing.
        assert (
            seq._rng.bit_generator.state == batch._rng.bit_generator.state
        )

    def test_high_contention_cap_path(self):
        """p near 1 exercises the 64-failure thrash cap segments."""
        rec_seq, rec_batch = StatsRecorder(), StatsRecorder()
        seq = SpinLockTable(2, rec_seq, contention_probability=0.999)
        batch = SpinLockTable(2, rec_batch, contention_probability=0.999)
        for _ in range(40):
            seq.lock(0)
            seq.unlock(0)
        batch.lock_unlock_batch(40)
        assert rec_seq.total.as_dict() == rec_batch.total.as_dict()
        assert rec_seq.total.lock_failures > 0


# --------------------------------------------------------------------------
# point GQF
# --------------------------------------------------------------------------
def _gqf_pair(q=12, r=8, region_slots=256, concurrency=0):
    pair = []
    for _ in range(2):
        filt = PointGQF(q, r, region_slots, StatsRecorder())
        filt.set_concurrency(concurrency)
        pair.append(filt)
    return pair


def _distinct_fingerprint_keys(filt, keys):
    """Drop keys whose fingerprints collide (the exact-parity precondition:
    duplicate fingerprints take the counter encoding, whose run lengths the
    growing-run accounting does not model)."""
    quotients, remainders = filt.scheme.key_to_slot(keys)
    fingerprints = filt.scheme.join(
        np.asarray(quotients, dtype=np.int64), np.asarray(remainders, dtype=np.uint64)
    )
    _unique, index = np.unique(fingerprints, return_index=True)
    return keys[np.sort(index)]


def _gqf_reference_insert(filt, keys):
    """Per-item inserts in the batched path's processing order, same launch."""
    quotients, remainders = filt.scheme.key_to_slot(keys)
    order = filt._processing_order(
        np.asarray(quotients, dtype=np.int64), np.asarray(remainders, dtype=np.uint64)
    )
    with filt.kernels.launch("gqf_point_bulk_insert"):
        for key in keys[order]:
            filt.insert(int(key))


class TestGQFInsertDifferential:
    @pytest.mark.parametrize("concurrency", [0, 50_000])
    def test_empty_fill_event_parity(self, concurrency):
        """State and *every* event counter match the per-item schedule."""
        rng = np.random.default_rng(1)
        batched, ref = _gqf_pair(concurrency=concurrency)
        keys = _distinct_fingerprint_keys(
            batched, rng.integers(0, 2**63, size=3000, dtype=np.uint64)
        )
        batched.bulk_insert(keys)
        _gqf_reference_insert(ref, keys)
        _assert_events_equal(batched.recorder.total, ref.recorder.total, "gqf insert")
        assert np.array_equal(batched.core.slots.peek(), ref.core.slots.peek())
        assert sorted(batched.core.iter_fingerprints()) == sorted(
            ref.core.iter_fingerprints()
        )

    def test_near_full_fill_event_parity(self):
        batched, ref = _gqf_pair(q=10, concurrency=20_000)
        rng = np.random.default_rng(2)
        keys = _distinct_fingerprint_keys(
            batched, rng.integers(0, 2**63, size=1600, dtype=np.uint64)
        )[:960]  # ~0.94 load on 2^10 slots
        batched.bulk_insert(keys)
        _gqf_reference_insert(ref, keys)
        _assert_events_equal(batched.recorder.total, ref.recorder.total, "near full")
        assert batched.load_factor > 0.85
        batched.core.check_invariants()

    def test_duplicate_keys_state_parity(self):
        """Duplicates take counter encodings; state must still match exactly."""
        rng = np.random.default_rng(3)
        batched, ref = _gqf_pair()
        pool = rng.integers(0, 2**63, size=600, dtype=np.uint64)
        keys = np.concatenate([pool, rng.choice(pool, size=900)])
        batched.bulk_insert(keys)
        _gqf_reference_insert(ref, keys)
        assert np.array_equal(batched.core.slots.peek(), ref.core.slots.peek())
        assert np.array_equal(batched.bulk_count(keys), ref.bulk_count(keys))
        batched.core.check_invariants()

    def test_values_are_counts_in_both_paths(self):
        batched, ref = _gqf_pair()
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 2**63, size=400, dtype=np.uint64)
        values = rng.integers(0, 7, size=keys.size, dtype=np.uint64)
        batched.bulk_insert(keys, values)
        for key, value in zip(keys, values):
            ref.insert(int(key), int(value))
        assert np.array_equal(batched.bulk_count(keys), ref.bulk_count(keys))

    def test_tiny_and_empty_batches_take_per_item_path(self):
        batched, ref = _gqf_pair(concurrency=10_000)
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 2**63, size=24, dtype=np.uint64)
        batched.bulk_insert(keys)  # <= SEQUENTIAL_BATCH_MAX: per-item loop
        with ref.kernels.launch("gqf_point_bulk_insert"):
            for key in keys:
                ref.insert(int(key))
        _assert_events_equal(
            batched.recorder.total, ref.recorder.total, "tiny batch"
        )
        assert np.array_equal(batched.core.slots.peek(), ref.core.slots.peek())
        empty, _ = _gqf_pair()
        assert empty.bulk_insert(np.zeros(0, dtype=np.uint64)) == 0
        assert empty.bulk_delete(np.zeros(0, dtype=np.uint64)) == 0

    def test_overflowing_batch_fills_before_raising(self):
        filt = PointGQF(5, 8, 32, StatsRecorder())
        with pytest.raises(FilterFullError):
            filt.bulk_insert(np.arange(1, 2000, dtype=np.uint64))
        assert filt.core.n_occupied_slots > 0.9 * filt.core.total_slots
        filt.core.check_invariants()


class TestGQFDeleteDifferential:
    def test_state_counts_and_locks_match(self):
        rng = np.random.default_rng(6)
        batched, ref = _gqf_pair(concurrency=30_000)
        pool = rng.integers(0, 2**63, size=900, dtype=np.uint64)
        keys = np.concatenate([pool, pool[:300]])
        batched.bulk_insert(keys)
        _gqf_reference_insert(ref, keys)
        batched.recorder.reset()
        ref.recorder.reset()
        doomed = np.concatenate(
            [pool[::2], pool[:200], rng.integers(0, 2**63, size=400, dtype=np.uint64)]
        )
        removed_batched = batched.bulk_delete(doomed)
        with ref.kernels.launch("gqf_point_bulk_delete"):
            removed_ref = sum(ref.delete(int(k)) for k in doomed)
        assert removed_batched == removed_ref
        # Cluster traffic carries the calibrated approximation established in
        # PR 1; the lock counters must stay exact at every contention level.
        assert batched.recorder.total.lock_acquisitions == ref.recorder.total.lock_acquisitions
        assert batched.recorder.total.lock_failures == ref.recorder.total.lock_failures
        # Per-item deletes re-canonicalise only the touched cluster (runs can
        # stay stranded right of canonical), so the comparison is on the
        # stored multiset — the same contract the bulk-GQF suite pins.
        assert sorted(batched.core.iter_fingerprints()) == sorted(
            ref.core.iter_fingerprints()
        )
        probes = np.concatenate([pool, doomed])
        assert np.array_equal(batched.bulk_count(probes), ref.bulk_count(probes))
        batched.core.check_invariants()


# --------------------------------------------------------------------------
# point TCF
# --------------------------------------------------------------------------
def _tcf_pair(capacity, config=POINT_TCF_DEFAULT):
    return (
        PointTCF.for_capacity(capacity, config, StatsRecorder()),
        PointTCF.for_capacity(capacity, config, StatsRecorder()),
    )


def _tcf_reference_insert(filt, keys, values=None):
    if values is None:
        values = np.zeros(keys.size, dtype=np.uint64)
    with filt.kernels.launch("tcf_point_bulk_insert"):
        for key, value in zip(keys, values):
            filt.insert(int(key), int(value))


def _assert_tcf_state_equal(batched, ref):
    assert np.array_equal(batched.table.slots.peek(), ref.table.slots.peek())
    assert sorted(batched.backing.iter_items()) == sorted(ref.backing.iter_items())
    assert batched.n_items == ref.n_items


class TestTCFInsertDifferential:
    @pytest.mark.parametrize(
        "config", [POINT_TCF_DEFAULT, VALUES_CONFIG, DIVERGENT_CONFIG]
    )
    def test_event_and_state_parity(self, config):
        rng = np.random.default_rng(10)
        batched, ref = _tcf_pair(3000, config)
        pool = rng.integers(0, 2**63, size=900, dtype=np.uint64)
        keys = np.concatenate(
            [rng.integers(0, 2**63, size=2000, dtype=np.uint64), rng.choice(pool, 800)]
        )
        values = rng.integers(0, 16, size=keys.size, dtype=np.uint64)
        if not config.value_bits:
            values[:] = 0
        batched.bulk_insert(keys, values)
        _tcf_reference_insert(ref, keys, values)
        _assert_events_equal(
            batched.recorder.total, ref.recorder.total, f"tcf insert {config.label}"
        )
        _assert_tcf_state_equal(batched, ref)
        assert batched.bulk_query(keys).all()

    def test_near_full_spills_reach_backing_identically(self):
        rng = np.random.default_rng(11)
        batched, ref = _tcf_pair(4200)
        keys = rng.integers(0, 2**63, size=4150, dtype=np.uint64)
        batched.bulk_insert(keys)
        _tcf_reference_insert(ref, keys)
        assert batched.backing.n_items > 0
        _assert_events_equal(batched.recorder.total, ref.recorder.total, "spills")
        _assert_tcf_state_equal(batched, ref)

    def test_tiny_batches_match_per_item_path(self):
        rng = np.random.default_rng(12)
        batched, ref = _tcf_pair(600)
        keys = rng.integers(0, 2**63, size=32, dtype=np.uint64)
        batched.bulk_insert(keys)
        _tcf_reference_insert(ref, keys)
        _assert_events_equal(batched.recorder.total, ref.recorder.total, "tiny")
        _assert_tcf_state_equal(batched, ref)
        assert batched.bulk_insert(np.zeros(0, dtype=np.uint64)) == 0

    def test_overflow_raises_after_filling(self):
        filt = PointTCF(400, recorder=StatsRecorder())
        with pytest.raises(FilterFullError):
            filt.bulk_insert(np.arange(1, 4000, dtype=np.uint64))
        assert filt.n_items > 0.9 * filt.table.n_slots

    def test_bulk_insert_mask_degrades_gracefully(self):
        filt = PointTCF(400, recorder=StatsRecorder())
        placed = filt.bulk_insert_mask(np.arange(1, 4000, dtype=np.uint64))
        assert not placed.all() and placed.any()
        assert int(placed.sum()) == filt.n_items
        # Placed keys must be queryable; the filter stays consistent.
        keys = np.arange(1, 4000, dtype=np.uint64)[placed]
        assert filt.bulk_query(keys).all()


class TestTCFQueryDifferential:
    @pytest.mark.parametrize("config", [POINT_TCF_DEFAULT, VALUES_CONFIG])
    def test_event_and_result_parity(self, config):
        rng = np.random.default_rng(13)
        batched, ref = _tcf_pair(4200, config)
        keys = rng.integers(0, 2**63, size=4100, dtype=np.uint64)
        batched.bulk_insert(keys)
        _tcf_reference_insert(ref, keys)
        assert batched.backing.n_items > 0  # backing lookups exercised
        batched.recorder.reset()
        ref.recorder.reset()
        probes = np.concatenate(
            [keys[::2], rng.integers(0, 2**63, size=2000, dtype=np.uint64)]
        )
        got = batched.bulk_query(probes)
        with ref.kernels.launch("tcf_point_bulk_query"):
            expected = np.array([ref.query(int(k)) for k in probes])
        assert np.array_equal(got, expected)
        _assert_events_equal(batched.recorder.total, ref.recorder.total, "tcf query")


    def test_event_parity_after_growth(self):
        """The per-block line counts follow the table through a resize."""
        rng = np.random.default_rng(16)
        filt = PointTCF(600, recorder=StatsRecorder(), auto_resize=True)
        keys = rng.integers(0, 2**63, size=400, dtype=np.uint64)
        filt.bulk_insert(keys)
        probes = np.concatenate([keys[::2], rng.integers(0, 2**63, size=200, dtype=np.uint64)])
        filt.bulk_query(probes)  # memoises the pre-growth line counts
        n_blocks = filt.table.n_blocks
        filt.grow()
        assert filt.table.n_blocks > n_blocks
        filt.recorder.reset()
        got = filt.bulk_query(probes)
        batched = filt.recorder.total
        filt.recorder.reset()
        with filt.kernels.launch("tcf_point_bulk_query"):
            expected = np.array([filt.query(int(k)) for k in probes])
        assert np.array_equal(got, expected) and got[: keys.size // 2].all()
        _assert_events_equal(batched, filt.recorder.total, "tcf query after growth")


class TestTCFDeleteDifferential:
    @pytest.mark.parametrize(
        "config", [POINT_TCF_DEFAULT, VALUES_CONFIG, DIVERGENT_CONFIG]
    )
    def test_event_and_state_parity_with_duplicates(self, config):
        rng = np.random.default_rng(14)
        batched, ref = _tcf_pair(3200, config)
        pool = rng.integers(0, 2**63, size=800, dtype=np.uint64)
        keys = np.concatenate([pool, pool, rng.integers(0, 2**63, size=1400, dtype=np.uint64)])
        batched.bulk_insert(keys)
        _tcf_reference_insert(ref, keys)
        batched.recorder.reset()
        ref.recorder.reset()
        # Three requests per duplicated key (two stored copies), plus
        # absent keys that fall through to the backing probe.
        doomed = np.concatenate(
            [pool, pool[:400], pool[:400], rng.integers(0, 2**63, size=500, dtype=np.uint64)]
        )
        removed_batched = batched.bulk_delete(doomed)
        with ref.kernels.launch("tcf_point_bulk_delete"):
            removed_ref = sum(ref.delete(int(k)) for k in doomed)
        assert removed_batched == removed_ref
        _assert_events_equal(
            batched.recorder.total, ref.recorder.total, f"tcf delete {config.label}"
        )
        _assert_tcf_state_equal(batched, ref)

    def test_delete_reaches_backing(self):
        rng = np.random.default_rng(15)
        batched, ref = _tcf_pair(4200)
        keys = rng.integers(0, 2**63, size=4100, dtype=np.uint64)
        batched.bulk_insert(keys)
        _tcf_reference_insert(ref, keys)
        assert batched.backing.n_items > 0
        removed_batched = batched.bulk_delete(keys)
        removed_ref = sum(ref.delete(int(k)) for k in keys)
        assert removed_batched == removed_ref == keys.size
        assert batched.backing.n_items == 0 and batched.n_items == 0
        _assert_tcf_state_equal(batched, ref)


# --------------------------------------------------------------------------
# applications
# --------------------------------------------------------------------------
def _synthetic_kmers(n_bases=6000, seed=21):
    genome = kmer_mod.random_genome(n_bases, seed=seed)
    reads = kmer_mod.generate_reads(genome, read_length=80, coverage=6.0,
                                    error_rate=0.02, seed=seed + 1)
    return kmer_mod.extract_kmers(reads, 21)


def _clash_free_kmers(n=30_000):
    """A seeded read set on which the batched two-pass promotion and the
    per-item loop agree *exactly*.

    The batched path resolves TCF membership against the batch-start state
    (query-then-insert over whole batches); a TCF false positive created by
    an *earlier same-batch* insert can flip one per-item decision, so exact
    equality is only defined on data without such intra-batch flips.  This
    dataset (verified once; everything is seeded, so it stays clash-free)
    pins the ranking/promotion machinery bit-for-bit; the dict-reference
    tests below cover arbitrary data with FP-robust invariants.
    """
    genome = kmer_mod.random_genome(20_000, seed=1)
    reads = kmer_mod.generate_reads(genome, read_length=100, coverage=10.0,
                                    error_rate=0.01, seed=2)
    return kmer_mod.extract_kmers(reads, 21)[:n]


class TestAppsBatched:
    def test_kmer_counter_matches_per_item_promotion(self):
        """Batched promotion == the sequential query-then-insert loop."""
        kmers = _clash_free_kmers()
        batched = GPUKmerCounter(expected_kmers=int(kmers.size), exclude_singletons=True)
        half = kmers.size // 2
        batched.count_kmers(kmers[:half])
        batched.count_kmers(kmers[half:])

        ref = GPUKmerCounter(expected_kmers=int(kmers.size), exclude_singletons=True)
        for chunk in (kmers[:half], kmers[half:]):
            promoted = []
            for kmer in chunk:
                kmer = int(kmer)
                if ref.gqf.count(kmer) > 0:
                    promoted.append(kmer)
                elif ref.tcf.query(kmer):
                    promoted.extend([kmer, kmer])
                else:
                    ref.tcf.insert(kmer)
            if promoted:
                ref.gqf.bulk_insert(np.array(promoted, dtype=np.uint64))
        assert batched.gqf.total_count == ref.gqf.total_count
        assert batched.tcf.n_items == ref.tcf.n_items
        distinct = np.unique(kmers)
        assert all(
            batched.count(int(k)) == ref.count(int(k)) for k in distinct[:5000]
        )

    def test_kmer_counter_against_dict_reference(self):
        """Counts are never under-reported vs a plain Python dict."""
        kmers = _synthetic_kmers(seed=23)
        counter = GPUKmerCounter(expected_kmers=int(kmers.size))
        report = counter.count_kmers(kmers)
        truth: dict = {}
        for kmer in kmers.tolist():
            truth[kmer] = truth.get(kmer, 0) + 1
        assert report.n_distinct == len(truth)
        assert counter.gqf.total_count == int(kmers.size)
        assert all(counter.count(k) >= c for k, c in truth.items())

    def test_singleton_exclusion_against_dict_reference(self):
        """With the TCF pre-filter, one batch promotes 2(m-1) per k-mer."""
        kmers = _synthetic_kmers(seed=29)
        counter = GPUKmerCounter(expected_kmers=int(kmers.size), exclude_singletons=True)
        counter.count_kmers(kmers)
        truth: dict = {}
        for kmer in kmers.tolist():
            truth[kmer] = truth.get(kmer, 0) + 1
        expected_total = sum(2 * (c - 1) for c in truth.values() if c >= 2)
        assert counter.gqf.total_count == expected_total
        singles = [k for k, c in truth.items() if c == 1]
        # The TCF held every singleton out of the GQF (false positives in the
        # counting filter aside, the totals above already pin the multiset).
        assert counter.tcf.n_items == len(truth)

    def test_metahipmer_matches_per_item_phase(self):
        """Batched phase == per-item phase, modulo intra-batch FP flips.

        The batched path resolves TCF membership against the batch-start
        state; the per-item loop can see a false positive created by an
        *earlier same-batch* insert and promote a singleton with count 2.
        Any disagreement must be exactly that (rare) class — a singleton
        reported as 2 by one side and absent from the other — and everything
        else must match bit for bit.
        """
        kmers = _clash_free_kmers(20_000)
        batched = KmerAnalysisPhase(expected_kmers=int(kmers.size))
        half = kmers.size // 2
        batched.process_kmers(kmers[:half])
        batched.process_kmers(kmers[half:])
        ref = KmerAnalysisPhase(expected_kmers=int(kmers.size))
        for kmer in kmers:
            ref.process_kmer(int(kmer))
        occurrences: dict = {}
        for kmer in kmers.tolist():
            occurrences[kmer] = occurrences.get(kmer, 0) + 1
        counts_batched = batched.non_singleton_counts()
        counts_ref = ref.non_singleton_counts()
        flips = 0
        for kmer in set(counts_batched) | set(counts_ref):
            if counts_batched.get(kmer) != counts_ref.get(kmer):
                assert occurrences[kmer] == 1
                assert {counts_batched.get(kmer), counts_ref.get(kmer)} == {None, 2}
                flips += 1
        assert flips <= 5  # false-positive flips are ~0.05 % rare
        assert abs(batched.tcf.n_items - ref.tcf.n_items) <= flips

    def test_metahipmer_degrades_when_tcf_full(self):
        """An undersized TCF must not drop occurrences (graceful promote).

        Which k-mers win the scarce TCF slots depends on insertion order, so
        this pins order-independent conservation invariants rather than
        bit-equality with the per-item loop.
        """
        kmers = _synthetic_kmers(seed=37)
        tiny = KmerAnalysisPhase(expected_kmers=64)
        tiny.process_kmers(kmers)
        truth: dict = {}
        for kmer in kmers.tolist():
            truth[kmer] = truth.get(kmer, 0) + 1
        counted = tiny.non_singleton_counts()
        for kmer, count in counted.items():
            # At most one spurious extra from a false-positive promote-with-2.
            assert count <= truth[kmer] + 1
        # Every multi-occurrence k-mer is fully counted: placed k-mers
        # promote to their full count, unplaceable ones count directly.
        for kmer, occurrences in truth.items():
            if occurrences >= 2:
                assert counted[kmer] >= occurrences


# --------------------------------------------------------------------------
# k-mer workload vectorisation
# --------------------------------------------------------------------------
class TestKmerVectorised:
    def test_pack_kmers_matches_polynomial_reference(self):
        rng = np.random.default_rng(43)
        read = rng.integers(0, 4, size=60, dtype=np.uint8)
        for k in (1, 4, 21, 32):
            weights = np.uint64(4) ** np.arange(k - 1, -1, -1, dtype=np.uint64)
            windows = np.lib.stride_tricks.sliding_window_view(
                read.astype(np.uint64), k
            )
            expected = (windows * weights).sum(axis=1).astype(np.uint64)
            assert np.array_equal(kmer_mod.pack_kmers(read, k), expected)

    def test_extract_kmers_matches_per_read_reference(self):
        rng = np.random.default_rng(47)
        reads = [
            rng.integers(0, 4, size=int(n), dtype=np.uint8)
            for n in rng.integers(5, 120, size=40)  # some shorter than k
        ]
        read_set = kmer_mod.ReadSet(reads=reads, genome=reads[0], error_rate=0.0)
        for canonical in (False, True):
            parts = []
            for read in reads:
                kmers = kmer_mod.pack_kmers(read, 21)
                if canonical and kmers.size:
                    kmers = kmer_mod.canonical_kmers(kmers, 21)
                parts.append(kmers)
            expected = np.concatenate(parts)
            got = kmer_mod.extract_kmers(read_set, 21, canonical=canonical)
            assert np.array_equal(got, expected)

    def test_extract_kmers_empty_cases(self):
        empty = kmer_mod.ReadSet(reads=[], genome=np.zeros(0, dtype=np.uint8),
                                 error_rate=0.0)
        assert kmer_mod.extract_kmers(empty, 21).size == 0
        short = kmer_mod.ReadSet(
            reads=[np.zeros(3, dtype=np.uint8)], genome=np.zeros(3, dtype=np.uint8),
            error_rate=0.0,
        )
        assert kmer_mod.extract_kmers(short, 21).size == 0
