"""Property-based tests (hypothesis) on the core data structures.

These check the invariants the paper's correctness arguments rest on:

* hash mixers are bijections;
* the counter encoding round-trips for any multiset;
* rank/select are mutual inverses on any bit pattern;
* filters never produce false negatives and never under-count;
* the quotient-filter metadata invariants survive arbitrary operation mixes;
* POTC-derived fingerprints never collide with the reserved sentinels.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.gqf import counters
from repro.core.gqf.layout import QuotientFilterCore
from repro.core.gqf.rank_select import Bitvector
from repro.core.tcf import PointTCF
from repro.gpusim.stats import StatsRecorder
from repro.hashing import potc
from repro.hashing.mixers import murmur64_mix, murmur64_unmix
from repro.workloads import kmer as kmer_mod

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

u64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestHashingProperties:
    @SETTINGS
    @given(u64)
    def test_murmur_mix_is_a_bijection(self, value):
        assert murmur64_unmix(murmur64_mix(value)) == value

    @SETTINGS
    @given(st.lists(u64, min_size=1, max_size=200, unique=True), st.integers(2, 512))
    def test_potc_fingerprints_avoid_sentinels(self, keys, n_blocks):
        h = potc.derive(np.array(keys, dtype=np.uint64), n_blocks, 16)
        fingerprints = np.atleast_1d(h.fingerprint)
        assert not np.any(fingerprints == 0)
        assert not np.any(fingerprints == 1)
        primary = np.atleast_1d(h.primary)
        secondary = np.atleast_1d(h.secondary)
        assert np.all(primary != secondary)


class TestCounterEncodingProperties:
    @SETTINGS
    @given(
        st.dictionaries(
            keys=st.integers(min_value=0, max_value=255),
            values=st.integers(min_value=1, max_value=10_000),
            min_size=1,
            max_size=20,
        )
    )
    def test_encode_decode_round_trip(self, multiset):
        items = sorted(multiset.items())
        encoded = counters.encode_run(items)
        assert counters.decode_run(encoded) == items

    @SETTINGS
    @given(st.integers(2, 255), st.integers(1, 10**6))
    def test_encoding_is_compact(self, remainder, count):
        """Slots used grow logarithmically in the count, never linearly."""
        slots = counters.slots_for_count(remainder, count)
        if count <= 2:
            assert slots == count
        else:
            import math

            digits = max(1, math.ceil(math.log(max(count - 2, 2), max(remainder, 2))))
            assert slots <= digits + 3


class TestBitvectorProperties:
    @SETTINGS
    @given(st.lists(st.integers(0, 499), min_size=0, max_size=100, unique=True))
    def test_rank_select_inverse(self, positions):
        bv = Bitvector(500)
        for p in positions:
            bv.set(p)
        for k, p in enumerate(sorted(positions), start=1):
            assert bv.select(k) == p
            assert bv.rank(p) == k
        probes = np.array(positions + [0, 63, 64, 499], dtype=np.int64)
        assert bv.rank_batch(probes).tolist() == [bv.rank(int(p)) for p in probes]

    @SETTINGS
    @given(st.lists(st.integers(0, 255), min_size=0, max_size=80, unique=True))
    def test_packed_round_trip(self, positions):
        bv = Bitvector(256)
        for p in positions:
            bv.set(p)
        recovered = Bitvector.from_words(bv.to_words(), 256)
        assert np.array_equal(bv.bits, recovered.bits)


class TestFilterProperties:
    @SETTINGS
    @given(st.lists(u64, min_size=1, max_size=300, unique=True))
    def test_tcf_has_no_false_negatives(self, keys):
        tcf = PointTCF.for_capacity(max(64, 2 * len(keys)), recorder=StatsRecorder())
        for key in keys:
            tcf.insert(key)
        assert all(tcf.query(key) for key in keys)

    @SETTINGS
    @given(
        st.lists(u64, min_size=1, max_size=150, unique=True),
        st.data(),
    )
    def test_tcf_delete_only_removes_deleted_items(self, keys, data):
        tcf = PointTCF.for_capacity(max(64, 2 * len(keys)), recorder=StatsRecorder())
        for key in keys:
            tcf.insert(key)
        n_delete = data.draw(st.integers(0, len(keys)))
        for key in keys[:n_delete]:
            assert tcf.delete(key)
        for key in keys[n_delete:]:
            assert tcf.query(key)

    @SETTINGS
    @given(
        st.dictionaries(
            keys=u64,
            values=st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=100,
        )
    )
    def test_gqf_counts_are_never_underreported(self, multiset):
        from repro.core.gqf import PointGQF

        gqf = PointGQF(10, 8, region_slots=256, recorder=StatsRecorder())
        for key, count in multiset.items():
            gqf.insert(key, count)
        for key, count in multiset.items():
            assert gqf.count(key) >= count

    @SETTINGS
    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(1, 5)),
            min_size=1,
            max_size=150,
        )
    )
    def test_quotient_filter_invariants_hold_under_any_insert_mix(self, ops):
        core = QuotientFilterCore(9, 8, StatsRecorder(), counting=True)
        oracle = {}
        for quotient, remainder, count in ops:
            core.insert_fingerprint(quotient, remainder, count)
            oracle[(quotient, remainder)] = oracle.get((quotient, remainder), 0) + count
        core.check_invariants()
        for (quotient, remainder), count in oracle.items():
            assert core.query_fingerprint(quotient, remainder) == count


class TestKmerProperties:
    @SETTINGS
    @given(st.lists(st.integers(0, 3), min_size=21, max_size=80), st.integers(5, 21))
    def test_reverse_complement_involution(self, bases, k):
        read = np.array(bases, dtype=np.uint8)
        kmers = kmer_mod.pack_kmers(read, k)
        if kmers.size == 0:
            return
        rc = kmer_mod.reverse_complement_packed(kmers, k)
        assert np.array_equal(kmer_mod.reverse_complement_packed(rc, k), kmers)
        canon = kmer_mod.canonical_kmers(kmers, k)
        assert np.array_equal(canon, kmer_mod.canonical_kmers(rc, k))
