"""Tests for the point GQF (locking, counting, values, resize)."""

import numpy as np
import pytest

from repro.core.gqf import PointGQF


@pytest.fixture
def gqf(recorder):
    return PointGQF(10, 8, region_slots=256, recorder=recorder)


class TestBasicOperations:
    def test_insert_query(self, gqf, keys_1k):
        subset = keys_1k[:500]
        for key in subset:
            assert gqf.insert(int(key))
        for key in subset:
            assert gqf.query(int(key))
        # Distinct-item count may fall just short of 500 because two keys can
        # share an 18-bit fingerprint at this small test geometry.
        assert 495 <= gqf.n_items <= 500
        assert gqf.total_count == 500

    def test_counting(self, gqf):
        for _ in range(7):
            gqf.insert(123456)
        assert gqf.count(123456) == 7
        assert gqf.count(654321) == 0

    def test_insert_count(self, gqf):
        gqf.insert_count(99, 200)
        assert gqf.count(99) == 200

    def test_counts_never_underreported(self, gqf, keys_1k, rng):
        """Counting-filter guarantee: reported count >= true count."""
        truth = {}
        for key in keys_1k[:300]:
            repeats = int(rng.integers(1, 5))
            for _ in range(repeats):
                gqf.insert(int(key))
            truth[int(key)] = repeats
        for key, true_count in truth.items():
            assert gqf.count(key) >= true_count

    def test_values_via_counters(self, gqf):
        gqf.insert(42, value=9)
        assert gqf.get_value(42) == 9
        assert gqf.get_value(43) is None

    def test_delete(self, gqf, keys_1k):
        for key in keys_1k[:100]:
            gqf.insert(int(key))
        for key in keys_1k[:50]:
            assert gqf.delete(int(key))
        for key in keys_1k[50:100]:
            assert gqf.query(int(key))
        gqf.core.check_invariants()

    def test_false_positive_rate(self, recorder, keys_4k, negative_keys_1k):
        gqf = PointGQF(12, 8, region_slots=1024, recorder=recorder)
        for key in keys_4k[:3500]:
            gqf.insert(int(key))
        fp = sum(gqf.query(int(k)) for k in negative_keys_1k) / negative_keys_1k.size
        assert fp <= 5 * gqf.false_positive_rate + 0.01

    def test_remainder_width_validation(self, recorder):
        with pytest.raises(ValueError):
            PointGQF(10, 5, recorder=recorder)
        PointGQF(10, 5, recorder=recorder, enforce_alignment=False)  # ok when unaligned allowed


class TestLocking:
    def test_insert_acquires_and_releases_two_locks(self, gqf, recorder):
        n = 50
        for key in range(n):
            gqf.insert(key * 0x9E3779B97F4A7C15 % 2**63)
        # Every insert takes its own region's lock plus the next region's
        # (one lock only when the canonical slot falls in the last region).
        assert n <= recorder.total.lock_acquisitions <= 2 * n
        assert recorder.total.lock_acquisitions > 1.5 * n
        assert gqf.locks.held_locks == frozenset()

    def test_queries_do_not_lock(self, gqf, recorder):
        gqf.insert(777)
        before = recorder.total.lock_acquisitions
        gqf.query(777)
        gqf.count(777)
        assert recorder.total.lock_acquisitions == before

    def test_concurrency_configures_contention(self, gqf):
        gqf.set_concurrency(10_000)
        assert gqf.locks.contention_probability > 0.5
        assert gqf.lock_serialization > 1.0
        gqf.set_concurrency(0)
        assert gqf.locks.contention_probability == 0.0
        assert gqf.lock_serialization == 0.0


class TestResize:
    def test_resize_preserves_membership_and_counts(self, recorder, keys_1k):
        """Growing in place doubles the slots and keeps every key and count."""
        gqf = PointGQF(9, 16, region_slots=256, recorder=recorder)
        for key in keys_1k[:300]:
            gqf.insert(int(key))
        gqf.insert(int(keys_1k[0]))
        slots = gqf.n_slots
        gqf.grow()
        assert gqf.n_slots == 2 * slots
        for key in keys_1k[:300]:
            assert gqf.query(int(key))
        assert gqf.count(int(keys_1k[0])) == 2

    def test_resize_validation(self, recorder):
        """A growth of no bits, or one that would leave no remainder bit,
        is refused before any state changes."""
        gqf = PointGQF(9, 8, recorder=recorder)
        gqf.insert(12345)
        state = gqf.snapshot_state()
        with pytest.raises(ValueError):
            gqf.grow(0)
        with pytest.raises(ValueError):
            gqf.grow(8)
        assert gqf.n_slots == 512 and gqf.n_resizes == 0
        for name, array in gqf.snapshot_state().items():
            assert np.array_equal(array, state[name]), name


class TestMetadata:
    def test_capabilities_full_feature_set(self):
        caps = PointGQF.capabilities()
        assert caps.point_count and caps.bulk_count
        assert caps.point_delete and caps.values and caps.resizable

    def test_space_accounting_matches_paper_bpi(self, recorder, keys_4k):
        """Table 2: GQF at 8-bit remainders is ~10.7 bits per item."""
        gqf = PointGQF(12, 8, region_slots=1024, recorder=recorder)
        n = int(0.85 * gqf.n_slots)
        for key in keys_4k[:n]:
            gqf.insert(int(key))
        # ~10.1 bits/slot at 85 % load plus the (test-scale) slack and lock
        # table overheads; at benchmark scale this converges to ~10.7.
        assert 10.0 < gqf.bits_per_item < 15.0

    def test_for_capacity(self, recorder):
        gqf = PointGQF.for_capacity(1000, recorder=recorder)
        assert gqf.capacity >= 1000

    def test_nominal_nbytes(self):
        assert PointGQF.nominal_nbytes(1 << 12, 8) == pytest.approx(
            (1 << 12) * 10.125 / 8, rel=0.01
        )

    def test_bulk_wrappers(self, gqf, keys_1k):
        gqf.bulk_insert(keys_1k[:200])
        assert gqf.bulk_query(keys_1k[:200]).all()
        assert (gqf.bulk_count(keys_1k[:200]) >= 1).all()
        assert gqf.bulk_delete(keys_1k[:100]) == 100
