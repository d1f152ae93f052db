"""Tests for the counting-quotient-filter core (Robin Hood + counters)."""

import numpy as np
import pytest

from repro.core.exceptions import FilterFullError
from repro.core.gqf.layout import QuotientFilterCore
from repro.gpusim.stats import StatsRecorder


@pytest.fixture
def core(recorder):
    return QuotientFilterCore(8, 8, recorder, counting=True, slack_slots=64)


class TestBasicInsertQuery:
    def test_empty(self, core):
        assert core.query_fingerprint(3, 7) == 0
        assert core.n_distinct_items == 0
        assert core.load_factor == 0.0

    def test_single_insert(self, core):
        core.insert_fingerprint(10, 42)
        assert core.query_fingerprint(10, 42) == 1
        assert core.query_fingerprint(10, 43) == 0
        assert core.query_fingerprint(11, 42) == 0
        core.check_invariants()

    def test_counts_accumulate(self, core):
        for _ in range(5):
            core.insert_fingerprint(10, 42)
        assert core.query_fingerprint(10, 42) == 5
        assert core.n_distinct_items == 1
        assert core.total_count == 5
        core.check_invariants()

    def test_counted_insert(self, core):
        core.insert_fingerprint(3, 9, count=100)
        assert core.query_fingerprint(3, 9) == 100
        core.check_invariants()

    def test_same_quotient_different_remainders(self, core):
        for rem in (5, 9, 200):
            core.insert_fingerprint(20, rem)
        for rem in (5, 9, 200):
            assert core.query_fingerprint(20, rem) == 1
        core.check_invariants()

    def test_colliding_quotients_shift(self, core):
        """Consecutive quotients force Robin-Hood shifting."""
        for q in (30, 30, 31, 31, 32):
            core.insert_fingerprint(q, q % 7 + 2)
        core.check_invariants()
        assert core.query_fingerprint(30, 2 + 30 % 7) >= 1
        assert core.query_fingerprint(32, 2 + 32 % 7) == 1

    def test_shifting_is_counted(self, core, recorder):
        # Build a cluster covering quotients 100..110, then grow the first
        # run: every later run in the cluster must shift right by one slot.
        for q in range(100, 111):
            core.insert_fingerprint(q, 5)
        before = recorder.total.slots_shifted
        core.insert_fingerprint(100, 9)
        assert recorder.total.slots_shifted >= before + 10
        core.check_invariants()

    def test_validation(self, core):
        with pytest.raises(ValueError):
            core.insert_fingerprint(-1, 3)
        with pytest.raises(ValueError):
            core.insert_fingerprint(3, 1 << 9)
        with pytest.raises(ValueError):
            core.insert_fingerprint(3, 3, count=0)
        with pytest.raises(ValueError):
            QuotientFilterCore(2, 8, StatsRecorder())


class TestRandomizedConsistency:
    def test_against_python_counter(self, recorder, rng):
        """Differential test: the core must agree with a dict oracle."""
        core = QuotientFilterCore(11, 8, recorder, counting=True)
        oracle = {}
        for _ in range(600):
            q = int(rng.integers(0, 1024))
            r = int(rng.integers(0, 256))
            count = int(rng.integers(1, 4))
            core.insert_fingerprint(q, r, count)
            oracle[(q, r)] = oracle.get((q, r), 0) + count
        for (q, r), count in oracle.items():
            assert core.query_fingerprint(q, r) == count
        core.check_invariants()
        assert core.n_distinct_items == len(oracle)
        assert core.total_count == sum(oracle.values())

    def test_enumeration_matches_contents(self, recorder, rng):
        core = QuotientFilterCore(9, 8, recorder, counting=True)
        oracle = {}
        for _ in range(300):
            q = int(rng.integers(0, 512))
            r = int(rng.integers(0, 256))
            core.insert_fingerprint(q, r)
            oracle[(q, r)] = oracle.get((q, r), 0) + 1
        enumerated = {(q, r): c for q, r, c in core.iter_fingerprints()}
        assert enumerated == oracle


class TestDeletes:
    def test_delete_single(self, core):
        core.insert_fingerprint(7, 77)
        assert core.delete_fingerprint(7, 77)
        assert core.query_fingerprint(7, 77) == 0
        assert core.n_distinct_items == 0
        core.check_invariants()

    def test_delete_decrements_count(self, core):
        core.insert_fingerprint(7, 77, count=3)
        assert core.delete_fingerprint(7, 77)
        assert core.query_fingerprint(7, 77) == 2
        core.check_invariants()

    def test_delete_absent_is_false(self, core):
        core.insert_fingerprint(7, 77)
        assert not core.delete_fingerprint(7, 78)
        assert not core.delete_fingerprint(8, 77)
        assert core.query_fingerprint(7, 77) == 1

    def test_delete_from_cluster_lets_runs_slide_back(self, core, recorder):
        # Build a cluster spanning several quotients, then delete from the
        # first run and check that the remaining items are still found.
        inserted = []
        for q in range(50, 56):
            for rem in (3, 5):
                core.insert_fingerprint(q, rem)
                inserted.append((q, rem))
        core.check_invariants()
        assert core.delete_fingerprint(50, 3)
        core.check_invariants()
        for q, rem in inserted:
            expected = 0 if (q, rem) == (50, 3) else 1
            assert core.query_fingerprint(q, rem) == expected

    def test_randomized_insert_delete_cycle(self, recorder, rng):
        core = QuotientFilterCore(9, 8, recorder, counting=True)
        oracle = {}
        for step in range(800):
            q = int(rng.integers(0, 512))
            r = int(rng.integers(0, 64))
            if rng.random() < 0.6 or not oracle:
                core.insert_fingerprint(q, r)
                oracle[(q, r)] = oracle.get((q, r), 0) + 1
            else:
                key = list(oracle)[int(rng.integers(0, len(oracle)))]
                assert core.delete_fingerprint(*key)
                oracle[key] -= 1
                if oracle[key] == 0:
                    del oracle[key]
        core.check_invariants()
        for (q, r), count in oracle.items():
            assert core.query_fingerprint(q, r) == count


class TestCapacityAndSpace:
    def test_filter_full_raises(self, recorder):
        core = QuotientFilterCore(4, 8, recorder, counting=False, slack_slots=4)
        with pytest.raises(FilterFullError):
            for i in range(100):
                core.insert_fingerprint(i % 16, (i * 7) % 256)

    def test_overflowing_multi_slot_insert_changes_nothing(self, recorder):
        core = QuotientFilterCore(4, 8, recorder, slack_slots=4)
        for i in range(core.total_slots - 1):
            core.insert_fingerprint(i % 16, 2 + i // 16)
        before = core.export_state()
        # A count of 2 needs two slots, but only the last slot is free.
        with pytest.raises(FilterFullError):
            core.insert_fingerprint(0, 200, count=2)
        after = core.export_state()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        core.check_invariants()

    def test_load_factor_grows(self, core):
        for i in range(100):
            core.insert_fingerprint(i % 256, (i * 13) % 256 )
        assert 0.3 < core.load_factor < 0.6

    def test_nbytes_close_to_paper_bits_per_slot(self, core):
        bits_per_slot = 8.0 * core.nbytes / core.total_slots
        assert 10.0 <= bits_per_slot <= 10.5  # r=8 plus ~2.125 metadata bits

    def test_non_counting_mode_stores_duplicates_in_slots(self, recorder):
        core = QuotientFilterCore(8, 8, recorder, counting=False)
        for _ in range(4):
            core.insert_fingerprint(3, 9)
        assert core.query_fingerprint(3, 9) == 4
        assert core.n_occupied_slots == 4
