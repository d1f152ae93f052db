"""Tests for bit vectors and rank/select."""

import numpy as np
import pytest

from repro.core.gqf.rank_select import Bitvector, select64


class TestWordPrimitives:
    def test_select64(self):
        assert select64(0b1, 1) == 0
        assert select64(0b1010, 1) == 1
        assert select64(0b1010, 2) == 3
        assert select64(0b1010, 3) == 64  # not found

    def test_select64_invalid_k(self):
        with pytest.raises(ValueError):
            select64(1, 0)


class TestBitvectorBasics:
    def test_set_get_clear(self):
        bv = Bitvector(100)
        assert not bv.get(5)
        bv.set(5)
        assert bv.get(5)
        bv.clear(5)
        assert not bv.get(5)

    def test_count(self):
        bv = Bitvector(64)
        for i in (1, 5, 9):
            bv.set(i)
        assert bv.count() == 3

    def test_clear_range(self):
        bv = Bitvector(32)
        for i in range(10):
            bv.set(i)
        bv.clear_range(2, 8)
        assert bv.count() == 4

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            Bitvector(0)


class TestRankSelect:
    def test_rank_is_inclusive(self):
        bv = Bitvector(32)
        bv.set(0)
        bv.set(10)
        assert bv.rank(-1) == 0
        assert bv.rank(0) == 1
        assert bv.rank(9) == 1
        assert bv.rank(10) == 2
        assert bv.rank(31) == 2

    def test_select_is_one_indexed(self):
        bv = Bitvector(32)
        bv.set(3)
        bv.set(17)
        assert bv.select(1) == 3
        assert bv.select(2) == 17
        assert bv.select(3) is None
        with pytest.raises(ValueError):
            bv.select(0)

    def test_rank_select_inverse_property(self, rng):
        bv = Bitvector(256)
        positions = sorted(rng.choice(256, size=40, replace=False))
        for p in positions:
            bv.set(int(p))
        for k in range(1, len(positions) + 1):
            pos = bv.select(k)
            assert pos == positions[k - 1]
            assert bv.rank(pos) == k

    def test_rank_batch_matches_rank_at_word_edges(self, rng):
        n_bits = 200  # n_bits % 64 != 0: the last word is partial
        bv = Bitvector(n_bits)
        for p in rng.choice(n_bits, size=70, replace=False):
            bv.set(int(p))
        for p in (0, 63, 64, n_bits - 1):
            bv.set(p)
        probes = np.array([0, 63, 64, 127, 128, n_bits - 1, 5, 64, 0], dtype=np.int64)
        assert bv.rank_batch(probes).tolist() == [bv.rank(int(p)) for p in probes]
        assert bv.rank_batch(np.array([n_bits - 1]))[0] == bv.count()

    def test_rank_batch_clamps_like_rank(self):
        bv = Bitvector(100)
        bv.set(0)
        bv.set(99)
        probes = np.array([-5, -1, 100, 1000], dtype=np.int64)
        assert bv.rank_batch(probes).tolist() == [bv.rank(int(p)) for p in probes] == [0, 0, 2, 2]

    def test_rank_batch_of_no_positions_is_empty(self):
        out = Bitvector(64).rank_batch(np.zeros(0, dtype=np.int64))
        assert out.dtype == np.int64
        assert out.size == 0

    def test_rank_batch_on_adopted_words(self, rng):
        n_bits = 130
        source = Bitvector(n_bits)
        for p in rng.choice(n_bits, size=40, replace=False):
            source.set(int(p))
        words = source.to_words()
        adopted = Bitvector.adopt_words(words, n_bits)
        probes = np.arange(n_bits, dtype=np.int64)
        expected = [source.rank(int(p)) for p in probes]
        assert adopted.rank_batch(probes).tolist() == expected
        # The adopted vector reads the shared buffer: writes through the
        # buffer show up in the next rank.
        words[0] |= np.uint64(1)
        assert adopted.rank_batch(np.array([0]))[0] == 1


class TestNavigation:
    def test_next_set_unset(self):
        bv = Bitvector(16)
        bv.set(4)
        assert bv.next_set(0) == 4
        assert bv.next_set(5) is None
        assert bv.next_unset(4) == 5
        bv2 = Bitvector(4)
        for i in range(4):
            bv2.set(i)
        assert bv2.next_unset(0) is None

    def test_prev_unset(self):
        bv = Bitvector(16)
        for i in range(5, 10):
            bv.set(i)
        assert bv.prev_unset(9) == 4
        assert bv.prev_unset(3) == 3
        full = Bitvector(4)
        for i in range(4):
            full.set(i)
        assert full.prev_unset(3) is None

    def test_set_positions(self):
        bv = Bitvector(32)
        for p in (2, 8, 30):
            bv.set(p)
        assert list(bv.set_positions(0, 32)) == [2, 8, 30]
        assert list(bv.set_positions(3, 30)) == [8]


class TestShifting:
    def test_shift_right_one(self):
        bv = Bitvector(16)
        bv.set(2)
        bv.set(4)
        bv.shift_right_one(2, 6)
        assert not bv.get(2)
        assert bv.get(3)
        assert bv.get(5)

    def test_shift_right_out_of_bounds(self):
        bv = Bitvector(8)
        with pytest.raises(IndexError):
            bv.shift_right_one(0, 8)

    def test_shift_empty_range_is_noop(self):
        bv = Bitvector(8)
        bv.set(1)
        bv.shift_right_one(5, 5)
        assert bv.get(1)


class TestPackedRoundTrip:
    def test_words_round_trip(self, rng):
        bv = Bitvector(200)
        for p in rng.choice(200, size=50, replace=False):
            bv.set(int(p))
        words = bv.to_words()
        recovered = Bitvector.from_words(words, 200)
        assert np.array_equal(bv.bits, recovered.bits)


def _random_bitvector(rng, n_bits, density):
    bv = Bitvector(n_bits)
    for p in np.flatnonzero(rng.random(n_bits) < density):
        bv.set(int(p))
    return bv


class TestBatchedNavigation:
    @pytest.mark.parametrize("n_bits, density", [(70, 0.5), (300, 0.95), (513, 0.05)])
    def test_batches_match_the_scalar_searches(self, rng, n_bits, density):
        bv = _random_bitvector(rng, n_bits, density)
        positions = rng.integers(0, n_bits, size=40)
        prev = [bv.prev_unset(int(p)) for p in positions]
        nxt = [bv.next_unset(int(p)) for p in positions]
        assert bv.prev_unset_batch(positions).tolist() == [-1 if v is None else v for v in prev]
        assert bv.next_unset_batch(positions).tolist() == [n_bits if v is None else v for v in nxt]
        assert bv.get_batch(positions).tolist() == [bv.get(int(p)) for p in positions]

    @pytest.mark.parametrize("n_bits", [64, 200, 700])
    def test_assign_spans_rewrites_only_the_spans(self, rng, n_bits):
        for _ in range(20):
            bv = _random_bitvector(rng, n_bits, 0.6)
            before = bv.bits.copy()
            cuts = np.sort(rng.choice(n_bits + 1, size=6, replace=False))
            starts, stops = cuts[0::2], cuts[1::2]
            expected = before.copy()
            positions = []
            for a, b in zip(starts, stops):
                expected[a:b] = False
                chosen = np.flatnonzero(rng.random(b - a) < 0.5) + a
                expected[chosen] = True
                positions.append(chosen)
            cleared = bv.assign_spans(starts, stops, np.concatenate(positions), True)
            assert np.array_equal(bv.bits, expected)
            assert bv.count() == int(expected.sum())  # padding stays clear
            assert cleared.tolist() == np.flatnonzero(before & ~expected).tolist()
