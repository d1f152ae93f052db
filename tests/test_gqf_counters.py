"""Tests for the CQF variable-length counter encoding."""

import pytest

from repro.core.gqf import counters


class TestEncodeItem:
    def test_count_one(self):
        assert counters.encode_item(17, 1) == [17]

    def test_count_two(self):
        assert counters.encode_item(17, 2) == [17, 17]

    def test_count_three_uses_zero_digit(self):
        assert counters.encode_item(17, 3) == [17, 0, 17]

    def test_larger_counts(self):
        # count=10, remainder=2: value 7 in base 2 -> digits 1,1,1
        assert counters.encode_item(2, 10) == [2, 1, 1, 1, 2]

    def test_digits_always_below_remainder(self):
        for count in range(3, 200):
            slots = counters.encode_item(9, count)
            assert slots[0] == 9 and slots[-1] == 9
            assert all(d < 9 for d in slots[1:-1])

    def test_unary_remainders(self):
        assert counters.encode_item(0, 4) == [0, 0, 0, 0]
        assert counters.encode_item(1, 3) == [1, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            counters.encode_item(5, 0)
        with pytest.raises(ValueError):
            counters.encode_item(-1, 1)

    def test_space_is_logarithmic(self):
        """The encoding of count C takes O(log_x C) slots, not O(C)."""
        big = counters.slots_for_count(200, 1_000_000)
        assert big <= 2 + 4  # 1e6 in base 200 needs only ~3 digits


class TestRunRoundTrip:
    @pytest.mark.parametrize(
        "items",
        [
            [(5, 1)],
            [(5, 2)],
            [(5, 7)],
            [(3, 1), (9, 4), (200, 1)],
            [(0, 3), (1, 2), (2, 5), (250, 300)],
            [(7, 1), (8, 1), (9, 1)],
            [(100, 1000)],
        ],
    )
    def test_encode_decode_round_trip(self, items):
        encoded = counters.encode_run(items)
        decoded = counters.decode_run(encoded)
        assert decoded == sorted(items, key=lambda rc: rc[0])

    def test_duplicate_remainders_merge(self):
        encoded = counters.encode_run([(5, 2), (5, 3)])
        assert counters.decode_run(encoded) == [(5, 5)]

    def test_runs_are_sorted_by_remainder(self):
        encoded = counters.encode_run([(9, 1), (2, 1), (5, 1)])
        assert counters.decode_run(encoded) == [(2, 1), (5, 1), (9, 1)]

    def test_malformed_encoding_detected(self):
        # Counter digits with no terminator.
        with pytest.raises(ValueError):
            counters.decode_run([9, 2, 3])

    def test_unsorted_run_detected(self):
        with pytest.raises(ValueError):
            counters.decode_run([9, 5])

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            counters.encode_run([(3, 0)])


class TestIncrementDecrement:
    def test_increment_existing(self):
        items = [(3, 1), (7, 2)]
        assert counters.increment(items, 7) == [(3, 1), (7, 3)]

    def test_increment_new_keeps_sorted(self):
        items = [(3, 1), (9, 1)]
        assert counters.increment(items, 5, 2) == [(3, 1), (5, 2), (9, 1)]

    def test_increment_invalid_delta(self):
        with pytest.raises(ValueError):
            counters.increment([], 3, 0)

    def test_decrement_existing(self):
        items = [(3, 2)]
        new_items, found = counters.decrement(items, 3)
        assert found and new_items == [(3, 1)]

    def test_decrement_to_zero_removes(self):
        new_items, found = counters.decrement([(3, 1), (5, 1)], 3)
        assert found and new_items == [(5, 1)]

    def test_decrement_missing(self):
        new_items, found = counters.decrement([(3, 1)], 9)
        assert not found and new_items == [(3, 1)]
