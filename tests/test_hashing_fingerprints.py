"""Tests for quotient/remainder fingerprint schemes."""

import numpy as np
import pytest

from repro.hashing.fingerprints import FingerprintScheme


class TestFingerprintScheme:
    def test_basic_properties(self):
        scheme = FingerprintScheme(10, 8)
        assert scheme.fingerprint_bits == 18
        assert scheme.n_slots == 1024
        assert scheme.false_positive_rate == pytest.approx(2**-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            FingerprintScheme(0, 8)
        with pytest.raises(ValueError):
            FingerprintScheme(10, 0)
        with pytest.raises(ValueError):
            FingerprintScheme(40, 32)

    def test_split_join_round_trip_scalar(self):
        scheme = FingerprintScheme(12, 8)
        for fp in [0, 1, 12345, (1 << 20) - 1]:
            q, r = scheme.split(fp)
            assert scheme.join(q, r) == fp
            assert 0 <= q < scheme.n_slots
            assert 0 <= r < 2**8

    def test_split_join_round_trip_array(self, keys_1k):
        scheme = FingerprintScheme(14, 8)
        fps = scheme.hash_key(keys_1k)
        q, r = scheme.split(fps)
        assert np.array_equal(np.asarray(scheme.join(q, r), dtype=np.uint64), fps)

    def test_hash_key_is_masked_to_p_bits(self, keys_1k):
        scheme = FingerprintScheme(10, 8)
        fps = np.asarray(scheme.hash_key(keys_1k), dtype=np.uint64)
        assert np.all(fps < (1 << scheme.fingerprint_bits))

    def test_hash_key_deterministic(self, keys_1k):
        scheme = FingerprintScheme(10, 8)
        assert np.array_equal(
            np.asarray(scheme.hash_key(keys_1k)), np.asarray(scheme.hash_key(keys_1k))
        )

    def test_key_to_slot(self, keys_1k):
        scheme = FingerprintScheme(12, 8)
        q, r = scheme.key_to_slot(keys_1k)
        assert np.all((0 <= np.asarray(q)) & (np.asarray(q) < scheme.n_slots))
        assert np.all(np.asarray(r) < 2**8)
