"""Tests for the 64-bit hash mixers."""

import numpy as np
import pytest

from repro.hashing.mixers import hash_with_seed, murmur64_mix, murmur64_unmix, splitmix64


class TestMurmurInvertibility:
    @pytest.mark.parametrize(
        "value", [0, 1, 2, 0xDEADBEEF, 2**32, 2**63, 2**64 - 1, 123456789123456789]
    )
    def test_scalar_round_trip(self, value):
        assert murmur64_unmix(murmur64_mix(value)) == value

    def test_array_round_trip(self, rng):
        values = rng.integers(0, 2**63, 1000, dtype=np.uint64)
        mixed = murmur64_mix(values)
        recovered = murmur64_unmix(mixed)
        assert np.array_equal(recovered, values)

    def test_mix_is_not_identity(self):
        assert murmur64_mix(12345) != 12345


class TestMixerQuality:
    @pytest.mark.parametrize("mixer", [murmur64_mix, splitmix64])
    def test_no_collisions_on_sequential_inputs(self, mixer):
        values = np.arange(10_000, dtype=np.uint64)
        hashed = mixer(values)
        assert np.unique(hashed).size == values.size

    @pytest.mark.parametrize("mixer", [murmur64_mix, splitmix64])
    def test_output_bits_are_balanced(self, mixer):
        """Roughly half the output bits should be set (avalanche sanity check)."""
        values = np.arange(4096, dtype=np.uint64)
        hashed = np.asarray(mixer(values), dtype=np.uint64)
        bits = np.unpackbits(hashed.view(np.uint8))
        fraction = bits.mean()
        assert 0.45 < fraction < 0.55

    def test_mixers_are_distinct_families(self):
        values = np.arange(100, dtype=np.uint64)
        a = np.asarray(murmur64_mix(values))
        b = np.asarray(splitmix64(values))
        assert not np.array_equal(a, b)

    def test_scalar_and_array_agree(self):
        values = np.array([7, 8, 9], dtype=np.uint64)
        array_out = np.asarray(splitmix64(values))
        for i, v in enumerate(values):
            assert int(array_out[i]) == splitmix64(int(v))


class TestSeededHash:
    def test_different_seeds_differ(self):
        assert hash_with_seed(42, 0) != hash_with_seed(42, 1)

    def test_deterministic(self):
        assert hash_with_seed(42, 3) == hash_with_seed(42, 3)

    def test_array_input(self):
        out = hash_with_seed(np.arange(10, dtype=np.uint64), 5)
        assert isinstance(out, np.ndarray)
        assert out.size == 10
