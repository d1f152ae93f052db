"""Tests for the XORWOW generator (cuRand substitute)."""

import numpy as np

from repro.hashing.xorwow import XorwowGenerator, generate_disjoint_keys, generate_keys


class TestXorwowGenerator:
    def test_deterministic_per_seed(self):
        a = XorwowGenerator(7)
        b = XorwowGenerator(7)
        assert [a.next_uint32() for _ in range(10)] == [b.next_uint32() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = XorwowGenerator(1)
        b = XorwowGenerator(2)
        assert [a.next_uint32() for _ in range(5)] != [b.next_uint32() for _ in range(5)]

    def test_outputs_are_32_bit(self):
        gen = XorwowGenerator(3)
        for _ in range(100):
            value = gen.next_uint32()
            assert 0 <= value < 2**32

    def test_uint64_combines_two_words(self):
        gen = XorwowGenerator(4)
        value = gen.next_uint64()
        assert 0 <= value < 2**64

    def test_small_uint64_array_matches_sequential(self):
        a = XorwowGenerator(6)
        b = XorwowGenerator(6)
        array = a.uint64_array(16)
        sequential = np.array([b.next_uint64() for _ in range(16)], dtype=np.uint64)
        assert np.array_equal(array, sequential)

    def test_large_array_values_distinct(self):
        out = XorwowGenerator(8).uint64_array(100_000)
        assert np.unique(out).size == out.size

    def test_reseed_restarts_stream(self):
        gen = XorwowGenerator(9)
        first = [gen.next_uint32() for _ in range(3)]
        gen.seed(9)
        assert [gen.next_uint32() for _ in range(3)] == first

    def test_values_roughly_uniform(self):
        out = XorwowGenerator(10).uint64_array(50_000).astype(np.float64)
        mean = out.mean() / 2**64
        assert 0.48 < mean < 0.52


class TestKeyGeneration:
    def test_generate_keys_deterministic(self):
        assert np.array_equal(generate_keys(100, 1), generate_keys(100, 1))

    def test_generate_keys_distinct_seeds_disjointish(self):
        a = set(generate_keys(1000, 1).tolist())
        b = set(generate_keys(1000, 2).tolist())
        assert len(a & b) == 0

    def test_disjoint_keys_avoid_collisions(self):
        base = generate_keys(500, 3)
        negatives = generate_disjoint_keys(500, 4, base)
        assert len(set(negatives.tolist()) & set(base.tolist())) == 0
        assert negatives.size == 500
