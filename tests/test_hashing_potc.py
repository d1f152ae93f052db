"""Tests for power-of-two-choice hashing."""

import hashlib

import numpy as np
import pytest

from repro.hashing import potc


class TestDerive:
    def test_scalar_output_types(self):
        h = potc.derive(12345, 64, 16)
        assert isinstance(h.primary, int)
        assert 0 <= h.primary < 64
        assert 0 <= h.secondary < 64
        assert 2 <= h.fingerprint < 2**16

    def test_array_output_shapes(self, keys_1k):
        h = potc.derive(keys_1k, 128, 16)
        assert h.primary.shape == keys_1k.shape
        assert h.secondary.shape == keys_1k.shape
        assert h.fingerprint.shape == keys_1k.shape

    def test_blocks_in_range(self, keys_1k):
        h = potc.derive(keys_1k, 37, 12)
        assert np.all((0 <= h.primary) & (h.primary < 37))
        assert np.all((0 <= h.secondary) & (h.secondary < 37))

    def test_two_choices_differ(self, keys_1k):
        h = potc.derive(keys_1k, 64, 16)
        assert np.all(h.primary != h.secondary)

    def test_fingerprints_avoid_reserved_sentinels(self, keys_4k):
        h = potc.derive(keys_4k, 64, 8, reserved_values=(0, 1))
        assert not np.any(h.fingerprint == 0)
        assert not np.any(h.fingerprint == 1)

    def test_deterministic(self, keys_1k):
        a = potc.derive(keys_1k, 64, 16)
        b = potc.derive(keys_1k, 64, 16)
        assert np.array_equal(a.primary, b.primary)
        assert np.array_equal(a.fingerprint, b.fingerprint)

    def test_primary_spread_is_uniformish(self, keys_4k):
        n_blocks = 64
        h = potc.derive(keys_4k, n_blocks, 16)
        counts = np.bincount(h.primary, minlength=n_blocks)
        expected = keys_4k.size / n_blocks
        assert counts.max() < expected * 2
        assert counts.min() > expected * 0.4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            potc.derive(1, 0, 16)
        with pytest.raises(ValueError):
            potc.derive(1, 10, 0)
        with pytest.raises(ValueError):
            potc.derive(1, 10, 64)


class TestLoadBounds:
    def test_simulated_balls_in_bins_respects_bound(self, keys_4k):
        """Greedy two-choice placement stays under the analytical bound."""
        n_blocks = 128
        h = potc.derive(keys_4k, n_blocks, 16)
        loads = np.zeros(n_blocks, dtype=int)
        for p, s in zip(h.primary, h.secondary):
            target = p if loads[p] <= loads[s] else s
            loads[target] += 1
        # Azar et al.: two choices keep the maximum load within
        # n/m + O(log log m); the constant 4 is a conservative slack.
        bound = keys_4k.size / n_blocks + np.log(np.log(n_blocks) + 1.0) / np.log(2.0) + 4.0
        assert loads.max() <= bound


def _reserved_hitting_keys(bits, reserved, n):
    """``n`` keys whose raw fingerprint (before remapping) is reserved."""
    from repro.hashing.mixers import murmur64_mix, splitmix64

    cand = np.arange(1, 1 << 20, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    mask = np.uint64((1 << bits) - 1)
    raw = ((murmur64_mix(cand) >> np.uint64(17)) ^ (splitmix64(cand) << np.uint64(3))) & mask
    return cand[np.isin(raw, np.array(reserved, dtype=np.uint64))][:n]


def _derive_digest(keys, n_blocks, bits, reserved):
    h = potc.derive(keys, n_blocks, bits, reserved_values=reserved)
    dtypes = (h.primary.dtype, h.secondary.dtype, h.fingerprint.dtype)
    assert dtypes == (np.int64, np.int64, np.uint64)
    digest = hashlib.sha256()
    for arr in (h.primary, h.secondary, h.fingerprint):
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


PINNED_DERIVE = {
    (1, 4, (0, 1)): "3337badc44e4ad9c",
    (1, 16, (0, 1)): "625dcde88e5cad81",
    (2, 4, (0, 1)): "01894d6c30f4764f",
    (2, 16, (0, 1)): "db1112a7367ff184",
    (1000, 4, (0, 1)): "b6798a3574322ea6",
    (1000, 16, (0, 1)): "50e660269ae664de",
    (1024, 4, ()): "f4d8435a92332961",
    (1024, 4, (0,)): "2c8d006b1fd925a2",
    (1024, 4, (0, 1)): "ed6c6921c9919555",
    (1024, 4, (0, 5)): "ab27647aff5a0551",
    (1024, 4, (2, 1)): "79bf5eeb918b0d10",
    (1024, 16, (0, 1)): "8f7a320a6b0ab7e4",
}


class TestDerivePinned:
    """``derive`` output pinned for power-of-two and other block counts,
    including keys whose raw fingerprints land on reserved values."""

    @pytest.mark.parametrize("case", sorted(PINNED_DERIVE))
    def test_matches_pinned_output(self, case):
        n_blocks, bits, reserved = case
        hits = _reserved_hitting_keys(bits, reserved or (0, 1), 16)
        assert hits.size == 16
        keys = np.concatenate(
            [np.random.default_rng(21).integers(0, 2**64, size=4000, dtype=np.uint64), hits]
        )
        assert _derive_digest(keys, n_blocks, bits, reserved) == PINNED_DERIVE[case]

    def test_scalar_matches_array_on_reserved_hits(self):
        for key in _reserved_hitting_keys(16, (0, 1), 8):
            scalar = potc.derive(int(key), 1024, 16)
            batch = potc.derive(np.array([key]), 1024, 16)
            expected = (int(batch.primary[0]), int(batch.secondary[0]), int(batch.fingerprint[0]))
            assert (scalar.primary, scalar.secondary, scalar.fingerprint) == expected
            assert scalar.fingerprint >= 2
