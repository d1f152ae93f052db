"""Differential tests guarding the vectorised GQF bulk path.

The bulk GQF computes whole batches with array operations; these tests pin
its behaviour to the per-item point GQF (same fingerprint scheme, same
layout) on random batches, and exercise the wide geometries whose sort keys
used to overflow int64.
"""

import numpy as np
import pytest

from repro.core.exceptions import FilterFullError
from repro.core.gqf import BulkGQF, PointGQF
from repro.core.gqf import counters
from repro.core.gqf.layout import SEQUENTIAL_BATCH_MAX, QuotientFilterCore
from repro.gpusim.stats import StatsRecorder


def _pair(q=10, r=8, region_slots=256):
    rec = StatsRecorder()
    bulk = BulkGQF(q, r, region_slots=region_slots, recorder=rec)
    point = PointGQF(q, r, region_slots=region_slots, recorder=StatsRecorder())
    return bulk, point


class TestBulkPointDifferential:
    """Bulk and point APIs must agree exactly on identical random batches."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_and_count_agree_on_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        bulk, point = _pair()
        for _ in range(4):
            batch = rng.integers(0, 2**63, size=int(rng.integers(40, 250)),
                                 dtype=np.uint64)
            # Repeat some keys so counter encodings appear in both filters.
            batch = np.concatenate([batch, batch[: batch.size // 3]])
            bulk.bulk_insert(batch)
            point.bulk_insert(batch)
            probes = np.concatenate(
                [batch, rng.integers(0, 2**63, size=200, dtype=np.uint64)]
            )
            assert np.array_equal(bulk.bulk_query(probes), point.bulk_query(probes))
            assert np.array_equal(bulk.bulk_count(probes), point.bulk_count(probes))
        assert sorted(bulk.core.iter_fingerprints()) == sorted(
            point.core.iter_fingerprints()
        )
        bulk.core.check_invariants()

    def test_agreement_survives_interleaved_deletes(self):
        rng = np.random.default_rng(7)
        bulk, point = _pair()
        keys = rng.integers(0, 2**63, size=500, dtype=np.uint64)
        bulk.bulk_insert(keys)
        point.bulk_insert(keys)
        doomed = keys[::3]
        assert bulk.bulk_delete(doomed) == point.bulk_delete(doomed)
        assert np.array_equal(bulk.bulk_count(keys), point.bulk_count(keys))
        assert sorted(bulk.core.iter_fingerprints()) == sorted(
            point.core.iter_fingerprints()
        )
        bulk.core.check_invariants()

    def test_large_counts_take_counter_encoding_through_bulk_path(self):
        bulk, point = _pair()
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**63, size=60, dtype=np.uint64)
        values = rng.integers(1, 5000, size=60)
        bulk.bulk_insert(keys, values=values)
        for key, value in zip(keys, values):
            point.insert(int(key), int(value))
        assert np.array_equal(bulk.bulk_count(keys), point.bulk_count(keys))
        bulk.core.check_invariants()

    def test_sequential_and_vectorised_paths_build_identical_tables(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**63, size=6 * SEQUENTIAL_BATCH_MAX,
                            dtype=np.uint64)
        one_shot, _ = _pair()
        dribbled, _ = _pair()
        one_shot.bulk_insert(keys)  # > SEQUENTIAL_BATCH_MAX: vectorised merge
        for chunk in np.split(keys, 6):  # <= threshold: per-item path
            dribbled.bulk_insert(chunk)
        assert sorted(one_shot.core.iter_fingerprints()) == sorted(
            dribbled.core.iter_fingerprints()
        )

    def test_bulk_insert_raises_when_full_without_corruption(self):
        bulk = BulkGQF(3, 8, region_slots=8, recorder=StatsRecorder())
        keys = np.arange(10_000, dtype=np.uint64)
        with pytest.raises(FilterFullError):
            bulk.bulk_insert(keys)
        bulk.core.check_invariants()
        # The per-item semantics are preserved: the table fills to capacity
        # before the exception fires (the benchmark fill loops rely on it).
        assert bulk.core.n_occupied_slots > 0.9 * bulk.core.total_slots


def _force_sequential(filt):
    """Route every batch through the per-item reference path."""
    filt.core.prefers_sequential = lambda n: True


def _query_fixture(cls, seed):
    """A loaded q=10 filter plus a shuffled probe batch covering every case.

    Probes mix stored keys (some with counter-encoded counts), absent keys,
    keys whose quotient owns no run, and keys on the last canonical slot,
    whose run spills into the slack slots; every probe appears twice.
    """
    rec = StatsRecorder()
    filt = cls(10, 8, region_slots=256, recorder=rec)
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2**63, size=300_000, dtype=np.uint64)
    pool_q = np.asarray(filt.scheme.key_to_slot(pool)[0], dtype=np.int64)
    last = pool[pool_q == filt.core.n_canonical_slots - 1]
    keys = np.concatenate([pool[:400], last[:6]])
    heavy = np.repeat(keys[:12], rng.integers(2, 300, size=12))
    filt.bulk_insert(np.concatenate([keys, heavy, last[:6]]))
    occupied = filt.core.occupieds.bits[pool_q]
    unoccupied = pool[400:][~occupied[400:]][:100]
    absent = pool[400:][occupied[400:]][:100]
    probes = np.concatenate([keys, last[6:20], unoccupied, absent])
    probes = rng.permutation(np.concatenate([probes, probes]))
    return filt, rec, probes


class TestQueryEventParity:
    """Vectorised GQF probes must charge exactly the per-item path's events."""

    @pytest.mark.parametrize("cls", [BulkGQF, PointGQF])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_query_and_count_match_per_item_path(self, cls, seed):
        runs = []
        for sequential in (False, True):
            filt, rec, probes = _query_fixture(cls, seed)
            assert not filt.core.prefers_sequential(probes.size)
            if sequential:
                _force_sequential(filt)
            rec.reset()
            query = filt.bulk_query(probes)
            count = filt.bulk_count(probes)
            runs.append((query, count, rec.total.as_dict()))
        (vq, vc, vevents), (sq, sc, sevents) = runs
        assert np.array_equal(vq, sq)
        assert np.array_equal(vc, sc)
        assert vevents == sevents
        assert vc.max() > 2  # counter-encoded runs were probed
        assert not vq.all()  # absent keys were probed


class TestWideGeometries:
    """q + r near 64 bits: the old int64 sort key silently overflowed."""

    @pytest.mark.parametrize("quotient_bits,remainder_bits", [(7, 56), (8, 56)])
    def test_wide_remainder_round_trip(self, quotient_bits, remainder_bits):
        bulk = BulkGQF(
            quotient_bits,
            remainder_bits,
            region_slots=32,
            recorder=StatsRecorder(),
            enforce_alignment=False,
        )
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 2**63, size=3 * SEQUENTIAL_BATCH_MAX,
                            dtype=np.uint64)
        inserted = bulk.bulk_insert(keys)
        assert inserted == keys.size
        assert bulk.bulk_query(keys).all()
        bulk.core.check_invariants()

    def test_wide_remainder_matches_point_api(self):
        rec = StatsRecorder()
        bulk = BulkGQF(7, 56, region_slots=32, recorder=rec,
                       enforce_alignment=False)
        point = PointGQF(7, 56, region_slots=32, recorder=StatsRecorder(),
                         enforce_alignment=False)
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 2**63, size=80, dtype=np.uint64)
        bulk.bulk_insert(keys)
        for key in keys:
            point.insert(int(key))
        assert sorted(bulk.core.iter_fingerprints()) == sorted(
            point.core.iter_fingerprints()
        )

    def test_64_bit_remainders_are_rejected_clearly(self):
        assert 64 not in PointGQF.SUPPORTED_REMAINDERS
        with pytest.raises(ValueError, match="word-aligned remainders"):
            BulkGQF(10, 64, recorder=StatsRecorder())
        with pytest.raises(ValueError, match="word-aligned remainders"):
            PointGQF(10, 64, recorder=StatsRecorder())

    def test_core_rejects_fingerprints_wider_than_64_bits(self):
        """q + r > 64 cannot pack one uint64 fingerprint: the core refuses it."""
        with pytest.raises(ValueError, match="64"):
            QuotientFilterCore(10, 56, StatsRecorder())


class TestEncodeFlat:
    """The vectorised run encoder must match the scalar reference encoder."""

    def test_matches_encode_run_on_random_multisets(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            remainders = np.sort(
                rng.choice(256, size=n, replace=False).astype(np.uint64)
            )
            counts = rng.integers(1, 600, size=n).astype(np.int64)
            flat, lens = counters.encode_flat(
                remainders, counts, counting=True, dtype=np.dtype(np.uint8)
            )
            reference = counters.encode_run(list(zip(remainders, counts)))
            assert flat.tolist() == reference
            assert int(lens.sum()) == len(reference)

    def test_non_counting_mode_repeats_slots(self):
        flat, lens = counters.encode_flat(
            np.array([3, 9], dtype=np.uint64),
            np.array([2, 3], dtype=np.int64),
            counting=False,
            dtype=np.dtype(np.uint8),
        )
        assert flat.tolist() == [3, 3, 9, 9, 9]
        assert lens.tolist() == [2, 3]
