"""Tests for the filter lifecycle layer: snapshots, k-way merge, resize.

Round-trip identity is asserted *bit for bit* on the snapshot state (not
just query-equivalence), truncated/corrupted files must fail loudly, and
merged/expanded filters are differential-tested against filters built from
scratch with the same contents.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.baselines import (
    BlockedBloomFilter,
    BloomFilter,
    CPUCountingQuotientFilter,
    CPUVectorQuotientFilter,
    RankSelectQuotientFilter,
    StandardQuotientFilter,
)
from repro.core.base import FilterState
from repro.core.exceptions import SnapshotError, UnsupportedOperationError
from repro.core.gqf import BulkGQF, PointGQF
from repro.core.tcf import BulkTCF, PointTCF
from repro.core.tcf.config import POINT_TCF_DEFAULT
from repro.lifecycle import (
    FORMAT_VERSION,
    expand,
    load_filter,
    merge,
    read_snapshot,
    save_filter,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _keys(n: int, seed: int = 11) -> np.ndarray:
    # Keys 0 and 1 collide with the TCF backing store's reserved words and
    # are displaced on storage; starting at 2 keeps bit-identity strict.
    rng = np.random.default_rng(seed)
    return rng.integers(2, 2**63, size=n, dtype=np.uint64)


def _make(cls):
    if cls in (PointGQF, BulkGQF, CPUCountingQuotientFilter):
        return cls(10, 8)
    if cls in (StandardQuotientFilter, RankSelectQuotientFilter):
        return cls(10, 5)
    if cls in (PointTCF, BulkTCF, CPUVectorQuotientFilter):
        return cls(1024)
    if cls is BloomFilter:
        return cls(10_000)
    return BlockedBloomFilter.for_capacity(500)


ALL_CLASSES = [
    PointGQF,
    BulkGQF,
    PointTCF,
    BulkTCF,
    BloomFilter,
    BlockedBloomFilter,
    StandardQuotientFilter,
    RankSelectQuotientFilter,
    CPUCountingQuotientFilter,
    CPUVectorQuotientFilter,
]


# --------------------------------------------------------------------- saves
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
def test_roundtrip_bit_identical(cls, tmp_path):
    filt = _make(cls)
    assert isinstance(filt, FilterState)
    keys = _keys(300)
    filt.bulk_insert(keys)
    path = tmp_path / "filter.rpro"
    nbytes = filt.save(path)
    assert nbytes == path.stat().st_size

    loaded = cls.load(path)
    assert type(loaded) is cls
    original, restored = filt.snapshot_state(), loaded.snapshot_state()
    assert sorted(original) == sorted(restored)
    for name in original:
        assert np.array_equal(
            np.asarray(original[name]), np.asarray(restored[name])
        ), f"section {name!r} not bit-identical"
    assert np.array_equal(filt.bulk_query(keys), loaded.bulk_query(keys))
    assert loaded.n_items == filt.n_items


def test_roundtrip_preserves_counts(tmp_path):
    filt = PointGQF(10, 8)
    keys = _keys(64)
    filt.bulk_insert(keys)
    filt.bulk_insert(keys[:10])
    filt.save(tmp_path / "f.rpro")
    loaded = PointGQF.load(tmp_path / "f.rpro")
    for k in keys[:10]:
        assert loaded.count(int(k)) == 2
    for k in keys[10:20]:
        assert loaded.count(int(k)) == 1


def test_roundtrip_preserves_tcf_journal(tmp_path):
    filt = PointTCF(256, auto_resize=True)
    keys = _keys(600)
    filt.bulk_insert(keys)
    assert filt.n_resizes > 0
    filt.save(tmp_path / "f.rpro")
    loaded = PointTCF.load(tmp_path / "f.rpro")
    # The journal survives, so the restored filter can keep growing.
    more = _keys(600, seed=99)
    loaded.bulk_insert(more)
    assert loaded.bulk_query(keys).all() and loaded.bulk_query(more).all()


def test_save_load_via_module_functions(tmp_path):
    filt = BloomFilter(4_000)
    filt.bulk_insert(_keys(100))
    save_filter(filt, tmp_path / "f.rpro")
    loaded = load_filter(tmp_path / "f.rpro")
    assert type(loaded) is BloomFilter
    assert loaded.bulk_query(_keys(100)).all()


def test_header_is_versioned(tmp_path):
    filt = _make(PointTCF)
    filt.bulk_insert(_keys(50))
    filt.save(tmp_path / "f.rpro")
    header, arrays = read_snapshot(tmp_path / "f.rpro")
    assert header["format_version"] == FORMAT_VERSION
    assert header["class"] == "PointTCF"
    assert header["module"].startswith("repro.")
    assert {s["name"] for s in header["sections"]} == set(arrays)
    # Sections are 64-byte aligned for zero-copy memmap views.
    assert all(s["offset"] % 64 == 0 for s in header["sections"])


# ---------------------------------------------------------------- corruption
@pytest.mark.parametrize("keep_fraction", [0.0, 0.2, 0.9])
def test_truncated_snapshot_rejected(tmp_path, keep_fraction):
    filt = _make(BulkTCF)
    filt.bulk_insert(_keys(200))
    path = tmp_path / "f.rpro"
    size = filt.save(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(1, int(size * keep_fraction)))
    with pytest.raises(SnapshotError):
        BulkTCF.load(path)


def test_corrupted_byte_rejected(tmp_path):
    filt = _make(PointGQF)
    filt.bulk_insert(_keys(200))
    path = tmp_path / "f.rpro"
    size = filt.save(path)
    blob = bytearray(path.read_bytes())
    blob[size // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="checksum"):
        PointGQF.load(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "f.rpro"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 100)
    with pytest.raises(SnapshotError, match="magic"):
        load_filter(path)


def test_wrong_class_rejected(tmp_path):
    filt = _make(PointGQF)
    filt.save(tmp_path / "f.rpro")
    with pytest.raises(SnapshotError, match="PointGQF"):
        PointTCF.load(tmp_path / "f.rpro")


def test_golden_snapshot_still_loads(tmp_path):
    """The committed v1 fixture must load in every supported environment.

    Re-saving it must reproduce the fixture byte for byte, which pins the
    container encoder shared with the job journal.  Regenerate with
    ``python tests/data/make_golden_snapshot.py`` only on an intentional
    format bump (and bump ``FORMAT_VERSION`` alongside).
    """
    path = DATA_DIR / "golden_pointgqf_v1.rpro"
    header, _ = read_snapshot(path)
    assert header["format_version"] == 1
    loaded = load_filter(path, expected_class=PointGQF)
    keys = np.arange(2, 202, dtype=np.uint64)
    assert loaded.bulk_query(keys).all()
    assert loaded.count(2) == 3
    save_filter(loaded, tmp_path / "resaved.rpro")
    assert (tmp_path / "resaved.rpro").read_bytes() == path.read_bytes()


# --------------------------------------------------------------------- merge
def test_gqf_merge_matches_scratch_built():
    keys = _keys(600)
    shards = np.array_split(keys, 3)
    parts = []
    for shard in shards:
        part = BulkGQF(10, 8)
        part.bulk_insert(shard)
        parts.append(part)
    merged = merge(*parts)
    reference = BulkGQF(
        merged.scheme.quotient_bits,
        merged.scheme.remainder_bits,
        enforce_alignment=False,
    )
    reference.bulk_insert(keys)
    assert np.array_equal(
        merged.core.slots.peek(), reference.core.slots.peek()
    )
    assert merged.bulk_query(keys).all()


def test_gqf_merge_sums_counts():
    a, b = PointGQF(10, 8), PointGQF(10, 8)
    keys = _keys(100)
    a.bulk_insert(keys)
    b.bulk_insert(keys[:30])
    b.bulk_insert(keys[:10])
    merged = merge(a, b)
    assert merged.count(int(keys[0])) == 3
    assert merged.count(int(keys[15])) == 2
    assert merged.count(int(keys[50])) == 1


def test_merge_grows_output_when_inputs_are_full():
    keys = _keys(1600)
    parts = []
    for shard in np.array_split(keys, 2):
        part = PointGQF(10, 8)
        part.bulk_insert(shard)
        parts.append(part)
    merged = merge(*parts)
    # 1600 keys cannot sit at a healthy load factor in 2^10 slots.
    assert merged.scheme.quotient_bits > 10
    assert merged.bulk_query(keys).all()


def test_tcf_journal_merge_across_sizes():
    a = PointTCF(256, auto_resize=True)
    b = PointTCF(1024, auto_resize=True)
    ka, kb = _keys(150), _keys(150, seed=5)
    a.bulk_insert(ka)
    b.bulk_insert(kb)
    merged = merge(a, b)
    assert merged.bulk_query(ka).all() and merged.bulk_query(kb).all()


def test_tcf_same_geometry_merge():
    a, b = BulkTCF(4096), BulkTCF(4096)
    ka, kb = _keys(150), _keys(150, seed=5)
    a.bulk_insert(ka)
    b.bulk_insert(kb)
    merged = merge(a, b)
    assert merged.bulk_query(ka).all() and merged.bulk_query(kb).all()
    assert merged.n_items == a.n_items + b.n_items


def test_tcf_merge_value_policies():
    config = dataclasses.replace(POINT_TCF_DEFAULT, value_bits=4)
    keys = _keys(50)
    a = PointTCF(1024, config, auto_resize=True)
    b = PointTCF(1024, config, auto_resize=True)
    a.bulk_insert(keys, np.full(keys.size, 3, dtype=np.uint64))
    b.bulk_insert(keys, np.full(keys.size, 9, dtype=np.uint64))
    for policy, expected in (("first", 3), ("min", 3), ("max", 9)):
        merged = merge(a, b, value_policy=policy)
        assert merged.get_value(int(keys[0])) == expected


def test_bloom_merge_is_word_or():
    a, b = BloomFilter(20_000), BloomFilter(20_000)
    ka, kb = _keys(150), _keys(150, seed=5)
    a.bulk_insert(ka)
    b.bulk_insert(kb)
    merged = merge(a, b)
    assert merged.bulk_query(ka).all() and merged.bulk_query(kb).all()
    reference = BloomFilter(20_000)
    reference.bulk_insert(np.concatenate([ka, kb]))
    assert np.array_equal(merged.words.peek(), reference.words.peek())


def test_merge_rejects_bad_inputs():
    a = PointGQF(10, 8)
    with pytest.raises(ValueError, match="at least two"):
        merge(a)
    with pytest.raises(ValueError, match="classes"):
        merge(a, BulkGQF(10, 8))
    with pytest.raises(ValueError, match="value_policy"):
        merge(a, PointGQF(10, 8), value_policy="last")
    with pytest.raises(ValueError, match="fingerprint"):
        merge(a, PointGQF(10, 16))


# -------------------------------------------------------------------- resize
def test_gqf_autoresize_absorbs_overflow():
    filt = PointGQF(6, 8, auto_resize=True)
    keys = _keys(500)
    filt.bulk_insert(keys)
    assert filt.n_resizes > 0
    assert filt.bulk_query(keys).all()


def test_tcf_autoresize_absorbs_overflow():
    for cls in (PointTCF, BulkTCF):
        filt = cls(128, auto_resize=True)
        keys = _keys(1000)
        filt.bulk_insert(keys)
        assert filt.n_resizes > 0, cls.__name__
        assert filt.bulk_query(keys).all(), cls.__name__


def test_tcf_point_insert_autoresizes():
    filt = PointTCF(64, auto_resize=True)
    for k in range(2, 400):
        assert filt.insert(k)
    assert all(filt.query(k) for k in range(2, 400))
    assert filt.n_resizes > 0


def test_tcf_rebuild_keeps_kernel_records():
    """A resize's rebuild launches its kernels in the growing filter's
    context, and no record's events are counted twice."""
    bulk = BulkTCF(512, auto_resize=True)
    bulk.bulk_insert(_keys(3000))
    assert bulk.n_resizes > 0
    passes = bulk.kernels.kernels_named("bulk_tcf_insert_pass1")
    assert len(passes) >= 1 + bulk.n_resizes
    kept, seen = bulk.kernels.total_stats, bulk.recorder.total
    # Every table write happens inside a launch, the rebuilds' included.
    assert kept.cache_line_writes == seen.cache_line_writes
    assert kept.shared_memory_accesses == seen.shared_memory_accesses
    assert kept.kernel_launches == len(bulk.kernels.kernels)
    # The point TCF's one launch per call already absorbs the rebuild.
    point = PointTCF(512, auto_resize=True)
    point.bulk_insert(_keys(3000))
    assert point.n_resizes > 0
    assert [k.name for k in point.kernels.kernels] == ["tcf_point_bulk_insert"]
    assert point.kernels.total_stats.kernel_launches == point.recorder.total.kernel_launches


def test_expand_gqf_matches_membership_and_counts():
    filt = PointGQF(10, 8)
    keys = _keys(300)
    filt.bulk_insert(keys)
    filt.bulk_insert(keys[:20])
    bigger = expand(filt)
    assert bigger.n_slots == 2 * filt.n_slots
    assert bigger.bulk_query(keys).all()
    for k in keys[:20]:
        assert bigger.count(int(k)) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: PointGQF(10, 8),
        lambda: BulkGQF(10, 8),
        lambda: CPUCountingQuotientFilter(10, 8),
        lambda: StandardQuotientFilter(10, 5),
        lambda: RankSelectQuotientFilter(10, 5),
    ],
    ids=["PointGQF", "BulkGQF", "CPU-CQF", "SQF", "RSQF"],
)
def test_expand_quotient_family(make):
    """Every quotient-family filter grows through one ``resized()``."""
    filt = make()
    keys = _keys(300)
    filt.bulk_insert(keys)
    if not filt.capabilities().resizable:
        # The SQF/RSQF packings hold only 5- or 13-bit remainders.
        with pytest.raises(UnsupportedOperationError):
            filt.resized(1)
        with pytest.raises(UnsupportedOperationError):
            expand(filt, 1)
        return
    filt.bulk_insert(np.repeat(keys[:20], 2))
    for extra in (1, 2):
        bigger = filt.resized(extra)
        expanded = expand(filt, extra)
        assert bigger.n_slots == expanded.n_slots == filt.n_slots << extra
        assert bigger.snapshot_config() == expanded.snapshot_config()
        state, expanded_state = bigger.snapshot_state(), expanded.snapshot_state()
        assert state.keys() == expanded_state.keys()
        for name in state:
            assert np.array_equal(state[name], expanded_state[name]), name
        assert bigger.bulk_query(keys).all()
        assert [bigger.count(int(k)) for k in keys[:20]] == [3] * 20


@pytest.mark.parametrize("cls", [PointGQF, BulkGQF])
def test_gqf_growth_keeps_one_geometry(cls):
    """After auto-resize every view of the geometry follows the grown core."""
    filt = cls(6, 16, auto_resize=True)
    filt.bulk_insert(_keys(500))
    assert filt.n_resizes > 0
    geometry = (filt.core.quotient_bits, filt.core.remainder_bits)
    assert geometry == (6 + filt.n_resizes, 16 - filt.n_resizes)
    config = filt.snapshot_config()
    assert (config["quotient_bits"], config["remainder_bits"]) == geometry
    assert (filt.scheme.quotient_bits, filt.scheme.remainder_bits) == geometry
    assert filt.false_positive_rate == 2.0 ** -filt.core.remainder_bits


@pytest.mark.parametrize("at", [0.0, -1.0, 1.5])
@pytest.mark.parametrize("cls", [PointGQF, BulkGQF])
def test_gqf_rejects_auto_resize_threshold_outside_unit_interval(cls, at):
    """A threshold of 0 or below would grow on every insert (down to a
    1-bit remainder); one above 1 would never grow.  Both are refused, as
    the TCF refuses them."""
    with pytest.raises(ValueError, match=r"auto_resize_at must be in \(0, 1\]"):
        cls(10, 8, auto_resize=True, auto_resize_at=at)


def test_expand_tcf_in_place():
    filt = PointTCF(256, auto_resize=True)
    keys = _keys(150)
    filt.bulk_insert(keys)
    before = filt.table.n_slots
    returned = expand(filt)
    assert returned is filt
    assert filt.table.n_slots == 2 * before
    assert filt.bulk_query(keys).all()


@pytest.mark.parametrize(
    "make",
    [
        lambda: StandardQuotientFilter(10, 5),
        lambda: RankSelectQuotientFilter(10, 5),
        lambda: BloomFilter(1_000),
        lambda: BlockedBloomFilter.for_capacity(100),
        lambda: PointTCF(1024),  # no journal without auto_resize
    ],
)
def test_expand_unsupported(make):
    with pytest.raises(UnsupportedOperationError):
        expand(make())


def test_full_error_carries_occupancy():
    filt = PointTCF(64)  # no auto_resize: must raise, with context attached
    from repro.core.exceptions import FilterFullError

    with pytest.raises(FilterFullError) as excinfo:
        filt.bulk_insert(_keys(1000))
    err = excinfo.value
    assert err.n_slots is not None and err.load_factor is not None


# ------------------------------------------------------------ pipeline stage
def test_lifecycle_stage_expectations_hold():
    from repro.pipeline.presets import get_preset
    from repro.pipeline.stage import get_stage

    stage = get_stage("lifecycle")
    preset = get_preset("smoke").scaled(lifecycle_keys=300, lifecycle_lg=9)
    output = stage.run(preset)
    results = stage.evaluate(output.data)
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.expectation_id}: {r.detail}" for r in failed]
