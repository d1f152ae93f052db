"""Tests for the filter lifecycle layer: snapshots, k-way merge, resize.

Round-trip identity is asserted *bit for bit* on the snapshot state (not
just query-equivalence), truncated/corrupted files must fail loudly, and
merged/expanded filters are differential-tested against filters built from
scratch with the same contents.
"""

from __future__ import annotations

import dataclasses
import hashlib
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
    load_filter,
    merge,
    read_snapshot,
    save_filter,
)
from repro.sharding import ShardedFilter, sharded_gqf, sharded_tcf

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _keys(n: int, seed: int = 11) -> np.ndarray:
    # Keys 0 and 1 collide with the TCF backing store's reserved words and
    # are displaced on storage; starting at 2 keeps bit-identity strict.
    rng = np.random.default_rng(seed)
    return rng.integers(2, 2**63, size=n, dtype=np.uint64)


def _digest(filt) -> str:
    """A short digest of every section of ``filt.snapshot_state()``."""
    digest = hashlib.sha256()
    for section, array in sorted(filt.snapshot_state().items()):
        digest.update(section.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


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


#: Inserts that outgrow their table: name -> (filter, keys inserted, and for
#: the quotient filters the pinned ``(n_resizes, state digest)`` they reach).
GROWING_INSERTS = {
    "bulk-tcf": (lambda: BulkTCF(512, auto_resize=True), 3000, None),
    "point-tcf": (lambda: PointTCF(512, auto_resize=True), 3000, None),
    "bulk-gqf": (
        lambda: BulkGQF(10, 8, region_slots=256, auto_resize=True),
        2500,
        (2, "66bf8fdd0ec44b4f"),
    ),
    "point-gqf": (
        lambda: PointGQF(10, 8, region_slots=256, auto_resize=True),
        2500,
        (2, "66bf8fdd0ec44b4f"),
    ),
}


@pytest.mark.parametrize("name", sorted(GROWING_INSERTS))
def test_tcf_rebuild_keeps_kernel_records(name):
    """A resize's rebuild or resend launches its kernels in the growing
    filter's context, unnested, and no record's events are counted twice."""
    factory, n_keys, pinned = GROWING_INSERTS[name]
    filt = factory()
    filt.bulk_insert(_keys(n_keys))
    assert filt.n_resizes > 0
    kept, seen = filt.kernels.total_stats, filt.recorder.total
    totals = seen.as_dict()
    assert all(value <= totals[field] for field, value in kept.as_dict().items())
    if name == "point-tcf":
        # The point TCF's one launch per call already absorbs the rebuild.
        assert [k.name for k in filt.kernels.kernels] == ["tcf_point_bulk_insert"]
        assert kept.kernel_launches == seen.kernel_launches
        return
    assert kept.kernel_launches == len(filt.kernels.kernels)
    if name == "bulk-tcf":
        passes = filt.kernels.kernels_named("bulk_tcf_insert_pass1")
        assert len(passes) >= 1 + filt.n_resizes
        # Every table write happens inside a launch, the rebuilds' included.
        assert kept.cache_line_writes == seen.cache_line_writes
        assert kept.shared_memory_accesses == seen.shared_memory_accesses
    else:
        # A quotient filter grows outside any launch and resends what was
        # left out; it ends where growing inside the launch ended.
        assert (filt.n_resizes, _digest(filt)) == pinned


#: ``(filter, bits grown) -> digest`` of the ``snapshot_state()`` a filter
#: reaches by growing in place.  The quotient family's were taken from
#: fresh filters of the grown geometry rebuilt from the same fingerprints,
#: so growing in place must leave exactly that table.
GROWN_DIGESTS = {
    # The quotient designs share one core layout, so they reach one state.
    **{
        (name, bits): digest
        for name in ("PointGQF", "BulkGQF", "CPU-CQF", "BulkGQF-mapreduce", "BulkGQF-auto")
        for bits, digest in ((1, "ce0992d7d3978d34"), (2, "f7a0a5e633adb9cd"))
    },
    ("PointTCF", 1): "3fd729678174f3b4",
    ("PointTCF", 2): "7d85571e22c233de",
    ("BulkTCF", 1): "59fdc39b48a2c027",
    ("BulkTCF", 2): "5e9fd11c30f90ae6",
    ("sharded-gqf", 1): "8bd33ca014aeadef",
    ("sharded-gqf", 2): "f306da4a45d97110",
    ("sharded-tcf", 1): "965c55bae2c05987",
    ("sharded-tcf", 2): "a75e55e7cc97b00b",
}


def _assert_grows_in_place(make, name, keys, counted=False, table_slots=None):
    """Grow fresh filters by 1 and by 2 bits, in place.

    The main table must hold ``2**bits`` times the slots (``table_slots``,
    the filter's ``n_slots`` by default; a TCF's backing table rounds
    separately), every key must stay present with its count (each of
    ``keys[:20]`` inserted three times when ``counted``), and the state
    must match its pinned digest.
    """
    table_slots = table_slots or (lambda filt: filt.n_slots)
    for extra in (1, 2):
        filt = make()
        try:
            filt.bulk_insert(keys)
            if counted:
                filt.bulk_insert(np.repeat(keys[:20], 2))
            slots, resizes = table_slots(filt), filt.n_resizes
            assert filt.grow(extra) is None
            assert table_slots(filt) == slots << extra
            assert filt.n_resizes > resizes
            assert filt.bulk_query(keys).all()
            if counted:
                assert filt.bulk_count(keys[:20]).tolist() == [3] * 20
            assert _digest(filt) == GROWN_DIGESTS[name, extra], (name, extra)
        finally:
            if isinstance(filt, ShardedFilter):
                filt.close()


#: Every quotient-family design, by test id.
QUOTIENT_FAMILY = {
    "PointGQF": lambda: PointGQF(10, 8),
    "BulkGQF": lambda: BulkGQF(10, 8),
    "BulkGQF-mapreduce": lambda: BulkGQF(10, 8, use_mapreduce=True),
    "BulkGQF-auto": lambda: BulkGQF(10, 8, auto_resize=True),
    "CPU-CQF": lambda: CPUCountingQuotientFilter(10, 8),
    "SQF": lambda: StandardQuotientFilter(10, 5),
    "RSQF": lambda: RankSelectQuotientFilter(10, 5),
}


@pytest.mark.parametrize("name", list(QUOTIENT_FAMILY))
def test_expand_quotient_family(name):
    """Every quotient-family filter grows in place through one ``grow()``;
    the SQF and RSQF, whose packings hold only 5- or 13-bit remainders,
    refuse it before any state changes."""
    make = QUOTIENT_FAMILY[name]
    keys = _keys(300)
    if make().capabilities().resizable:
        _assert_grows_in_place(make, name, keys, counted=True)
        return
    filt = make()
    filt.bulk_insert(keys)
    before = _digest(filt)
    with pytest.raises(UnsupportedOperationError):
        filt.grow(1)
    assert _digest(filt) == before


def test_expand_gqf_matches_membership_and_counts():
    """A PointGQF grown in place by one bit keeps membership and counts."""
    filt = PointGQF(10, 8)
    keys = _keys(300)
    filt.bulk_insert(keys)
    filt.bulk_insert(keys[:20])
    slots = filt.n_slots
    filt.grow()
    assert filt.n_slots == 2 * slots
    assert filt.bulk_query(keys).all()
    for k in keys[:20]:
        assert filt.count(int(k)) == 2


def test_expand_tcf_in_place():
    """A journaled TCF grows in place, one doubling per bit."""
    for cls in (PointTCF, BulkTCF):
        _assert_grows_in_place(
            lambda: cls(256, auto_resize=True),
            cls.__name__,
            _keys(150),
            table_slots=lambda filt: filt.table.n_slots,
        )


@pytest.mark.parametrize("max_workers", [0, 2], ids=["inline", "pooled"])
@pytest.mark.parametrize("family", ["gqf", "tcf"])
def test_expand_sharded_in_place(family, max_workers):
    """A sharded filter grows every shard in place (a TCF shard through
    the journal its parent keeps)."""
    if family == "gqf":
        _assert_grows_in_place(
            lambda: sharded_gqf(2, 9, max_workers=max_workers),
            "sharded-gqf",
            _keys(300),
            counted=True,
        )
        return
    _assert_grows_in_place(
        lambda: sharded_tcf(2, 256, max_workers=max_workers, auto_resize=True),
        "sharded-tcf",
        _keys(150),
        table_slots=lambda filt: sum(twin.table.n_slots for twin in filt._twins),
    )


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


#: Every auto-resizing design, built at a given threshold.
AUTO_RESIZERS = {
    "PointGQF": lambda at: PointGQF(10, 8, auto_resize=True, auto_resize_at=at),
    "BulkGQF": lambda at: BulkGQF(10, 8, auto_resize=True, auto_resize_at=at),
    "PointTCF": lambda at: PointTCF(256, auto_resize=True, auto_resize_at=at),
    "BulkTCF": lambda at: BulkTCF(256, auto_resize=True, auto_resize_at=at),
    "ShardedFilter": lambda at: sharded_gqf(
        2, 8, max_workers=0, auto_resize=True, auto_resize_at=at
    ),
}


@pytest.mark.parametrize("at", [0.0, -1.0, 1.5])
@pytest.mark.parametrize("cls", list(AUTO_RESIZERS))
def test_gqf_rejects_auto_resize_threshold_outside_unit_interval(cls, at):
    """A threshold of 0 or below would grow on every insert (down to a
    1-bit remainder for a GQF); one above 1 would never grow.  Every
    auto-resizing design refuses both through the one shared policy."""
    with pytest.raises(ValueError, match=r"auto_resize_at must be in \(0, 1\]"):
        AUTO_RESIZERS[cls](at)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BloomFilter(1_000),
        lambda: BlockedBloomFilter.for_capacity(100),
        lambda: PointTCF(1024),  # no journal without auto_resize
        lambda: BulkTCF(1024),
        lambda: CPUVectorQuotientFilter(1024),
    ],
)
def test_expand_unsupported(make):
    """A filter whose structure cannot grow refuses, with its state intact
    (the SQF and RSQF refuse in ``test_expand_quotient_family``)."""
    filt = make()
    filt.bulk_insert(_keys(50))
    before = _digest(filt)
    with pytest.raises(UnsupportedOperationError):
        filt.grow()
    assert _digest(filt) == before


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
