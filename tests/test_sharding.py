"""Tests for the process-parallel sharded filter (PR 10).

Differential parity is the backbone, as for every bulk path before it:

* with **one shard**, the sharded filter must produce the *identical table
  state and identical hardware-event counts* as the unsharded filter —
  routing a whole batch to one shard preserves the caller's key order bit
  for bit;
* with **N shards**, each shard must equal an unsharded filter fed exactly
  that shard's keys (in routed order).

Beyond parity: deterministic routing, pool execution with event-delta
merging, rebalancing round-trips, single-file and shard-set snapshots,
worker-kill fault recovery, shared-memory leak guards, and the service
registry's close hooks.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib

import numpy as np
import pytest

from repro.core.exceptions import FilterFullError, SnapshotError
from repro.core.gqf import BulkGQF
from repro.core.tcf import BulkTCF
from repro.core.tcf.bulk_tcf import BULK_TCF_DEFAULT
from repro.core.tcf.config import TCFConfig
from repro.gpusim.stats import StatsRecorder
from repro.lifecycle import load_filter, load_shard_set, read_manifest, save_shard_set
from repro.lifecycle.snapshot import read_snapshot
from repro.service.faults import FaultConfig, FaultInjector
from repro.service.registry import FilterRegistry
from repro.sharding import (
    DEFAULT_ROUTER_SEED,
    ShardedFilter,
    partition,
    shard_ids,
    sharded_gqf,
    sharded_tcf,
)
from repro.sharding.sharedmem import layout_sections

RNG_SEED = 0x5A4D

#: Two keys with one fingerprint and one primary block in a default
#: 8,192-slot BulkTCF: a delete of either can remove the other's slot.
COLLIDING_A = 5765488047046174022
COLLIDING_B = 92134227331400869


def make_keys(n: int, seed: int = RNG_SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    keys = np.unique(
        rng.integers(1, np.iinfo(np.int64).max, size=2 * n, dtype=np.int64)
    )[:n].astype(np.uint64)
    rng.shuffle(keys)
    return keys


def leaked_segments() -> list:
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux host
        return []
    return sorted(p.name for p in shm_dir.glob("repro-shard-*"))


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = set(leaked_segments())
    yield
    after = set(leaked_segments())
    assert after <= before, f"leaked shared-memory segments: {sorted(after - before)}"


# --------------------------------------------------------------------- router
class TestRouter:
    def test_shard_ids_deterministic_and_in_range(self):
        keys = make_keys(5_000)
        ids_a = shard_ids(keys, 4)
        ids_b = shard_ids(keys, 4)
        assert np.array_equal(ids_a, ids_b)
        assert ids_a.min() >= 0 and ids_a.max() < 4

    def test_shard_ids_depend_on_seed(self):
        keys = make_keys(2_000)
        assert not np.array_equal(
            shard_ids(keys, 8, seed=1), shard_ids(keys, 8, seed=2)
        )

    def test_routing_is_reasonably_balanced(self):
        keys = make_keys(40_000)
        counts = np.bincount(shard_ids(keys, 4), minlength=4)
        assert counts.max() / counts.mean() < 1.05

    def test_partition_is_stable_per_shard(self):
        keys = make_keys(3_000)
        ids = shard_ids(keys, 4)
        order, offsets = partition(keys, 4)
        for i in range(4):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            shard_positions = order[lo:hi]
            # Stable: each shard sees its keys in the caller's order.
            assert np.all(np.diff(shard_positions) > 0)
            assert np.array_equal(keys[shard_positions], keys[ids == i])

    def test_one_shard_partition_is_identity(self):
        keys = make_keys(257)
        order, offsets = partition(keys, 1)
        assert np.array_equal(order, np.arange(keys.size))
        assert list(offsets) == [0, keys.size]


# ------------------------------------------------------- differential parity
class TestDifferentialParity:
    def test_one_shard_gqf_is_bit_exact(self):
        keys = make_keys(4_000)
        plain_rec = StatsRecorder()
        plain = BulkGQF(quotient_bits=13, recorder=plain_rec)
        plain_before = dict(plain_rec.total.as_dict())
        plain.bulk_insert(keys)
        plain_events = {
            k: v - plain_before.get(k, 0)
            for k, v in plain_rec.total.as_dict().items()
        }

        sharded = sharded_gqf(1, quotient_bits=13, max_workers=0)
        sharded_before = dict(sharded.recorder.total.as_dict())
        try:
            sharded.bulk_insert(keys)
            sharded_events = {
                k: v - sharded_before.get(k, 0)
                for k, v in sharded.recorder.total.as_dict().items()
            }
            plain_state = plain.snapshot_state()
            sharded_state = sharded.snapshot_state()
            assert set(sharded_state) == {f"shard0/{k}" for k in plain_state}
            for name, array in plain_state.items():
                assert np.array_equal(sharded_state[f"shard0/{name}"], array), name
            assert sharded_events == plain_events
            assert sharded.n_items == plain.n_items
        finally:
            sharded.close()

    @pytest.mark.parametrize("auto_resize", [False, True], ids=["fixed", "journaled"])
    def test_one_shard_tcf_is_bit_exact(self, auto_resize):
        keys = make_keys(3_000)
        values = (keys >> np.uint64(7)) & np.uint64(0xFF)
        plain = BulkTCF(n_slots=8_192, recorder=StatsRecorder(), auto_resize=auto_resize)
        sharded = sharded_tcf(1, n_slots=8_192, max_workers=0, auto_resize=auto_resize)
        try:
            for filt in (plain, sharded):
                # At 8,192 slots B shares A's fingerprint and primary block:
                # deleting B removes A's slot, so deleting A then finds none.
                # Both requests drop their own journal copy, if any.
                filt.bulk_insert([COLLIDING_A])
                assert filt.bulk_delete([COLLIDING_B]) == 1
                assert filt.bulk_delete([COLLIDING_A]) == 0
                filt.bulk_insert(keys, values)
            plain_state = plain.snapshot_state()
            sharded_state = sharded.snapshot_state()
            assert set(sharded_state) == {f"shard0/{name}" for name in plain_state}
            for name, array in plain_state.items():
                assert np.array_equal(sharded_state[f"shard0/{name}"], array), name
        finally:
            sharded.close()

    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
    def test_point_delete_drops_the_requested_keys_journal_copy(self, sharded):
        # A point delete follows the bulk rule: deleting A after B took its
        # slot finds nothing but still drops A's copy, so growth cannot
        # bring back a key the caller deleted.
        if sharded:
            filt = sharded_tcf(1, n_slots=8_192, max_workers=0, auto_resize=True)
        else:
            filt = BulkTCF(n_slots=8_192, auto_resize=True)
        try:
            filt.insert(COLLIDING_A)
            assert filt.delete(COLLIDING_B)
            assert not filt.delete(COLLIDING_A)
            filt.grow()
            assert not filt.query(COLLIDING_A)
        finally:
            if sharded:
                filt.close()

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_each_shard_matches_unsharded_fed_its_keys(self, n_shards):
        keys = make_keys(6_000)
        sharded = sharded_gqf(n_shards, quotient_bits=12, max_workers=0)
        try:
            sharded.bulk_insert(keys)
            order, offsets = partition(keys, n_shards, sharded.router_seed)
            routed = keys[order]
            for i in range(n_shards):
                reference = BulkGQF(quotient_bits=12, recorder=StatsRecorder())
                reference.bulk_insert(routed[int(offsets[i]) : int(offsets[i + 1])])
                ref_state = reference.snapshot_state()
                twin_state = sharded._twins[i].snapshot_state()
                for name, array in ref_state.items():
                    assert np.array_equal(twin_state[name], array), (i, name)
        finally:
            sharded.close()

    def test_query_count_delete_parity(self):
        """Sharded reads/deletes equal a composition of per-shard references.

        A 4-shard filter's fingerprint space differs from one big filter's
        (fewer quotient bits per shard), so the exact oracle is N unsharded
        filters each fed that shard's routed keys — not one big filter.
        """
        n_shards = 4
        keys = make_keys(2_500)
        absent = make_keys(2_500, seed=999)
        probe = np.concatenate([keys, absent])
        sharded = sharded_gqf(n_shards, quotient_bits=11, max_workers=0)
        try:
            sharded.bulk_insert(keys)
            order, offsets = partition(keys, n_shards, sharded.router_seed)
            routed = keys[order]
            refs = []
            for i in range(n_shards):
                ref = BulkGQF(quotient_bits=11, recorder=StatsRecorder())
                ref.bulk_insert(routed[int(offsets[i]) : int(offsets[i + 1])])
                refs.append(ref)

            def composed(op, batch, dtype):
                out = np.zeros(batch.size, dtype=dtype)
                p_order, p_offsets = partition(batch, n_shards, sharded.router_seed)
                p_routed = batch[p_order]
                parts = [
                    getattr(refs[i], op)(
                        p_routed[int(p_offsets[i]) : int(p_offsets[i + 1])]
                    )
                    for i in range(n_shards)
                ]
                out[p_order] = np.concatenate(parts)
                return out

            assert np.array_equal(
                sharded.bulk_query(probe), composed("bulk_query", probe, bool)
            )
            assert np.array_equal(
                sharded.bulk_count(probe), composed("bulk_count", probe, np.int64)
            )
            victims = keys[::3]
            expected_removed = sum(
                int(
                    refs[i].bulk_delete(
                        victims[
                            shard_ids(victims, n_shards, sharded.router_seed) == i
                        ]
                    )
                )
                for i in range(n_shards)
            )
            assert sharded.bulk_delete(victims) == expected_removed
            assert np.array_equal(
                sharded.bulk_query(keys), composed("bulk_query", keys, bool)
            )
        finally:
            sharded.close()

    def test_bulk_insert_mask_returns_caller_order(self):
        keys = make_keys(2_000)
        sharded = sharded_gqf(4, quotient_bits=11, max_workers=0)
        try:
            mask = sharded.bulk_insert_mask(keys)
            assert mask.shape == keys.shape
            assert mask.all()
            assert sharded.bulk_query(keys).all()
            # n_items counts distinct fingerprints; rare collisions merge.
            assert sharded.n_items >= int(0.99 * keys.size)
        finally:
            sharded.close()

    def test_point_ops_agree_with_bulk(self):
        keys = make_keys(600)
        sharded = sharded_gqf(2, quotient_bits=11, max_workers=0)
        try:
            for key in keys[:50].tolist():
                assert sharded.insert(key)
            assert sharded.bulk_query(keys[:50]).all()
            assert sharded.query(int(keys[0]))
            assert sharded.count(int(keys[0])) == 1
            assert sharded.delete(int(keys[0]))
            assert not sharded.query(int(keys[0]))
        finally:
            sharded.close()

    def test_empty_batches_are_noops(self):
        empty = np.zeros(0, dtype=np.uint64)
        sharded = sharded_gqf(2, quotient_bits=10, max_workers=0)
        try:
            assert sharded.bulk_insert(empty) == 0
            assert sharded.bulk_query(empty).size == 0
            assert sharded.bulk_delete(empty) == 0
            assert sharded.bulk_insert_mask(empty).size == 0
        finally:
            sharded.close()


# -------------------------------------------------------------- pool execution
class TestPoolExecution:
    def test_pool_matches_inline_state(self):
        keys = make_keys(4_000)
        inline = sharded_gqf(2, quotient_bits=12, max_workers=0)
        pooled = sharded_gqf(2, quotient_bits=12, max_workers=2)
        try:
            inline.bulk_insert(keys)
            pooled.warm_up()
            pooled.bulk_insert(keys)
            inline_state = inline.snapshot_state()
            pooled_state = pooled.snapshot_state()
            assert set(inline_state) == set(pooled_state)
            for name, array in inline_state.items():
                assert np.array_equal(pooled_state[name], array), name
            assert pooled.bulk_query(keys).all()
        finally:
            inline.close()
            pooled.close()

        # 8 shards on 2 workers: four shards per worker, sent one per round,
        # through warm query/count/delete tasks.
        keys = make_keys(200_000)
        probe = np.concatenate([keys[:50_000], make_keys(20_000, seed=RNG_SEED + 1)])
        inline = sharded_gqf(8, quotient_bits=15, max_workers=0)
        pooled = sharded_gqf(8, quotient_bits=15, max_workers=2)
        try:
            for filt in (inline, pooled):
                filt.bulk_insert(keys[:150_000])
                filt.bulk_insert(keys[150_000:])
            assert np.array_equal(pooled.bulk_query(probe), inline.bulk_query(probe))
            assert np.array_equal(pooled.bulk_count(probe), inline.bulk_count(probe))
            assert pooled.bulk_delete(keys[:20_000]) == inline.bulk_delete(keys[:20_000])
            assert np.array_equal(pooled.bulk_count(probe), inline.bulk_count(probe))
            inline_state = inline.snapshot_state()
            pooled_state = pooled.snapshot_state()
            assert set(inline_state) == set(pooled_state)
            for name, array in inline_state.items():
                assert np.array_equal(pooled_state[name], array), name
            assert pooled.worker_restarts == 0
        finally:
            inline.close()
            pooled.close()

    def test_worker_event_deltas_merge_into_parent(self):
        keys = make_keys(3_000)
        pooled = sharded_gqf(2, quotient_bits=12, max_workers=2)
        try:
            before = dict(pooled.recorder.total.as_dict())
            pooled.bulk_insert(keys)
            delta = {
                k: v - before.get(k, 0)
                for k, v in pooled.recorder.total.as_dict().items()
            }
            # The inline twins recorded nothing (the work ran in workers);
            # the merged deltas must still carry the hardware events.
            assert delta.get("cache_line_writes", 0) > 0
            assert delta.get("items_sorted", 0) == keys.size
        finally:
            pooled.close()

    def test_values_round_trip_through_workers(self):
        keys = make_keys(2_000)
        values = (keys >> np.uint64(5)) & np.uint64(0xFF)
        config = dataclasses.replace(
            BULK_TCF_DEFAULT, block_size=32, cg_size=16, value_bits=8
        )
        pooled = sharded_tcf(2, n_slots=8_192, config=config, max_workers=2)
        try:
            pooled.bulk_insert(keys, values)
            assert pooled.bulk_query(keys).all()
            sample = keys[:32]
            for key, value in zip(sample.tolist(), values[:32].tolist()):
                assert pooled.get_value(key) == value
        finally:
            pooled.close()


# ------------------------------------------------------------ warm shard twins
def _build(kind: str, max_workers: int) -> ShardedFilter:
    if kind == "gqf":
        return sharded_gqf(2, quotient_bits=11, max_workers=max_workers)
    # A TCF shard can only rebalance from its key journal.
    return sharded_tcf(2, n_slots=2_048, max_workers=max_workers, auto_resize=True)


def _reads(filt: ShardedFilter, keys: np.ndarray) -> tuple:
    """``bulk_query`` (and ``bulk_count`` where the shards count) of ``keys``."""
    found = filt.bulk_query(keys).tolist()
    if not filt.inner_capabilities.supports("count", "bulk"):
        return found, None
    return found, filt.bulk_count(keys).tolist()


def _cold_reads(filt: ShardedFilter, keys: np.ndarray) -> tuple:
    """The same reads on a fresh inline copy of ``filt``: no memo survives."""
    config = dict(filt.snapshot_config(), max_workers=0)
    cold = ShardedFilter._from_snapshot_config(config)
    try:
        cold.restore_state(filt.snapshot_state())
        return _reads(cold, keys)
    finally:
        cold.close()


class TestWarmTwins:
    """A twin keeps its memoised decode only while nobody changed its shard."""

    @pytest.mark.parametrize("max_workers", [0, 2], ids=["inline", "pool"])
    @pytest.mark.parametrize("kind", ["gqf", "tcf"])
    def test_parent_writes_reach_warm_twins(self, kind, max_workers, tmp_path):
        keys = make_keys(900)
        base, added = keys[:600], keys[600:700]
        filt = _build(kind, max_workers)
        loaded = None
        try:
            filt.bulk_insert(base)
            snapshot = filt.snapshot_state()
            at_snapshot = _reads(filt, keys)  # also warms every twin
            assert at_snapshot == _cold_reads(filt, keys)

            for key in added.tolist():
                assert filt.insert(key)
            found, counts = _reads(filt, added)
            assert all(found)
            assert counts is None or min(counts) >= 1
            assert _reads(filt, keys) == _cold_reads(filt, keys)

            before = _reads(filt, base[:50])
            for key in base[:50].tolist():
                assert filt.delete(key)
            after = _reads(filt, base[:50])
            if before[1] is not None:
                assert after[1] == [c - 1 for c in before[1]]
            assert _reads(filt, keys) == _cold_reads(filt, keys)

            filt.restore_state(snapshot)
            assert _reads(filt, keys) == at_snapshot

            save_shard_set(filt, tmp_path / "set")
            for key in added.tolist():
                filt.insert(key)
            loaded = load_shard_set(tmp_path / "set")
            assert _reads(loaded, keys) == at_snapshot
            for i in range(filt.n_shards):
                # The raw sections, a TCF shard's journal_* included.
                filt.restore_shard(i, read_snapshot(tmp_path / "set" / f"shard{i}.rpro")[1])
            assert _reads(filt, keys) == at_snapshot

            filt.grow()
            for key in added.tolist():
                filt.insert(key)
            found, counts = _reads(filt, keys[:700])
            assert all(found)
            assert counts is None or min(counts) >= 1
            assert _reads(filt, keys) == _cold_reads(filt, keys)
        finally:
            filt.close()
            if loaded is not None:
                loaded.close()

    def test_unchanged_shards_skip_the_refresh(self):
        keys = make_keys(4_000)
        filt = sharded_gqf(2, quotient_bits=12, max_workers=2)
        refreshed = []
        dispatch = filt._dispatch

        def spy(op, batches):
            outs = dispatch(op, batches)
            refreshed.append((op, sorted(bool(r["refreshed"]) for r in outs.values())))
            return outs

        filt._dispatch = spy
        try:
            filt.bulk_insert(keys)
            filt.bulk_query(keys)
            filt.bulk_count(keys)
            filt.bulk_delete(keys[:500])
            filt.bulk_query(keys)
            filt.insert(int(keys[0]))  # a parent write: only its shard refreshes
            filt.bulk_query(keys)
        finally:
            filt.close()
        # The insert attaches fresh twins; everything after it is warm.
        assert refreshed == [
            ("insert", [True, True]),
            ("query", [False, False]),
            ("count", [False, False]),
            ("delete", [False, False]),
            ("query", [False, False]),
            ("query", [False, True]),
        ]

    def test_worker_exceptions_reach_the_caller(self):
        filt = sharded_gqf(2, quotient_bits=11, max_workers=2)
        keys = make_keys(1_000)
        try:
            filt.bulk_insert(keys)
            batches = {i: (keys[:10], None) for i in range(filt.n_shards)}
            with pytest.raises(ValueError, match="unknown shard operation"):
                filt._dispatch("bogus", batches)
            # Every reply was read: the pipes stay in step.
            assert filt.bulk_query(keys).all()
            assert filt.worker_restarts == 0
        finally:
            filt.close()


# ------------------------------------------------------------------ rebalance
class TestRebalance:
    def test_manual_rebalance_round_trips(self):
        keys = make_keys(1_500)
        sharded = sharded_gqf(2, quotient_bits=11, max_workers=0)
        try:
            sharded.bulk_insert(keys)
            slots_before = sharded.n_slots
            sharded.grow()
            assert sharded.n_slots > slots_before
            assert sharded.n_resizes == 2
            assert sharded.bulk_query(keys).all()
            assert sharded.n_items >= int(0.99 * keys.size)
        finally:
            sharded.close()

    def test_gqf_auto_resize_expands_under_pressure(self):
        keys = make_keys(3_000)
        sharded = sharded_gqf(2, quotient_bits=9, max_workers=0, auto_resize=True)
        try:
            assert sharded.bulk_insert(keys) == keys.size
            assert sharded.n_resizes > 0
            assert sharded.bulk_query(keys).all()
        finally:
            sharded.close()

    def test_gqf_bulk_insert_mask_grows_like_bulk_insert(self):
        keys = make_keys(3_000)
        masked = sharded_gqf(2, quotient_bits=9, max_workers=0, auto_resize=True)
        counted = sharded_gqf(2, quotient_bits=9, max_workers=0, auto_resize=True)
        try:
            assert masked.bulk_insert_mask(keys).all()
            assert counted.bulk_insert(keys) == keys.size
            assert masked.n_resizes == counted.n_resizes > 0
            masked_state, counted_state = masked.snapshot_state(), counted.snapshot_state()
            assert masked_state.keys() == counted_state.keys()
            for name, array in counted_state.items():
                assert np.array_equal(masked_state[name], array), name
        finally:
            masked.close()
            counted.close()

    def test_full_gqf_shard_is_expanded_and_sent_only_left_out_keys(self):
        # Heavy counts take several slots per key, more than the pre-growth
        # projection allows for: the shard fills mid-batch, is expanded, and
        # gets only the keys it left out, so every count stays exact.
        keys = make_keys(300)
        values = np.full(keys.size, 100, dtype=np.uint64)
        sharded = sharded_gqf(1, quotient_bits=9, max_workers=0, auto_resize=True)
        try:
            assert sharded.bulk_insert_mask(keys, values).all()
            assert sharded.n_resizes > 0
            assert sharded.merged().total_count == 100 * keys.size
        finally:
            sharded.close()

    def test_full_tcf_shard_journals_each_key_once(self):
        keys = make_keys(1_000)
        sharded = sharded_tcf(
            1, n_slots=1_024, max_workers=0, auto_resize=True, auto_resize_at=1.0
        )
        try:
            assert sharded.bulk_insert(keys) == keys.size
            assert sharded.n_resizes == 1  # not pre-grown: the shard filled
            assert len(sharded._twins[0]._journal) == keys.size
            assert sharded.bulk_query(keys).all()
        finally:
            sharded.close()

    def test_tcf_auto_resize_replays_journal(self):
        keys = make_keys(3_000)
        values = keys & np.uint64(0xFF)
        sharded = sharded_tcf(2, n_slots=1_024, max_workers=0, auto_resize=True)
        try:
            assert all(twin._journal is not None for twin in sharded._twins)
            assert sharded.bulk_insert(keys, values) == keys.size
            assert sharded.n_resizes > 0
            assert sharded.bulk_query(keys).all()
        finally:
            sharded.close()

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_merged_grown_tcf_takes_the_journal_merge(self, n_shards):
        # The twins hold the journals, so the merge replays every key into
        # one larger table instead of overflowing a same-geometry merge, and
        # the merged filter keeps a journal to grow from.
        keys = np.random.default_rng(3).integers(2, 2**63, size=3_000, dtype=np.uint64)
        sharded = sharded_tcf(
            n_shards, n_slots=2_048 // n_shards, max_workers=0, auto_resize=True
        )
        try:
            sharded.bulk_insert(keys)
            slots = [twin.table.n_slots for twin in sharded._twins]
            assert slots == [4_096 // n_shards] * n_shards
            merged = sharded.merged()
        finally:
            sharded.close()
        assert isinstance(merged, BulkTCF)
        assert merged.table.n_slots == 4_096
        assert len(merged._journal) == keys.size
        assert merged.bulk_query(keys).all()

    def test_grown_tcf_segments_hold_no_journal(self):
        # A shard's journal stays on its twin's heap: a grown segment is
        # exactly the size of a fresh, unjournaled shard of its geometry.
        sharded = sharded_tcf(2, n_slots=1_024, max_workers=0, auto_resize=True)
        try:
            sharded.bulk_insert(make_keys(2_000))
            assert sharded.n_resizes > 0
            for i, twin in enumerate(sharded._twins):
                assert len(twin._journal) > 0
                fresh = BulkTCF._from_snapshot_config(sharded._configs[i])
                assert fresh._journal is None
                assert sharded._stores[i].nbytes == layout_sections(fresh.snapshot_state())[1]
        finally:
            sharded.close()

    def test_without_auto_resize_full_shard_raises_with_occupancy(self):
        keys = make_keys(2_000)
        sharded = sharded_gqf(1, quotient_bits=9, max_workers=0)
        try:
            with pytest.raises(FilterFullError) as excinfo:
                sharded.bulk_insert(keys)
            assert excinfo.value.n_slots > 0
            assert excinfo.value.load_factor > 0
        finally:
            sharded.close()

    def test_point_insert_grows_a_full_tcf_shard(self):
        # At a threshold of 1.0 the pre-growth never fires before a TCF
        # block overflows: the point insert itself must grow the shard and
        # retry, as the bulk path and an unsharded auto-resizing TCF do.
        keys = np.random.default_rng(1).integers(0, 2**63, size=3_000, dtype=np.uint64)
        sharded = sharded_tcf(
            1, n_slots=1_024, max_workers=0, auto_resize=True, auto_resize_at=1.0
        )
        try:
            for key in keys.tolist():
                assert sharded.insert(key)
            assert sharded.n_resizes > 0
            assert len(sharded._twins[0]._journal) == keys.size
            assert sharded.bulk_query(keys).all()
        finally:
            sharded.close()


# ------------------------------------------------------------------ snapshots
class TestSnapshots:
    def test_single_file_save_load_round_trip(self, tmp_path):
        keys = make_keys(2_000)
        sharded = sharded_gqf(2, quotient_bits=11, max_workers=0)
        try:
            sharded.bulk_insert(keys)
            state_before = sharded.snapshot_state()
            sharded.save(tmp_path / "sharded.rpro")
        finally:
            sharded.close()
        restored = load_filter(tmp_path / "sharded.rpro")
        try:
            assert isinstance(restored, ShardedFilter)
            restored_state = restored.snapshot_state()
            for name, array in state_before.items():
                assert np.array_equal(restored_state[name], array), name
            assert restored.bulk_query(keys).all()
        finally:
            restored.close()

    def test_shard_set_round_trip_gqf(self, tmp_path):
        keys = make_keys(3_000)
        sharded = sharded_gqf(4, quotient_bits=10, max_workers=0)
        try:
            sharded.bulk_insert(keys)
            state_before = sharded.snapshot_state()
            manifest = save_shard_set(sharded, tmp_path / "set")
        finally:
            sharded.close()
        assert len(manifest["shards"]) == 4
        assert (tmp_path / "set" / "manifest.json").exists()
        restored = load_shard_set(tmp_path / "set")
        try:
            restored_state = restored.snapshot_state()
            for name, array in state_before.items():
                assert np.array_equal(restored_state[name], array), name
        finally:
            restored.close()

    def test_shard_set_preserves_tcf_journal(self, tmp_path):
        keys = make_keys(2_000)
        sharded = sharded_tcf(2, n_slots=2_048, max_workers=0, auto_resize=True)
        try:
            sharded.bulk_insert(keys)
            journal_sizes = [len(twin._journal) for twin in sharded._twins]
            save_shard_set(sharded, tmp_path / "set")
        finally:
            sharded.close()
        restored = load_shard_set(tmp_path / "set")
        try:
            assert [len(twin._journal) for twin in restored._twins] == journal_sizes
            assert restored.bulk_query(keys).all()
            # The journal is live: a further growth must replay correctly.
            restored.grow()
            assert restored.bulk_query(keys).all()
        finally:
            restored.close()

    def test_shard_set_fsyncs_key_journals_before_the_manifest(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        sharded = sharded_tcf(2, n_slots=2_048, max_workers=0, auto_resize=True)
        try:
            sharded.bulk_insert(make_keys(500))
            monkeypatch.setattr(os, "fsync", spy)
            save_shard_set(sharded, tmp_path / "set")
        finally:
            sharded.close()
        manifest_sync = synced.index((tmp_path / "set" / "manifest.json").stat().st_ino)
        for entry in read_manifest(tmp_path / "set")["shards"]:
            shard_inode = (tmp_path / "set" / entry["file"]).stat().st_ino
            assert synced.index(shard_inode) < manifest_sync

    def test_missing_manifest_is_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="no shard-set manifest"):
            read_manifest(tmp_path)

    def test_corrupt_manifest_is_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b"{not json")
        with pytest.raises(SnapshotError, match="corrupt"):
            read_manifest(tmp_path)

    def test_wrong_version_is_rejected(self, tmp_path):
        sharded = sharded_gqf(1, quotient_bits=9, max_workers=0)
        try:
            manifest = save_shard_set(sharded, tmp_path)
        finally:
            sharded.close()
        # Version 1 kept TCF journals in separate files: refused, not
        # loaded without them.
        for version in (1, 999):
            manifest["version"] = version
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(SnapshotError, match=f"version {version} "):
                read_manifest(tmp_path)

    def test_shard_count_mismatch_is_rejected(self, tmp_path):
        sharded = sharded_gqf(2, quotient_bits=9, max_workers=0)
        try:
            manifest = save_shard_set(sharded, tmp_path)
        finally:
            sharded.close()
        manifest["shards"] = manifest["shards"][:1]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="1 shard files for 2 shards"):
            read_manifest(tmp_path)

    def test_wrong_shard_class_is_rejected(self, tmp_path):
        sharded = sharded_gqf(1, quotient_bits=9, max_workers=0)
        try:
            save_shard_set(sharded, tmp_path)
        finally:
            sharded.close()
        # Overwrite shard 0 with a snapshot of a different filter class.
        impostor = BulkTCF(n_slots=512, recorder=StatsRecorder())
        impostor.save(tmp_path / "shard0.rpro")
        with pytest.raises(SnapshotError, match="expected"):
            load_shard_set(tmp_path)


# ------------------------------------------------------------- fault recovery
class TestFaultRecovery:
    def test_worker_kill_is_retried_transparently(self):
        keys = make_keys(2_000)
        faults = FaultInjector(FaultConfig(seed=7, shard_worker_kill_rate=1.0))
        sharded = sharded_gqf(2, quotient_bits=11, max_workers=2, faults=faults)
        clean = sharded_gqf(2, quotient_bits=11, max_workers=0)
        try:
            assert sharded.bulk_insert(keys) == keys.size
            assert faults.fired.get("shard_worker_kill", 0) > 0
            assert sharded.worker_restarts > 0
            assert sharded.bulk_query(keys).all()
            # The kill fires pre-mutation, so the retry is exact: the
            # faulted run's table state equals an unfaulted run's.
            clean.bulk_insert(keys)
            faulted_state = sharded.snapshot_state()
            for name, array in clean.snapshot_state().items():
                assert np.array_equal(faulted_state[name], array), name
        finally:
            sharded.close()
            clean.close()

    def test_killed_workers_are_replaced_and_close_reaps_them(self):
        keys = make_keys(4_000)
        faults = FaultInjector(FaultConfig(seed=7, shard_worker_kill_rate=1.0))
        sharded = sharded_gqf(4, quotient_bits=11, max_workers=2, faults=faults)
        clean = sharded_gqf(4, quotient_bits=11, max_workers=0)
        before = set(leaked_segments())
        try:
            assert sharded.bulk_insert(keys) == clean.bulk_insert(keys)
            # Each worker died on its first shard and was replaced once; its
            # queued shards ran, like the killed ones, on the one retry.
            assert sharded.worker_restarts == 2
            faulted_state = sharded.snapshot_state()
            for name, array in clean.snapshot_state().items():
                assert np.array_equal(faulted_state[name], array), name
            pids = [w.process.pid for w in sharded._workers if w is not None]
            assert len(pids) == 2
        finally:
            sharded.close()
            clean.close()
        assert not {p.pid for p in multiprocessing.active_children()} & set(pids)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert set(leaked_segments()) <= before

    def test_a_second_death_gives_up(self, monkeypatch):
        keys = make_keys(1_000)
        sharded = sharded_gqf(2, quotient_bits=11, max_workers=2)
        task_spec = sharded._task_spec
        try:
            monkeypatch.setattr(
                sharded, "_task_spec", lambda i, op, kill: dict(task_spec(i, op, kill), kill=True)
            )
            with pytest.raises(RuntimeError, match="died twice"):
                sharded.bulk_insert(keys)
            assert sharded.worker_restarts == 4
            monkeypatch.undo()
            # The kills fired before any mutation; fresh workers carry on.
            assert sharded.bulk_insert(keys) == keys.size
            assert sharded.bulk_query(keys).all()
        finally:
            sharded.close()

    def test_clean_runs_never_fire_the_fault(self):
        keys = make_keys(500)
        faults = FaultInjector(FaultConfig(seed=7, shard_worker_kill_rate=0.0))
        sharded = sharded_gqf(2, quotient_bits=11, max_workers=2, faults=faults)
        try:
            sharded.bulk_insert(keys)
            assert faults.fired.get("shard_worker_kill", 0) == 0
            assert sharded.worker_restarts == 0
        finally:
            sharded.close()


# ------------------------------------------------------------------- teardown
class TestTeardown:
    def test_close_unlinks_segments_and_is_idempotent(self):
        before = set(leaked_segments())
        sharded = sharded_gqf(2, quotient_bits=10, max_workers=0)
        assert len(set(leaked_segments()) - before) == 2
        sharded.close()
        assert set(leaked_segments()) <= before
        sharded.close()  # idempotent
        assert sharded.closed

    def test_operations_after_close_raise(self):
        sharded = sharded_gqf(1, quotient_bits=9, max_workers=0)
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.bulk_insert(make_keys(10))
        with pytest.raises(RuntimeError, match="closed"):
            sharded.query(1)

    def test_dropping_the_filter_reclaims_segments(self):
        before = set(leaked_segments())
        sharded = sharded_gqf(1, quotient_bits=9, max_workers=0)
        del sharded
        assert set(leaked_segments()) <= before


# ----------------------------------------------------------------- service
class TestServiceIntegration:
    def test_registry_close_resident_snapshots_then_unlinks(self, tmp_path):
        keys = make_keys(1_000)
        before = set(leaked_segments())
        registry = FilterRegistry(tmp_path)
        registry.get_or_create(
            "tenant", lambda: sharded_gqf(2, quotient_bits=11, max_workers=0)
        )
        with registry.acquire("tenant") as entry:
            with entry.op_lock:
                entry.filt.bulk_insert(keys)
        registry.close_resident()
        assert set(leaked_segments()) <= before
        assert (tmp_path / "tenant.rpro").exists()
        # The snapshot is adopted: the next acquire restores from disk.
        with registry.acquire("tenant") as entry:
            with entry.op_lock:
                filt = registry.ensure_resident(entry)
                assert filt.bulk_query(keys).all()
                filt.close()


# ------------------------------------------------------------- construction
class TestConstruction:
    def test_inner_class_by_dotted_name(self):
        sharded = ShardedFilter(
            2, "repro.core.gqf.bulk_gqf:BulkGQF", {"quotient_bits": 9}, max_workers=0
        )
        try:
            assert sharded.n_shards == 2
        finally:
            sharded.close()

    def test_rejects_inner_without_adoption_hooks(self):
        from repro.baselines import BloomFilter

        with pytest.raises(TypeError, match="adopt_state|bulk insert"):
            ShardedFilter(2, BloomFilter, {"n_bits": 1024, "n_hashes": 2})

    def test_rejects_bad_shard_counts_and_thresholds(self):
        with pytest.raises(ValueError, match="n_shards"):
            sharded_gqf(0, quotient_bits=9)
        with pytest.raises(ValueError, match="auto_resize_at"):
            sharded_gqf(1, quotient_bits=9, auto_resize=True, auto_resize_at=1.5)

    def test_shards_never_auto_resize_internally(self):
        sharded = sharded_gqf(
            2, quotient_bits=9, max_workers=0, auto_resize=True
        )
        try:
            assert all(cfg["auto_resize"] is False for cfg in sharded._configs)
            assert all(not twin.auto_resize for twin in sharded._twins)
        finally:
            sharded.close()

    def test_builders_produce_expected_inner_classes(self):
        g = sharded_gqf(1, quotient_bits=9, max_workers=0)
        t = sharded_tcf(1, n_slots=512, max_workers=0)
        try:
            assert g._inner_class is BulkGQF
            assert t._inner_class is BulkTCF
            config = TCFConfig(**{
                k: v for k, v in t.inner_config.items()
                if k in {f.name for f in dataclasses.fields(TCFConfig)}
            })
            assert isinstance(config, TCFConfig)
        finally:
            g.close()
            t.close()

    def test_router_seed_is_durable_identity(self, tmp_path):
        keys = make_keys(1_000)
        sharded = sharded_gqf(2, quotient_bits=10, max_workers=0, router_seed=42)
        try:
            sharded.bulk_insert(keys)
            sharded.save(tmp_path / "f.rpro")
        finally:
            sharded.close()
        restored = load_filter(tmp_path / "f.rpro")
        try:
            assert restored.router_seed == 42
            assert restored.bulk_query(keys).all()
        finally:
            restored.close()

    def test_default_router_seed_spells_shardflt(self):
        assert DEFAULT_ROUTER_SEED.to_bytes(8, "big") == b"ShardFLt"
