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

RNG_SEED = 0x5A4D


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

    def test_one_shard_tcf_is_bit_exact(self):
        keys = make_keys(3_000)
        values = (keys >> np.uint64(7)) & np.uint64(0xFF)
        plain = BulkTCF(n_slots=8_192, recorder=StatsRecorder())
        plain.bulk_insert(keys, values)

        sharded = sharded_tcf(1, n_slots=8_192, max_workers=0)
        try:
            sharded.bulk_insert(keys, values)
            plain_state = plain.snapshot_state()
            sharded_state = sharded.snapshot_state()
            for name, array in plain_state.items():
                assert np.array_equal(sharded_state[f"shard0/{name}"], array), name
        finally:
            sharded.close()

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


# ------------------------------------------------------------------ rebalance
class TestRebalance:
    def test_manual_rebalance_round_trips(self):
        keys = make_keys(1_500)
        sharded = sharded_gqf(2, quotient_bits=11, max_workers=0)
        try:
            sharded.bulk_insert(keys)
            slots_before = sharded.n_slots
            sharded.rebalance()
            assert sharded.n_slots > slots_before
            assert sharded.n_rebalances == 2
            assert sharded.bulk_query(keys).all()
            assert sharded.n_items >= int(0.99 * keys.size)
        finally:
            sharded.close()

    def test_gqf_auto_resize_expands_under_pressure(self):
        keys = make_keys(3_000)
        sharded = sharded_gqf(2, quotient_bits=9, max_workers=0, auto_resize=True)
        try:
            assert sharded.bulk_insert(keys) == keys.size
            assert sharded.n_rebalances > 0
            assert sharded.bulk_query(keys).all()
        finally:
            sharded.close()

    def test_tcf_auto_resize_replays_journal(self):
        keys = make_keys(3_000)
        values = keys & np.uint64(0xFF)
        sharded = sharded_tcf(2, n_slots=1_024, max_workers=0, auto_resize=True)
        try:
            assert sharded._journals is not None
            assert sharded.bulk_insert(keys, values) == keys.size
            assert sharded.n_rebalances > 0
            assert sharded.bulk_query(keys).all()
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

    def test_resized_hook_returns_self(self):
        sharded = sharded_gqf(2, quotient_bits=10, max_workers=0)
        try:
            assert sharded.resized(1) is sharded
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
            journal_sizes = [len(journal) for journal in sharded._journals]
            save_shard_set(sharded, tmp_path / "set")
        finally:
            sharded.close()
        manifest = read_manifest(tmp_path / "set")
        assert all("journal" in entry for entry in manifest["shards"])
        restored = load_shard_set(tmp_path / "set")
        try:
            assert [len(journal) for journal in restored._journals] == journal_sizes
            assert restored.bulk_query(keys).all()
            # The journal is live: a further rebalance must replay correctly.
            restored.rebalance()
            assert restored.bulk_query(keys).all()
        finally:
            restored.close()

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
        manifest["version"] = 999
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version 999"):
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

    def test_registry_replace_closes_the_old_filter(self, tmp_path):
        registry = FilterRegistry(tmp_path)
        registry.get_or_create(
            "tenant", lambda: sharded_gqf(1, quotient_bits=9, max_workers=0)
        )
        with registry.acquire("tenant") as entry:
            old = entry.filt
        replacement = sharded_gqf(1, quotient_bits=10, max_workers=0)
        registry.replace("tenant", replacement)
        assert old.closed
        replacement.close()


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
