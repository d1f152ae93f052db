"""Process-parallel sharded filters (PR 10).

Hash-partitions one logical filter across N shard tables held in
``multiprocessing.shared_memory`` and runs bulk operations shard-parallel
on shard-affine worker processes — the multi-GPU/multi-rank usage shape of
the paper's MetaHipMer case study, rebuilt on host processes.
"""

from .router import DEFAULT_ROUTER_SEED, partition, shard_ids
from .sharded import ShardedFilter
from .sharedmem import SectionSpec, ShardStore, layout_sections
from .worker import KILL_EXIT_CODE, run_shard_task

__all__ = [
    "DEFAULT_ROUTER_SEED",
    "KILL_EXIT_CODE",
    "SectionSpec",
    "ShardStore",
    "ShardedFilter",
    "layout_sections",
    "partition",
    "run_shard_task",
    "shard_ids",
    "sharded_gqf",
    "sharded_tcf",
]


def sharded_gqf(
    n_shards,
    quotient_bits,
    remainder_bits=8,
    **kwargs,
):
    """Convenience builder: a ShardedFilter over BulkGQF shards.

    ``quotient_bits`` is per shard — size it ``lg(capacity) - lg(n_shards)``
    to hold a given logical capacity.
    """
    return ShardedFilter(
        n_shards,
        "repro.core.gqf.bulk_gqf:BulkGQF",
        {"quotient_bits": quotient_bits, "remainder_bits": remainder_bits},
        **kwargs,
    )


def sharded_tcf(n_shards, n_slots, config=None, **kwargs):
    """Convenience builder: a ShardedFilter over BulkTCF shards.

    ``n_slots`` is per shard; ``config`` (a :class:`TCFConfig` or its dict
    form) defaults to the same ``BULK_TCF_DEFAULT`` the unsharded
    :class:`BulkTCF` uses, keeping 1-shard differential parity bit-exact.
    """
    import dataclasses

    from ..core.tcf.bulk_tcf import BULK_TCF_DEFAULT
    from ..core.tcf.config import TCFConfig

    if config is None:
        config = BULK_TCF_DEFAULT
    if isinstance(config, TCFConfig):
        config = dataclasses.asdict(config)
    return ShardedFilter(
        n_shards,
        "repro.core.tcf.bulk_tcf:BulkTCF",
        {"n_slots": n_slots, "config": dict(config)},
        **kwargs,
    )
