"""GPU Counting Quotient Filter (GQF) and its building blocks."""

from . import counters
from .bulk_gqf import BulkGQF
from .layout import DEFAULT_SLACK_SLOTS, METADATA_BITS_PER_SLOT, QuotientFilterCore
from .mapreduce import aggregate_batch
from .point_gqf import PointGQF
from .quotient_filter import QuotientFilter
from .rank_select import Bitvector, select64
from .regions import DEFAULT_REGION_SLOTS, RegionPartition

__all__ = [
    "counters",
    "BulkGQF",
    "DEFAULT_SLACK_SLOTS",
    "METADATA_BITS_PER_SLOT",
    "QuotientFilterCore",
    "aggregate_batch",
    "PointGQF",
    "QuotientFilter",
    "Bitvector",
    "select64",
    "DEFAULT_REGION_SLOTS",
    "RegionPartition",
]
