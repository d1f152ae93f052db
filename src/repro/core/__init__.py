"""Core contribution of the paper: the TCF and GQF GPU filters."""

from .base import AbstractFilter, FilterCapabilities, FilterState
from .exceptions import (
    CapacityLimitError,
    DeletionError,
    FilterError,
    FilterFullError,
    SnapshotError,
    UnsupportedOperationError,
)
from .gqf import BulkGQF, PointGQF, QuotientFilterCore
from .tcf import BulkTCF, PointTCF, TCFConfig

__all__ = [
    "AbstractFilter",
    "FilterCapabilities",
    "FilterState",
    "CapacityLimitError",
    "DeletionError",
    "FilterError",
    "FilterFullError",
    "SnapshotError",
    "UnsupportedOperationError",
    "BulkGQF",
    "PointGQF",
    "QuotientFilterCore",
    "BulkTCF",
    "PointTCF",
    "TCFConfig",
]
