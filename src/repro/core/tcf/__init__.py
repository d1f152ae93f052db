"""Two-Choice Filter (TCF): the paper's fast set-membership GPU filter."""

from .backing import BackingTable
from .block import BlockedTable
from .bulk_tcf import BulkTCF
from .config import (
    BULK_TCF_DEFAULT,
    EMPTY_SLOT,
    FIGURE5_CG_SIZES,
    FIGURE5_VARIANTS,
    GPU_CACHE_LINE_BYTES,
    POINT_TCF_DEFAULT,
    TOMBSTONE_SLOT,
    TCFConfig,
)
from .lifecycle import TwoChoiceFilter
from .point_tcf import PointTCF

__all__ = [
    "BackingTable",
    "BlockedTable",
    "BulkTCF",
    "BULK_TCF_DEFAULT",
    "EMPTY_SLOT",
    "FIGURE5_CG_SIZES",
    "FIGURE5_VARIANTS",
    "GPU_CACHE_LINE_BYTES",
    "POINT_TCF_DEFAULT",
    "TOMBSTONE_SLOT",
    "TCFConfig",
    "PointTCF",
    "TwoChoiceFilter",
]
