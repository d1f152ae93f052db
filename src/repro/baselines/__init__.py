"""Baseline filters the paper compares against.

GPU baselines: the Bloom filter (BF), the blocked Bloom filter (BBF,
WarpCore-style), and Geil et al.'s standard and rank-select quotient filters
(SQF, RSQF).  CPU baselines (Table 4): the counting quotient filter (CQF) and
the vector quotient filter (VQF) on KNL.  The two Bloom filters share
:class:`BitArrayFilter`; the quotient filters share
:class:`~repro.core.gqf.QuotientFilter`.
"""

from .blocked_bloom import BlockedBloomFilter
from .bloom import BitArrayFilter, BloomFilter
from .cpu_cqf import KNL_THREADS, CPUCountingQuotientFilter
from .cpu_vqf import CPUVectorQuotientFilter
from .rsqf import RankSelectQuotientFilter
from .sqf import StandardQuotientFilter

__all__ = [
    "BitArrayFilter",
    "BlockedBloomFilter",
    "BloomFilter",
    "KNL_THREADS",
    "CPUCountingQuotientFilter",
    "CPUVectorQuotientFilter",
    "RankSelectQuotientFilter",
    "StandardQuotientFilter",
]
