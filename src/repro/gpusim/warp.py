"""Warps and cooperative groups.

The TCF's block operations (Algorithm 1 in the paper) are expressed in terms
of CUDA cooperative groups: the lanes of a group stride over a block in
parallel, ballot on which lanes found an empty slot, elect a leader with
``__ffs`` and let the leader attempt an ``atomicCAS``.

:class:`CooperativeGroup` reproduces that programming model.  The lanes are
simulated with vectorised NumPy operations over ``size`` elements, and the
intrinsics (``ballot``, ``ffs``) are counted so that the perf model
can reason about the compute/memory trade-off that Figure 5 sweeps (smaller
groups → more concurrent cache-line loads in flight, larger groups → fewer
divergent strides per block).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .stats import GLOBAL_RECORDER, StatsRecorder

#: Number of threads in a CUDA warp on every NVIDIA architecture we model.
WARP_SIZE = 32

#: Cooperative group sizes allowed by CUDA's ``tiled_partition``.
VALID_CG_SIZES = (1, 2, 4, 8, 16, 32)


def ffs(mask: int) -> int:
    """Find-first-set, CUDA semantics: 1-based index of the lowest set bit.

    Returns 0 when ``mask`` is zero (exactly like ``__ffs``).
    """
    mask = int(mask)
    if mask == 0:
        return 0
    return (mask & -mask).bit_length()


class CooperativeGroup:
    """A tile of ``size`` threads cooperating on one filter operation.

    The group exposes the subset of the CUDA cooperative-groups API the
    filters need:

    * :meth:`thread_rank` / :attr:`size`
    * :meth:`ballot` — returns a bitmask of lanes voting true
    * :meth:`elect_leader` — ``__ffs`` over a ballot
    * :meth:`strided_indices` — the classic ``rank; rank += size`` loop

    Lanes are simulated eagerly (vectorised), not with real threads.  Each
    intrinsic is recorded in the stats recorder.
    """

    def __init__(
        self,
        size: int,
        recorder: Optional[StatsRecorder] = None,
    ) -> None:
        if size not in VALID_CG_SIZES:
            raise ValueError(
                f"cooperative group size must be one of {VALID_CG_SIZES}, got {size}"
            )
        self.size = int(size)
        self.recorder = recorder if recorder is not None else GLOBAL_RECORDER

    # -- lane bookkeeping ---------------------------------------------------
    def thread_ranks(self) -> np.ndarray:
        """Ranks of every lane in the group (0..size-1)."""
        return np.arange(self.size, dtype=np.int64)

    def strided_indices(self, start: int, stop: int) -> Iterable[np.ndarray]:
        """Yield, per stride iteration, the indices each lane inspects.

        Mirrors ``for (i = rank; i < stop; i += size)`` executed by all lanes
        in lock step.  Iterations where some lanes run past ``stop`` are
        divergent and are counted as such.
        """
        stride_start = start
        while stride_start < stop:
            lane_indices = stride_start + self.thread_ranks()
            valid = lane_indices < stop
            if not np.all(valid):
                self.recorder.add(divergent_branches=1)
                lane_indices = lane_indices[valid]
            self.recorder.add(instructions=self.size)
            yield lane_indices
            stride_start += self.size

    # -- warp intrinsics ------------------------------------------------------
    def ballot(self, votes: np.ndarray) -> int:
        """Return the bitmask of lanes whose vote is truthy.

        ``votes`` may be shorter than the group size (trailing lanes
        implicitly vote false), matching a divergent tail stride.
        """
        votes = np.asarray(votes, dtype=bool)
        if votes.size > self.size:
            raise ValueError("more votes than lanes in the group")
        self.recorder.add(warp_intrinsics=1)
        mask = 0
        for lane, vote in enumerate(votes):
            if vote:
                mask |= 1 << lane
        return mask

    def elect_leader(self, ballot_mask: int) -> int:
        """Return the lane rank of the leader (lowest set bit), or -1."""
        self.recorder.add(warp_intrinsics=1, instructions=1)
        pos = ffs(ballot_mask)
        return pos - 1 if pos else -1

    def __repr__(self) -> str:  # pragma: no cover
        return f"CooperativeGroup(size={self.size})"
