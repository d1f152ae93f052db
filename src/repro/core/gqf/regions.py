"""Region partitioning for GQF insertion (locking and even-odd phases).

The GQF divides its slots into fixed-size *regions* of 8192 slots.  The size
comes from the cluster-length bound: at a 95 % load factor the longest
cluster is (with high probability) shorter than 8192 slots, so

* a **point** insert that locks its own region *and the next one* can shift
  remainders freely without corrupting a neighbouring thread's region;
* a **bulk** insert that processes all *even* regions in one phase and all
  *odd* regions in a second phase gives every active thread exclusive access
  to ~16 K consecutive slots, eliminating locks entirely.

This module holds the partition both APIs share: the point GQF charges the
region locks of :meth:`~RegionPartition.regions_of`, and the bulk GQF splits
a batch into its even and odd phases with :meth:`~RegionPartition.phases`
and :meth:`~RegionPartition.phase_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Region size (in slots) used by the paper; bounded by the maximum cluster
#: length at 95 % load factor.
DEFAULT_REGION_SLOTS = 8192


@dataclass(frozen=True)
class RegionPartition:
    """A partition of ``n_slots`` canonical slots into fixed-size regions."""

    n_slots: int
    region_slots: int = DEFAULT_REGION_SLOTS

    def __post_init__(self) -> None:
        if self.n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if self.region_slots <= 0:
            raise ValueError("region_slots must be positive")

    @property
    def n_regions(self) -> int:
        """Number of regions (at least 1)."""
        return max(1, (self.n_slots + self.region_slots - 1) // self.region_slots)

    def region_bounds(self, region: int) -> Tuple[int, int]:
        """``[start, stop)`` slot bounds of a region (stop clamps to n_slots)."""
        if not 0 <= region < self.n_regions:
            raise IndexError(f"region {region} out of range")
        start = region * self.region_slots
        return start, min(self.n_slots, start + self.region_slots)

    def regions_of(self, slots: np.ndarray) -> np.ndarray:
        """Region index of each canonical slot."""
        slots = np.asarray(slots, dtype=np.int64)
        return slots // self.region_slots

    def even_regions(self) -> List[int]:
        """Indices of even regions (phase 1 of bulk insertion)."""
        return list(range(0, self.n_regions, 2))

    def odd_regions(self) -> List[int]:
        """Indices of odd regions (phase 2 of bulk insertion)."""
        return list(range(1, self.n_regions, 2))

    def phases(self) -> Tuple[List[int], List[int]]:
        """Both phases, even first."""
        return self.even_regions(), self.odd_regions()

    def phase_mask(self, quotients: np.ndarray, parity: int) -> np.ndarray:
        """Boolean mask of the quotients whose region has the given parity.

        The bulk even-odd scheme partitions a sorted batch into the items
        processed by phase 0 (even regions) and phase 1 (odd regions); this
        is the vectorised membership test for one phase.
        """
        if parity not in (0, 1):
            raise ValueError("parity must be 0 (even) or 1 (odd)")
        return (self.regions_of(quotients) & 1) == parity
