"""Count-distribution samplers used by the counting benchmarks.

Table 5 evaluates GQF counting on three synthetic distributions plus a
genomic dataset:

* **UR** — uniform-random items, essentially no duplicates;
* **UR count** — item counts drawn uniformly from [1, 100];
* **Zipfian count** — item counts drawn from a Zipfian distribution with
  coefficient 1.5 over a universe the same size as the dataset.

This module provides the samplers (a bounded Zipfian needs care: NumPy's
``zipf`` is unbounded, so we sample from the normalised truncated power law
directly).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def zipfian_weights(universe_size: int, coefficient: float = 1.5) -> np.ndarray:
    """Normalised Zipf(``coefficient``) probabilities over ranks 1..universe.

    ``p(rank) ∝ rank^-coefficient``.
    """
    if universe_size <= 0:
        raise ValueError("universe_size must be positive")
    if coefficient <= 0:
        raise ValueError("coefficient must be positive")
    ranks = np.arange(1, universe_size + 1, dtype=np.float64)
    weights = ranks ** (-coefficient)
    weights /= weights.sum()
    return weights


def sample_zipfian_ranks(
    n_samples: int,
    universe_size: int,
    coefficient: float = 1.5,
    seed: int = 0,
) -> np.ndarray:
    """Draw ``n_samples`` ranks (0-based) from a truncated Zipfian.

    Uses inverse-CDF sampling on the exact truncated distribution so the head
    of the distribution (the hot items that cause GQF contention) is
    faithfully represented even for small sample counts.
    """
    weights = zipfian_weights(universe_size, coefficient)
    cdf = np.cumsum(weights)
    rng = np.random.default_rng(seed)
    u = rng.random(n_samples)
    return np.searchsorted(cdf, u, side="left").astype(np.int64)


def zipfian_counts(
    n_distinct: int,
    total_items: Optional[int] = None,
    coefficient: float = 1.5,
    seed: int = 0,
) -> np.ndarray:
    """Per-item counts whose frequencies follow a Zipfian distribution.

    Returns an integer array of length ``n_distinct`` whose values sum to
    approximately ``total_items`` (default: ``n_distinct``), with rank-1
    items receiving the largest counts.
    """
    if n_distinct <= 0:
        raise ValueError("n_distinct must be positive")
    total_items = total_items if total_items is not None else n_distinct
    ranks = sample_zipfian_ranks(total_items, n_distinct, coefficient, seed)
    counts = np.bincount(ranks, minlength=n_distinct)
    return counts.astype(np.int64)


def uniform_counts(
    n_distinct: int,
    low: int = 1,
    high: int = 100,
    seed: int = 0,
) -> np.ndarray:
    """Per-item counts drawn uniformly from ``[low, high]`` (UR-count)."""
    if n_distinct <= 0:
        raise ValueError("n_distinct must be positive")
    if not 1 <= low <= high:
        raise ValueError("need 1 <= low <= high")
    rng = np.random.default_rng(seed)
    return rng.integers(low, high + 1, size=n_distinct, dtype=np.int64)
