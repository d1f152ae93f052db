"""Workload generators for the microbenchmarks and counting benchmarks."""

from . import distributions, kmer
from .generators import (
    CountingDataset,
    Workload,
    uniform_count_dataset,
    uniform_random_dataset,
    uniform_workload,
    zipfian_count_dataset,
)

__all__ = [
    "distributions",
    "kmer",
    "CountingDataset",
    "Workload",
    "uniform_count_dataset",
    "uniform_random_dataset",
    "uniform_workload",
    "zipfian_count_dataset",
]
