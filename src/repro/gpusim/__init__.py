"""GPU execution-model simulator.

This package is the substrate substituting for real CUDA hardware in the
reproduction of *High-Performance Filters for GPUs* (PPoPP 2023).  It
provides:

* :mod:`~repro.gpusim.device` — V100 / A100 / KNL device specifications;
* :mod:`~repro.gpusim.memory` — device arrays with cache-line accounting and
  an allocator for memory-footprint experiments;
* :mod:`~repro.gpusim.atomics` — ``atomicCAS`` / ``Exch`` / ``Or`` / ``And``
  and spin-lock tables;
* :mod:`~repro.gpusim.warp` — warps and cooperative groups (ballot, ffs,
  strided iteration);
* :mod:`~repro.gpusim.sharedmem` — shared-memory staging tiles;
* :mod:`~repro.gpusim.kernel` — per-launch kernel records (the exposed
  parallelism the perf model reads comes from each filter's
  ``active_threads`` in :mod:`repro.analysis.adapters`);
* :mod:`~repro.gpusim.sorting` — Thrust-like sort/reduce/search primitives;
* :mod:`~repro.gpusim.stats` — hardware-event counters;
* :mod:`~repro.gpusim.perfmodel` — the roofline-style time estimator.

Each module holds only what the filters, the pipeline or the benchmark call.
"""

from .device import A100, KNL, V100, GPUSpec
from .kernel import KernelContext
from .memory import DeviceAllocator, DeviceArray
from .perfmodel import PerfEstimate, estimate_time, scale_stats
from .sharedmem import SharedMemoryTile
from .sorting import device_lower_bound, device_reduce_by_key, device_sort, device_sort_by_key
from .stats import GLOBAL_RECORDER, KernelStats, StatsRecorder
from .warp import WARP_SIZE, CooperativeGroup, ffs
from .atomics import SpinLockTable, atomic_and, atomic_cas, atomic_exch, atomic_or

__all__ = [
    "A100",
    "KNL",
    "V100",
    "GPUSpec",
    "KernelContext",
    "DeviceAllocator",
    "DeviceArray",
    "PerfEstimate",
    "estimate_time",
    "scale_stats",
    "SharedMemoryTile",
    "device_lower_bound",
    "device_reduce_by_key",
    "device_sort",
    "device_sort_by_key",
    "GLOBAL_RECORDER",
    "KernelStats",
    "StatsRecorder",
    "WARP_SIZE",
    "CooperativeGroup",
    "ffs",
    "SpinLockTable",
    "atomic_and",
    "atomic_cas",
    "atomic_exch",
    "atomic_or",
]
