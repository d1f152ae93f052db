"""Analytical performance model converting hardware events into time.

The functional simulation (see :mod:`repro.gpusim.memory`, ``atomics``,
``warp``) counts the events that the paper's Section 3 identifies as the
determinants of GPU filter performance: cache-line transactions, atomics and
their retries, lock thrash, divergence and Robin-Hood shifting.  This module
turns an event trace into an estimated kernel time for a given
:class:`~repro.gpusim.device.GPUSpec` using a roofline-style model:

``time = max(memory_time, atomic_time, compute_time) / saturation
         + contention_penalty + launch_overhead``

where

* ``memory_time`` charges random (single-line) transactions at the device's
  uncoalesced efficiency, coalesced traffic at full bandwidth, and applies an
  L2 bandwidth boost when the whole structure fits in L2 (this produces the
  BF/BBF bumps at 2^22 on the V100 and 2^24 on the A100 in Figure 3);
* ``atomic_time`` charges global atomics, CAS retries and lock thrash against
  the device's atomic throughput;
* ``saturation`` is the fraction of the device's active-thread limit exposed
  by the kernel (bulk kernels that map one thread per region expose few
  threads on small filters, which is why bulk insert throughput grows with
  the filter size in Figure 4);
* ``contention_penalty`` serialises lock critical sections when many threads
  target few locks (the point GQF's dominant cost).

None of the constants are fitted to the paper's measurements; they come from
public device parameters, so the output should be read as *relative shape*,
not absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .device import GPUSpec
from .stats import KernelStats

#: Extra atomic-pipe work charged per failed CAS (the retry re-issues the CAS
#: and re-reads the line).
CAS_RETRY_WEIGHT = 2.0
#: Extra atomic-pipe work charged per failed lock acquisition (spin iteration).
LOCK_FAILURE_WEIGHT = 4.0
#: Latency of one serialized lock critical section, in seconds.  Used only for
#: the serialization component of heavily contended point-GQF inserts.
LOCK_CRITICAL_SECTION_S = 600e-9
#: Instruction-equivalents charged per warp intrinsic (ballot/vote).
INTRINSIC_WEIGHT = 2.0
#: Issue cycles per cooperative-group stride iteration over a block.
CG_ITERATION_CYCLES = 4.0
#: Issue cycles to launch one cache-line load per cooperative group.
CG_ISSUE_CYCLES = 8.0
#: Memory latency (cycles) that a warp must hide across its groups.
CG_MEMORY_LATENCY_CYCLES = 500.0
#: Instructions the warp schedulers of one SM can issue per cycle.
ISSUE_SLOTS_PER_SM = 2.0
#: Instruction-equivalents charged per shared-memory access.
SHARED_ACCESS_WEIGHT = 1.0
#: Instruction-equivalents charged per divergent branch (both paths execute).
DIVERGENCE_WEIGHT = 4.0


@dataclass
class PerfEstimate:
    """Result of a performance-model evaluation.

    Attributes
    ----------
    time_s:
        Estimated wall-clock time of the phase in seconds.
    throughput_ops_per_s:
        Operations per second (``n_ops / time_s``).
    n_ops:
        Number of logical operations the estimate covers.
    breakdown:
        Component times in seconds (memory, atomics, compute, contention,
        launch) plus the saturation fraction used.
    """

    time_s: float
    throughput_ops_per_s: float
    n_ops: int
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_bops(self) -> float:
        """Throughput in billions of operations per second (paper's unit)."""
        return self.throughput_ops_per_s / 1e9

    @property
    def throughput_mops(self) -> float:
        """Throughput in millions of operations per second."""
        return self.throughput_ops_per_s / 1e6


def cg_warp_cycles(
    block_size: int,
    cg_size: int,
    blocks_probed: float = 1.5,
    iteration_cycles: float = CG_ITERATION_CYCLES,
    issue_cycles: float = CG_ISSUE_CYCLES,
    memory_latency: float = CG_MEMORY_LATENCY_CYCLES,
    warp_size: int = 32,
) -> float:
    """Per-operation warp-scheduler cycles for a cooperative-group block scan.

    This models the compute/memory trade-off Figure 5 sweeps (Section 6.3):
    a warp is partitioned into ``warp_size / cg_size`` groups, each handling
    one filter operation.

    * **Small groups** (many per warp) keep many cache-line loads in flight,
      hiding memory latency well, but every group needs
      ``ceil(block_size / cg_size)`` stride iterations to scan its block, so
      the warp spends more issue slots on compute.
    * **Large groups** scan a block in one stride but leave the warp with few
      independent loads, so the raw memory latency shows through.

    The returned value is the issue-slot cost per operation:
    ``strides * iteration_cycles * blocks_probed + issue_cycles * blocks_probed
    + memory_latency * blocks_probed / groups^2`` (the latency term is
    amortised once over the groups of a warp and once over the operations
    those groups complete).
    """
    if cg_size <= 0 or block_size <= 0:
        raise ValueError("block_size and cg_size must be positive")
    groups = max(1, warp_size // cg_size)
    strides = -(-block_size // cg_size)  # ceil division
    return (
        strides * iteration_cycles * blocks_probed
        + issue_cycles * blocks_probed
        + memory_latency * blocks_probed / float(groups * groups)
    )


def scale_stats(stats: KernelStats, factor: float) -> KernelStats:
    """Scale per-operation-proportional counters by ``factor``.

    Kernel-launch counts are *not* scaled: a batch of 2^30 point inserts is
    still one kernel launch, regardless of how many operations the functional
    simulation actually executed.
    """
    out = KernelStats()
    for name, value in stats.as_dict().items():
        if name in ("kernel_launches",):
            setattr(out, name, value)
        else:
            setattr(out, name, int(round(value * factor)))
    return out


def estimate_time(
    stats: KernelStats,
    n_ops: int,
    device: GPUSpec,
    structure_bytes: int,
    active_threads: int,
    simulated_ops: Optional[int] = None,
    lock_serialization: float = 0.0,
    warp_cycles_per_op: float = 0.0,
) -> PerfEstimate:
    """Estimate the execution time of a phase.

    Parameters
    ----------
    stats:
        Event counts recorded by the functional simulation.
    n_ops:
        The *nominal* number of logical operations the phase represents (for
        a Figure 3 point at filter size 2^28, this is the 90 %-load item
        count even though the functional simulation ran a smaller sample).
    device:
        Target GPU.
    structure_bytes:
        Nominal footprint of the filter; decides L2 residency.
    active_threads:
        Threads exposed by the kernel (items x cg_size for point kernels,
        regions for bulk kernels), capped by the perf model at the device's
        active-thread limit.
    simulated_ops:
        Number of operations the functional simulation actually performed.
        Defaults to ``stats.operations`` or ``n_ops``.
    lock_serialization:
        Average number of *other* threads contending for the same lock during
        a critical section; multiplies the serialized lock time.  The point
        GQF computes this from ``active_threads / n_locks``.
    warp_cycles_per_op:
        Warp-scheduler issue cycles per operation (see :func:`cg_warp_cycles`);
        0 disables the warp-scheduling bound.

    Returns
    -------
    PerfEstimate
    """
    if n_ops <= 0:
        return PerfEstimate(0.0, 0.0, 0, {})
    sim_ops = simulated_ops or stats.operations or n_ops
    factor = n_ops / float(sim_ops)
    scaled = scale_stats(stats, factor)

    # ---- memory time ------------------------------------------------------
    random_bytes = (scaled.cache_line_reads + scaled.cache_line_writes) * device.cache_line_bytes
    coalesced_bytes = scaled.coalesced_bytes_read + scaled.coalesced_bytes_written
    in_l2 = device.fits_in_l2(structure_bytes)
    bandwidth = device.l2_bandwidth_bytes_per_s if in_l2 else device.mem_bandwidth_bytes_per_s
    random_efficiency = 0.6 if in_l2 else device.uncoalesced_efficiency
    memory_time = 0.0
    if random_bytes:
        memory_time += random_bytes / (bandwidth * random_efficiency)
    if coalesced_bytes:
        memory_time += coalesced_bytes / bandwidth

    # ---- atomic time -------------------------------------------------------
    atomic_work = (
        scaled.atomic_ops
        + CAS_RETRY_WEIGHT * scaled.cas_retries
        + LOCK_FAILURE_WEIGHT * scaled.lock_failures
    )
    atomic_time = atomic_work / device.atomic_ops_per_s if atomic_work else 0.0

    # ---- compute time ------------------------------------------------------
    instruction_work = (
        scaled.instructions
        + INTRINSIC_WEIGHT * scaled.warp_intrinsics
        + SHARED_ACCESS_WEIGHT * scaled.shared_memory_accesses
        + DIVERGENCE_WEIGHT * scaled.divergent_branches
    )
    compute_time = instruction_work / device.instructions_per_s if instruction_work else 0.0

    # ---- warp-scheduler issue bound -------------------------------------------
    issue_time = 0.0
    if warp_cycles_per_op > 0.0:
        issue_slots_per_s = device.sm_count * ISSUE_SLOTS_PER_SM * device.clock_mhz * 1e6
        issue_time = n_ops * warp_cycles_per_op / issue_slots_per_s

    # ---- parallelism saturation ---------------------------------------------
    saturation = device.saturation_fraction(active_threads)
    if saturation <= 0:
        saturation = 1.0 / device.max_active_threads
    roofline = max(memory_time, atomic_time, compute_time, issue_time) / saturation

    # ---- contention serialization --------------------------------------------
    contention_time = 0.0
    if lock_serialization > 0.0 and scaled.lock_acquisitions:
        # Each critical section that overlaps with `lock_serialization` other
        # threads on the same lock must wait for them; total serialized time
        # is spread over the number of locks actually being worked in
        # parallel, which is what the per-op acquisition count already
        # captures once divided by exposed parallelism.
        serialized_sections = scaled.lock_acquisitions * lock_serialization
        parallel_lanes = max(1.0, float(min(active_threads, device.max_active_threads)))
        contention_time = serialized_sections * LOCK_CRITICAL_SECTION_S / parallel_lanes

    # ---- launch overhead -------------------------------------------------------
    launch_time = scaled.kernel_launches * device.kernel_launch_overhead_us * 1e-6

    total = roofline + contention_time + launch_time
    if total <= 0.0:
        total = 1e-12
    return PerfEstimate(
        time_s=total,
        throughput_ops_per_s=n_ops / total,
        n_ops=n_ops,
        breakdown={
            "memory_time_s": memory_time,
            "atomic_time_s": atomic_time,
            "compute_time_s": compute_time,
            "issue_time_s": issue_time,
            "roofline_time_s": roofline,
            "contention_time_s": contention_time,
            "launch_time_s": launch_time,
            "saturation": saturation,
            "in_l2": float(in_l2),
        },
    )
