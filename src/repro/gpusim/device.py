"""GPU device specifications used by the execution-model simulator.

The paper evaluates on two NERSC systems:

* **Cori GPU nodes** — NVIDIA Tesla V100, 5120 CUDA cores @ 1445 MHz, 16 GB
  HBM2, an active-thread limit of ~82,000 threads, 6 MB of L2 cache and
  ~900 GB/s of HBM bandwidth.
* **Perlmutter GPU nodes** — NVIDIA A100, 6912 CUDA cores @ 1410 MHz, 40 GB
  HBM2, an active-thread limit of ~110,000 threads, 40 MB of L2 cache and
  ~1555 GB/s of HBM bandwidth.

Because no GPU hardware is available in this reproduction, those devices are
represented as :class:`GPUSpec` records consumed by
:mod:`repro.gpusim.perfmodel` to convert counted hardware events (cache-line
transactions, atomics, lock thrash, …) into estimated kernel times.  The
parameters below are public data-sheet numbers; nothing is fitted to the
paper's measured curves.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Architectural parameters of a simulated GPU.

    Attributes
    ----------
    name:
        Human-readable device name (e.g. ``"V100"``).
    system:
        The machine the paper associates with the device (``"cori"`` or
        ``"perlmutter"``).
    sm_count:
        Number of streaming multiprocessors.
    cuda_cores:
        Total CUDA cores (used for compute-throughput estimates).
    clock_mhz:
        Boost clock in MHz.
    mem_bandwidth_gbps:
        Peak HBM bandwidth in GB/s.
    mem_bytes:
        Device memory capacity in bytes.
    l2_bytes:
        L2 cache capacity in bytes.  Structures that fit entirely in L2 get a
        bandwidth boost — this is what produces the BF/BBF outliers at
        :math:`2^{22}` (V100) and :math:`2^{24}` (A100) in Figure 3.
    l2_bandwidth_multiplier:
        Ratio of L2 bandwidth to HBM bandwidth.
    cache_line_bytes:
        Size of a memory transaction (128 bytes on both devices).
    max_active_threads:
        Active-thread limit quoted by the paper (82k / 110k).
    saturation_threads:
        Number of concurrently resident threads needed to hide memory
        latency and reach peak bandwidth (roughly 128-192 per SM).  Kernels
        that expose fewer threads — e.g. bulk kernels mapping one thread per
        region — run at a fraction of peak, which is what makes bulk-insert
        throughput grow with filter size in Figure 4.
    warp_size:
        Threads per warp.
    atomic_throughput_gops:
        Sustained global-memory atomic throughput (to L2) in billions of
        operations per second, assuming mostly-distinct addresses.
    compute_throughput_gips:
        Sustained simple-integer-instruction throughput in billions of
        instructions per second (cores * clock, de-rated).
    kernel_launch_overhead_us:
        Fixed host-side cost per kernel launch in microseconds.
    uncoalesced_efficiency:
        Fraction of peak bandwidth achieved by fully random single-line
        transactions.
    """

    name: str
    system: str
    sm_count: int
    cuda_cores: int
    clock_mhz: float
    mem_bandwidth_gbps: float
    mem_bytes: int
    l2_bytes: int
    l2_bandwidth_multiplier: float
    cache_line_bytes: int
    max_active_threads: int
    saturation_threads: int
    warp_size: int
    atomic_throughput_gops: float
    compute_throughput_gips: float
    kernel_launch_overhead_us: float
    uncoalesced_efficiency: float

    @property
    def mem_bandwidth_bytes_per_s(self) -> float:
        """Peak HBM bandwidth in bytes/second."""
        return self.mem_bandwidth_gbps * 1e9

    @property
    def l2_bandwidth_bytes_per_s(self) -> float:
        """Peak L2 bandwidth in bytes/second."""
        return self.mem_bandwidth_bytes_per_s * self.l2_bandwidth_multiplier

    @property
    def atomic_ops_per_s(self) -> float:
        """Sustained global atomic operations per second."""
        return self.atomic_throughput_gops * 1e9

    @property
    def instructions_per_s(self) -> float:
        """Sustained simple instruction throughput per second."""
        return self.compute_throughput_gips * 1e9

    def fits_in_l2(self, nbytes: int) -> bool:
        """Return True if a structure of ``nbytes`` fits in the L2 cache."""
        return nbytes <= self.l2_bytes

    def saturation_fraction(self, active_threads: int) -> float:
        """Fraction of peak throughput reachable with ``active_threads``.

        GPUs need enough in-flight threads to hide memory latency.  Bulk
        filters that map one thread per *region* expose far fewer threads
        than point filters that map one cooperative group per *item*; this is
        why Figure 4 shows bulk-insert throughput growing with the filter
        size.  The ramp is sub-linear (square root) because each resident
        thread can keep several memory requests in flight when it streams
        over a contiguous region.
        """
        if active_threads <= 0:
            return 0.0
        return float(min(1.0, (active_threads / float(self.saturation_threads)) ** 0.5))


#: NVIDIA Tesla V100 (NERSC Cori GPU nodes).
V100 = GPUSpec(
    name="V100",
    system="cori",
    sm_count=80,
    cuda_cores=5120,
    clock_mhz=1445.0,
    mem_bandwidth_gbps=900.0,
    mem_bytes=16 * 1024**3,
    l2_bytes=6 * 1024**2,
    l2_bandwidth_multiplier=3.0,
    cache_line_bytes=128,
    max_active_threads=82_000,
    saturation_threads=80 * 192,
    warp_size=32,
    atomic_throughput_gops=20.0,
    compute_throughput_gips=7000.0,
    kernel_launch_overhead_us=5.0,
    uncoalesced_efficiency=0.7,
)

#: NVIDIA A100 (NERSC Perlmutter GPU nodes).
A100 = GPUSpec(
    name="A100",
    system="perlmutter",
    sm_count=108,
    cuda_cores=6912,
    clock_mhz=1410.0,
    mem_bandwidth_gbps=1555.0,
    mem_bytes=40 * 1024**3,
    l2_bytes=40 * 1024**2,
    l2_bandwidth_multiplier=3.5,
    cache_line_bytes=128,
    max_active_threads=110_000,
    saturation_threads=108 * 192,
    warp_size=32,
    atomic_throughput_gops=32.0,
    compute_throughput_gips=9700.0,
    kernel_launch_overhead_us=4.0,
    uncoalesced_efficiency=0.7,
)

#: Intel Xeon Phi "Knights Landing" node (Cori KNL) used for the CPU
#: baselines in Table 4.  Modelled with the same interface so the CPU cost
#: model in :mod:`repro.baselines` can reuse the perf-model machinery.
KNL = GPUSpec(
    name="KNL",
    system="cori-knl",
    sm_count=68,
    cuda_cores=272,  # hardware threads
    clock_mhz=1400.0,
    mem_bandwidth_gbps=102.0,  # DDR4; MCDRAM would be ~400 GB/s
    mem_bytes=96 * 1024**3,
    l2_bytes=34 * 1024**2,
    l2_bandwidth_multiplier=2.0,
    cache_line_bytes=64,
    max_active_threads=272,
    saturation_threads=272,
    warp_size=1,
    atomic_throughput_gops=0.4,
    compute_throughput_gips=380.0,
    kernel_launch_overhead_us=0.0,
    uncoalesced_efficiency=0.5,
)
