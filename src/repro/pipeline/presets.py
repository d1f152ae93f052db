"""Scale presets for the reproduction pipeline.

Every pipeline stage runs a *functional simulation* at a reduced scale and
feeds the measured event counts to the perf model at the paper's nominal
scale.  The preset bundles every scale knob the stages need, so one
``--preset`` flag moves the whole pipeline between:

* ``smoke``   — seconds-per-stage; the scale CI runs on every PR.  Large
  enough that the paper's qualitative claims (the expectation layer) hold.
* ``default`` — the scale the benchmark harness has historically used
  (``BENCH_SIM_LG`` grew to 15 as the hot paths were vectorised in
  PRs 1-4); minutes for the full pipeline.
* ``paper``   — the largest tractable simulation; closest event-count
  fidelity to the paper's 2^22..2^30 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Preset:
    """One named scale configuration for the whole pipeline."""

    name: str
    description: str
    #: log2 slots of the functional simulation behind the size sweeps
    #: (Figures 3, 4, 6 and Table 4).
    sim_lg: int
    #: queries simulated per phase in the size sweeps.
    n_queries: int
    #: Figure 5 sweeps 7 variants x 6 CG sizes, so it runs smaller.
    fig5_sim_lg: int
    fig5_n_queries: int
    #: Table 2 accuracy measurement: filter capacity (log2) and negative
    #: queries (the FP-rate resolution).
    fpr_lg_capacity: int
    fpr_n_negative: int
    #: Table 5 counting simulation scale (log2 slots).
    table5_sim_lg: int
    #: Ablations: TCF slots for the load-factor/shortcut runs and keys for
    #: the map-reduce/sorted-insert runs.
    ablation_slots: int
    ablation_keys: int
    #: Wall-clock timing stage: point-API batch sizes plus the k-mer
    #: application workload (genome size in bp, read coverage).
    timing_inserts: int
    timing_queries: int
    kmer_genome_bp: int
    kmer_coverage: float
    #: Table 3 functional k-mer run (separate knobs: its historical scale
    #: was ~11x smaller than the timing stage's k-mer workload).
    table3_genome_bp: int
    table3_coverage: float
    #: Lifecycle stage: log2 slots per filter, keys inserted per filter, and
    #: the k of the k-way merge.
    lifecycle_lg: int
    lifecycle_keys: int
    lifecycle_merge_k: int
    #: Service stage: simulated clients, jobs each, and keys per job for the
    #: clean and faulty mixed-traffic runs.
    service_clients: int
    service_jobs_per_client: int
    service_keys_per_job: int
    #: Sharding stage: keys inserted / queried per curve point and the log2
    #: of the *logical* slot count (split evenly across the shards).
    sharding_keys: int
    sharding_queries: int
    sharding_lg: int

    def scaled(self, **overrides: object) -> "Preset":
        """Return a copy with some knobs overridden (used by tests)."""
        from dataclasses import replace

        return replace(self, **overrides)


#: The registered presets, by name.
PRESETS: Dict[str, Preset] = {
    "smoke": Preset(
        name="smoke",
        description="CI scale: seconds per stage, qualitative claims only",
        sim_lg=10,
        n_queries=256,
        fig5_sim_lg=9,
        fig5_n_queries=128,
        fpr_lg_capacity=12,
        fpr_n_negative=4_000,
        table5_sim_lg=10,
        ablation_slots=4096,
        ablation_keys=1_500,
        timing_inserts=20_000,
        timing_queries=8_000,
        kmer_genome_bp=3_000,
        kmer_coverage=6.0,
        table3_genome_bp=3_000,
        table3_coverage=6.0,
        lifecycle_lg=10,
        lifecycle_keys=600,
        lifecycle_merge_k=3,
        service_clients=8,
        service_jobs_per_client=10,
        service_keys_per_job=48,
        sharding_keys=250_000,
        sharding_queries=100_000,
        sharding_lg=19,
    ),
    "default": Preset(
        name="default",
        description="benchmark-harness scale (the historical BENCH_SIM_LG)",
        sim_lg=15,
        n_queries=1024,
        fig5_sim_lg=10,
        fig5_n_queries=512,
        fpr_lg_capacity=13,
        fpr_n_negative=10_000,
        table5_sim_lg=15,
        ablation_slots=4096,
        ablation_keys=3_000,
        timing_inserts=50_000,
        timing_queries=20_000,
        kmer_genome_bp=20_000,
        kmer_coverage=10.0,
        table3_genome_bp=3_000,
        table3_coverage=6.0,
        lifecycle_lg=13,
        lifecycle_keys=4_000,
        lifecycle_merge_k=4,
        service_clients=16,
        service_jobs_per_client=16,
        service_keys_per_job=128,
        sharding_keys=600_000,
        sharding_queries=200_000,
        sharding_lg=20,
    ),
    "paper": Preset(
        name="paper",
        description="largest tractable simulation; closest to the paper",
        sim_lg=17,
        n_queries=4096,
        fig5_sim_lg=11,
        fig5_n_queries=1024,
        fpr_lg_capacity=16,
        fpr_n_negative=20_000,
        table5_sim_lg=16,
        ablation_slots=8192,
        ablation_keys=6_000,
        timing_inserts=100_000,
        timing_queries=40_000,
        kmer_genome_bp=40_000,
        kmer_coverage=12.0,
        table3_genome_bp=6_000,
        table3_coverage=8.0,
        lifecycle_lg=15,
        lifecycle_keys=16_000,
        lifecycle_merge_k=6,
        service_clients=32,
        service_jobs_per_client=24,
        service_keys_per_job=256,
        sharding_keys=1_200_000,
        sharding_queries=400_000,
        sharding_lg=21,
    ),
}

#: Preset names in menu order.
PRESET_NAMES: Tuple[str, ...] = tuple(PRESETS)


def get_preset(name: str) -> Preset:
    """Look a preset up by name (raises ``KeyError`` with the menu)."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
