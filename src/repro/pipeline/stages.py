"""The 14 registered reproduction stages (Figures 3-6, Tables 1-5,
ablations, point-path wall-clock timing, the filter lifecycle, the filter
service, and the sharded-filter scaling curve).

Each stage wraps one driver from :mod:`repro.analysis` / :mod:`repro.apps`:
its run function executes the functional simulation + perf model at the
preset's scale and returns a JSON-serialisable payload plus formatted text
reports for ``benchmarks/results/``.  The expectations attached to every
stage are the paper's qualitative claims; they read only the payload, so
``repro check`` can re-evaluate them against artifacts loaded from disk.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from typing import Dict, List, Tuple

import numpy as np

from ..analysis import figures, tables
from ..analysis.api_matrix import PAPER_TABLE1, TABLE1_COLUMNS, build_api_matrix
from ..analysis.fpr import run_table2
from ..analysis.reporting import (
    format_boolean_matrix,
    format_dict_rows,
    format_figure_series,
    format_table,
)
from ..analysis.throughput import (
    PHASE_DELETE,
    PHASE_INSERT,
    PHASE_POSITIVE,
    PHASE_RANDOM,
    BenchmarkPoint,
)
from ..apps.kmer_counter import GPUKmerCounter
from ..apps.metahipmer import KmerAnalysisPhase, memory_reduction, run_table3
from ..core.exceptions import FilterFullError
from ..core.gqf import BulkGQF, PointGQF, QuotientFilterCore
from ..core.tcf import FIGURE5_CG_SIZES, FIGURE5_VARIANTS, PointTCF, TCFConfig
from ..gpusim.device import A100, V100
from ..gpusim.stats import StatsRecorder
from ..hashing.fingerprints import FingerprintScheme
from ..hashing.xorwow import generate_keys
from ..workloads import kmer as kmer_mod
from ..workloads.generators import zipfian_count_dataset
from .presets import Preset
from .stage import Expectation, Stage, StageOutput, register_stage

#: The size sweep shared by Figures 3, 4 and 6.
SWEEP_SIZES = figures.PAPER_SIZE_SWEEP


# --------------------------------------------------------------------------
# payload helpers
# --------------------------------------------------------------------------
def point_to_dict(point: BenchmarkPoint) -> dict:
    """Serialise one :class:`BenchmarkPoint` into the artifact payload."""
    return {
        "filter_key": point.filter_key,
        "display_name": point.display_name,
        "device": point.device,
        "lg_capacity": point.lg_capacity,
        "throughput_bops": {
            phase: estimate.throughput_bops
            for phase, estimate in point.estimates.items()
        },
        "meta": {key: float(value) for key, value in point.meta.items()},
    }


def _series_to_dict(results: Dict[str, List[BenchmarkPoint]]) -> dict:
    return {key: [point_to_dict(p) for p in series] for key, series in results.items()}


def _points_by_size(data: dict, system: str, filter_key: str) -> Dict[int, dict]:
    return {p["lg_capacity"]: p for p in data["series"][system][filter_key]}


def _bops(point: dict, phase: str) -> float:
    return float(point["throughput_bops"].get(phase, 0.0))


# --------------------------------------------------------------------------
# Figure 3: point-API throughput vs filter size
# --------------------------------------------------------------------------
_FIG3_PHASES = (
    (PHASE_INSERT, "Point Inserts"),
    (PHASE_POSITIVE, "Point Positive Queries"),
    (PHASE_RANDOM, "Point Random Queries"),
)


def _run_fig3(preset: Preset) -> StageOutput:
    series: Dict[str, dict] = {}
    reports: Dict[str, str] = {}
    for device in (V100, A100):
        results = figures.figure3_point_api(
            device, SWEEP_SIZES, sim_lg=preset.sim_lg, n_queries=preset.n_queries
        )
        series[device.system] = _series_to_dict(results)
        system = device.system.capitalize()
        sections = [
            format_figure_series(results, phase, f"Figure 3 ({system}): {title}")
            for phase, title in _FIG3_PHASES
        ]
        reports[f"figure3_point_api_{device.system}"] = "\n\n".join(sections)
    return StageOutput(data={"series": series, "sizes": list(SWEEP_SIZES)}, reports=reports)


def _fig3_tcf_insert_beats_gqf(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        tcf = _points_by_size(data, system, "tcf")
        gqf = _points_by_size(data, system, "gqf")
        for lg in tcf:
            if not _bops(tcf[lg], PHASE_INSERT) > _bops(gqf[lg], PHASE_INSERT):
                return False, f"{system} 2^{lg}: TCF inserts do not beat the GQF"
    return True, "TCF point inserts beat the GQF at every size on both GPUs"


def _fig3_tcf_positive_vs_gqf(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        tcf = _points_by_size(data, system, "tcf")
        gqf = _points_by_size(data, system, "gqf")
        for lg in tcf:
            tcf_bops = _bops(tcf[lg], PHASE_POSITIVE)
            gqf_bops = _bops(gqf[lg], PHASE_POSITIVE)
            # At 2^22 the GQF still fits in L2 while the TCF does not, so
            # only parity is required there (paper Section 6.1).
            threshold = gqf_bops if lg >= 24 else 0.9 * gqf_bops
            if not tcf_bops > threshold:
                return False, (
                    f"{system} 2^{lg}: TCF positive queries {tcf_bops:.3f} B/s "
                    f"vs GQF {gqf_bops:.3f} B/s"
                )
    return True, "TCF positive queries beat the GQF beyond the L2-resident sizes"


def _fig3_gqf_beats_bloom(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        gqf = _points_by_size(data, system, "gqf")
        bf = _points_by_size(data, system, "bf")
        for lg in gqf:
            if not _bops(gqf[lg], PHASE_POSITIVE) > _bops(bf[lg], PHASE_POSITIVE):
                return False, f"{system} 2^{lg}: GQF positive queries do not beat the BF"
    return True, "GQF positive queries beat the Bloom filter (paper: 2.4x)"


def _fig3_bf_early_exit(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        bf = _points_by_size(data, system, "bf")
        for lg in bf:
            if not _bops(bf[lg], PHASE_RANDOM) > _bops(bf[lg], PHASE_POSITIVE):
                return False, f"{system} 2^{lg}: BF negative queries not faster than positive"
    return True, "BF negative queries terminate early and beat its positive queries"


def _fig3_bbf_fastest(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        bbf = _points_by_size(data, system, "bbf")
        tcf = _points_by_size(data, system, "tcf")
        for lg in bbf:
            if not _bops(bbf[lg], PHASE_POSITIVE) >= 0.9 * _bops(tcf[lg], PHASE_POSITIVE):
                return False, f"{system} 2^{lg}: BBF is not the fastest overall"
    return True, "the BBF (no deletes/counts) is the fastest filter overall"


def _fig3_bf_l2_outlier(data: dict) -> Tuple[bool, str]:
    bf = _points_by_size(data, "cori", "bf")
    small = _bops(bf[22], PHASE_POSITIVE)
    large = _bops(bf[26], PHASE_POSITIVE)
    if not small > 1.5 * large:
        return False, f"V100 BF positive queries 2^22={small:.3f} vs 2^26={large:.3f} B/s"
    return True, "the BF L2-residency outlier appears at 2^22 on the V100 and is gone by 2^26"


register_stage(Stage(
    name="fig3",
    title="Figure 3: point-API throughput vs filter size (Cori + Perlmutter)",
    kind="figure",
    description="Point insert/positive/random throughput of the TCF, GQF, "
                "BF and BBF across 2^22..2^30 on the V100 and A100.",
    run=_run_fig3,
    expectations=(
        Expectation("tcf-insert-beats-gqf",
                    "TCF point inserts beat the GQF at every size",
                    _fig3_tcf_insert_beats_gqf),
        Expectation("tcf-positive-beats-gqf-at-scale",
                    "TCF positive queries beat the GQF beyond L2-resident sizes",
                    _fig3_tcf_positive_vs_gqf),
        Expectation("gqf-positive-beats-bf",
                    "GQF positive queries beat the Bloom filter",
                    _fig3_gqf_beats_bloom),
        Expectation("bf-negative-early-exit",
                    "BF negative queries beat its positive queries",
                    _fig3_bf_early_exit),
        Expectation("bbf-fastest-overall",
                    "the blocked Bloom filter is the fastest filter overall",
                    _fig3_bbf_fastest),
        Expectation("bf-l2-outlier-v100",
                    "the BF/BBF L2-residency outlier at 2^22 on the V100",
                    _fig3_bf_l2_outlier),
    ),
))


# --------------------------------------------------------------------------
# Figure 4: bulk-API throughput vs filter size
# --------------------------------------------------------------------------
_FIG4_PHASES = (
    (PHASE_INSERT, "Bulk Inserts"),
    (PHASE_POSITIVE, "Bulk Positive Queries"),
    (PHASE_RANDOM, "Bulk Random Queries"),
)


def _run_fig4(preset: Preset) -> StageOutput:
    series: Dict[str, dict] = {}
    reports: Dict[str, str] = {}
    for device in (V100, A100):
        results = figures.figure4_bulk_api(
            device, SWEEP_SIZES, sim_lg=preset.sim_lg, n_queries=preset.n_queries
        )
        series[device.system] = _series_to_dict(results)
        system = device.system.capitalize()
        sections = [
            format_figure_series(results, phase, f"Figure 4 ({system}): {title}")
            for phase, title in _FIG4_PHASES
        ]
        reports[f"figure4_bulk_api_{device.system}"] = "\n\n".join(sections)
    return StageOutput(data={"series": series, "sizes": list(SWEEP_SIZES)}, reports=reports)


def _fig4_capacity_truncation(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        for key in ("sqf", "rsqf"):
            sizes = _points_by_size(data, system, key)
            if max(sizes) != 26:
                return False, f"{system} {key} series does not stop at 2^26"
    return True, "the SQF/RSQF series stop at their 2^26 implementation limit"


def _fig4_bulk_tcf_fastest(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        tcf = _points_by_size(data, system, "bulk-tcf")
        gqf = _points_by_size(data, system, "bulk-gqf")
        sqf = _points_by_size(data, system, "sqf")
        for lg in tcf:
            tcf_bops = _bops(tcf[lg], PHASE_INSERT)
            if not tcf_bops > _bops(gqf[lg], PHASE_INSERT):
                return False, f"{system} 2^{lg}: bulk TCF inserts do not beat the bulk GQF"
            if lg in sqf and not tcf_bops > _bops(sqf[lg], PHASE_INSERT):
                return False, f"{system} 2^{lg}: bulk TCF inserts do not beat the SQF"
    return True, "the bulk TCF is the fastest inserter at every size"


def _fig4_rsqf_inserts_slow(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        sqf = _points_by_size(data, system, "sqf")
        rsqf = _points_by_size(data, system, "rsqf")
        for lg in rsqf:
            if not _bops(rsqf[lg], PHASE_INSERT) < 0.1 * _bops(sqf[lg], PHASE_INSERT):
                return False, f"{system} 2^{lg}: RSQF inserts are not orders of magnitude slower"
    return True, "RSQF inserts are orders of magnitude slower than the rest"


def _fig4_gqf_scales(data: dict) -> Tuple[bool, str]:
    for system in data["series"]:
        gqf = _points_by_size(data, system, "bulk-gqf")
        sizes = sorted(gqf)
        if not _bops(gqf[sizes[-1]], PHASE_INSERT) > _bops(gqf[sizes[0]], PHASE_INSERT):
            return False, f"{system}: bulk-GQF insert throughput does not grow with size"
    return True, "bulk-GQF insert throughput grows with the filter size"


def _fig4_a100_headline(data: dict) -> Tuple[bool, str]:
    tcf = _points_by_size(data, "perlmutter", "bulk-tcf")
    bops = _bops(tcf[30], PHASE_INSERT)
    if not bops > 2.0:
        return False, f"A100 bulk-TCF inserts at 2^30 reach only {bops:.2f} B/s"
    return True, f"A100 bulk-TCF inserts reach {bops:.2f} B/s (paper headline: 3.4 B/s)"


register_stage(Stage(
    name="fig4",
    title="Figure 4: bulk-API throughput vs filter size (Cori + Perlmutter)",
    kind="figure",
    description="Bulk insert/positive/random throughput of the bulk TCF, "
                "bulk GQF, SQF and RSQF; the SQF/RSQF curves truncate at 2^26.",
    run=_run_fig4,
    expectations=(
        Expectation("sqf-rsqf-capacity-limit",
                    "the SQF/RSQF series stop at 2^26",
                    _fig4_capacity_truncation),
        Expectation("bulk-tcf-fastest-insert",
                    "the bulk TCF beats every other filter on inserts",
                    _fig4_bulk_tcf_fastest),
        Expectation("rsqf-insert-slow",
                    "RSQF inserts are orders of magnitude slower",
                    _fig4_rsqf_inserts_slow),
        Expectation("bulk-gqf-insert-scales",
                    "bulk-GQF insert throughput grows with filter size",
                    _fig4_gqf_scales),
        Expectation("a100-multi-billion-inserts",
                    "A100 bulk-TCF inserts exceed 2 B/s at 2^30",
                    _fig4_a100_headline),
    ),
))


# --------------------------------------------------------------------------
# Figure 5: cooperative-group-size sweep
# --------------------------------------------------------------------------
_FIG5_LG_CAPACITY = 28
_FIG5_PHASES = (
    (PHASE_INSERT, "Inserts"),
    (PHASE_POSITIVE, "Positive Queries"),
    (PHASE_RANDOM, "Random Queries"),
)


def _run_fig5(preset: Preset) -> StageOutput:
    results = figures.figure5_cg_sweep(
        device=V100,
        lg_capacity=_FIG5_LG_CAPACITY,
        variants=FIGURE5_VARIANTS,
        cg_sizes=FIGURE5_CG_SIZES,
        sim_lg=preset.fig5_sim_lg,
        n_queries=preset.fig5_n_queries,
    )
    sections = []
    for phase, title in _FIG5_PHASES:
        headers = ["CG size"] + list(results.keys())
        rows = []
        for cg in FIGURE5_CG_SIZES:
            rows.append([cg] + [results[label][cg].throughput_bops(phase)
                                for label in results])
        sections.append(format_table(
            headers, rows,
            title=f"Figure 5: {title} at 2^{_FIG5_LG_CAPACITY} [B ops/s]",
        ))
    best = figures.figure5_optimal_cg(results, PHASE_INSERT)
    sections.append(format_table(
        ["variant", "best CG size (inserts)"],
        [[label, cg] for label, cg in best.items()],
        title="Figure 5: optimal cooperative-group size per variant",
    ))
    data = {
        "lg_capacity": _FIG5_LG_CAPACITY,
        "cg_sizes": list(FIGURE5_CG_SIZES),
        "results": {
            label: {str(cg): point_to_dict(point) for cg, point in per_cg.items()}
            for label, per_cg in results.items()
        },
        "optimal_cg": {label: int(cg) for label, cg in best.items()},
    }
    return StageOutput(data=data, reports={"figure5_cg_sweep": "\n\n".join(sections)})


def _fig5_optimal_cg_intermediate(data: dict) -> Tuple[bool, str]:
    for label, cg in data["optimal_cg"].items():
        if cg not in (1, 2, 4, 8, 16):
            return False, f"variant {label}: optimal CG size {cg} is the 32-lane extreme"
    return True, "an intermediate cooperative-group size wins for every variant"


def _fig5_aligned_variants_win(data: dict) -> Tuple[bool, str]:
    for cg in data["cg_sizes"]:
        aligned = _bops(data["results"]["16-16"][str(cg)], PHASE_INSERT)
        straddling = _bops(data["results"]["12-16"][str(cg)], PHASE_INSERT)
        if not aligned >= straddling:
            return False, f"CG {cg}: 16-16 inserts {aligned:.3f} < 12-16 {straddling:.3f} B/s"
    return True, "word-aligned 16-bit variants beat the CAS-straddling 12-bit ones"


register_stage(Stage(
    name="fig5",
    title="Figure 5: TCF throughput vs cooperative-group size",
    kind="figure",
    description="Sweeps CG sizes 1..32 over seven TCF variants at 2^28; "
                "an intermediate CG size is optimal (paper: 4 for most).",
    run=_run_fig5,
    expectations=(
        Expectation("optimal-cg-intermediate",
                    "the optimal CG size is never the 32-lane extreme",
                    _fig5_optimal_cg_intermediate),
        Expectation("aligned-variants-beat-straddling",
                    "16-bit word-aligned variants beat 12-bit straddling ones",
                    _fig5_aligned_variants_win),
    ),
))


# --------------------------------------------------------------------------
# Figure 6: deletion throughput
# --------------------------------------------------------------------------
def _run_fig6(preset: Preset) -> StageOutput:
    results = figures.figure6_deletions(
        device=V100, lg_capacities=SWEEP_SIZES,
        sim_lg=preset.sim_lg, n_queries=preset.n_queries,
    )
    text = format_figure_series(
        results, PHASE_DELETE, "Figure 6: Deletion throughput (Cori)",
        unit="M ops/s", scale=1e-6,
    )
    data = {"series": {"cori": _series_to_dict(results)}, "sizes": list(SWEEP_SIZES)}
    return StageOutput(data=data, reports={"figure6_deletions": text})


def _fig6_sqf_truncated(data: dict) -> Tuple[bool, str]:
    sqf = _points_by_size(data, "cori", "sqf")
    if max(sqf) != 26:
        return False, "the SQF series does not stop at 2^26"
    return True, "the SQF deletion series stops at its 2^26 capacity limit"


def _fig6_tcf_deletes_10x(data: dict) -> Tuple[bool, str]:
    tcf = _points_by_size(data, "cori", "tcf")
    gqf = _points_by_size(data, "cori", "bulk-gqf")
    for lg in tcf:
        if not _bops(tcf[lg], PHASE_DELETE) > 10 * _bops(gqf[lg], PHASE_DELETE):
            return False, f"2^{lg}: TCF deletes are not 10x the GQF's"
    return True, "TCF single-CAS deletes are over 10x faster than the GQF's"


def _fig6_gqf_beats_sqf(data: dict) -> Tuple[bool, str]:
    gqf = _points_by_size(data, "cori", "bulk-gqf")
    sqf = _points_by_size(data, "cori", "sqf")
    for lg in sqf:
        gqf_bops = _bops(gqf[lg], PHASE_DELETE)
        sqf_bops = _bops(sqf[lg], PHASE_DELETE)
        if not gqf_bops > sqf_bops:
            return False, f"2^{lg}: GQF deletes do not beat the SQF"
        if lg >= 24 and not gqf_bops > 3 * sqf_bops:
            return False, f"2^{lg}: the GQF/SQF deletion gap does not widen with size"
    return True, "GQF even-odd deletes beat the SQF everywhere, widening with size"


register_stage(Stage(
    name="fig6",
    title="Figure 6: deletion throughput (Cori)",
    kind="figure",
    description="Deletion throughput of the bulk GQF, SQF and point TCF; "
                "the TCF's single-CAS deletes dominate.",
    run=_run_fig6,
    expectations=(
        Expectation("sqf-capacity-limit",
                    "the SQF series stops at 2^26",
                    _fig6_sqf_truncated),
        Expectation("tcf-deletes-order-of-magnitude",
                    "TCF deletes are over 10x faster than the GQF's",
                    _fig6_tcf_deletes_10x),
        Expectation("gqf-deletes-beat-sqf",
                    "GQF deletes beat the SQF, widening with filter size",
                    _fig6_gqf_beats_sqf),
    ),
))


# --------------------------------------------------------------------------
# Table 1: API capability matrix
# --------------------------------------------------------------------------
def _run_table1(preset: Preset) -> StageOutput:
    matrix = build_api_matrix()
    text = format_boolean_matrix(
        matrix, TABLE1_COLUMNS, "Table 1: API supported by various filters"
    )
    data = {"matrix": matrix, "paper": PAPER_TABLE1, "columns": list(TABLE1_COLUMNS)}
    return StageOutput(data=data, reports={"table1_api_matrix": text})


def _table1_matches_paper(data: dict) -> Tuple[bool, str]:
    mismatches = []
    for name, row in data["paper"].items():
        measured = data["matrix"].get(name)
        if measured != row:
            mismatches.append(name)
    if set(data["matrix"]) != set(data["paper"]):
        mismatches.append("<row set>")
    if mismatches:
        return False, f"capability rows differ from the paper: {', '.join(mismatches)}"
    return True, "the introspected capability matrix matches the paper's Table 1 exactly"


register_stage(Stage(
    name="table1",
    title="Table 1: API supported by various filters",
    kind="table",
    description="Capability matrix generated by introspecting every filter "
                "class; must match the paper's Table 1 exactly.",
    run=_run_table1,
    expectations=(
        Expectation("matrix-matches-paper",
                    "the generated matrix equals the paper's Table 1",
                    _table1_matches_paper),
    ),
))


# --------------------------------------------------------------------------
# Table 2: false-positive rate and bits per item
# --------------------------------------------------------------------------
def _run_table2(preset: Preset) -> StageOutput:
    rows = run_table2(
        lg_capacity=preset.fpr_lg_capacity, n_negative=preset.fpr_n_negative
    )
    text = format_dict_rows(
        rows,
        ["filter", "fp_rate_percent", "bits_per_item",
         "paper_fp_percent", "paper_bits_per_item"],
        "Table 2: measured FP rate (%) and bits per item vs paper",
    )
    return StageOutput(data={"rows": rows}, reports={"table2_fpr_bpi": text})


def _table2_rows(data: dict) -> Dict[str, dict]:
    return {row["filter"]: row for row in data["rows"]}


def _table2_sqf_fp(data: dict) -> Tuple[bool, str]:
    rows = _table2_rows(data)
    sqf, gqf = rows["SQF"]["fp_rate_percent"], rows["GQF"]["fp_rate_percent"]
    if not sqf > 3 * gqf:
        return False, f"SQF FP rate {sqf:.3f}% is not ~10x the GQF's {gqf:.3f}%"
    return True, "5-bit-remainder filters (SQF/RSQF) have ~10x the GQF's FP rate"


def _table2_tcf_space(data: dict) -> Tuple[bool, str]:
    rows = _table2_rows(data)
    gqf_bpi = rows["GQF"]["bits_per_item"]
    for name in ("TCF", "Bulk TCF"):
        if not rows[name]["bits_per_item"] > gqf_bpi:
            return False, f"{name} bits/item do not exceed the GQF's"
    return True, "the TCF family trades space for speed (more bits/item than the GQF)"


def _table2_bbf_accuracy_tradeoff(data: dict) -> Tuple[bool, str]:
    rows = _table2_rows(data)
    bbf, bf = rows["BBF"], rows["BF"]
    if not bbf["fp_rate_percent"] > bf["fp_rate_percent"]:
        return False, "the blocked Bloom filter's FP rate does not exceed the BF's"
    if not abs(bbf["bits_per_item"] - bf["bits_per_item"]) <= 0.2 * bf["bits_per_item"]:
        return False, "BBF and BF bits/item diverge; the FP comparison is not like-for-like"
    return True, (
        f"one-line blocking costs accuracy: BBF FP {bbf['fp_rate_percent']:.2f}% vs "
        f"BF {bf['fp_rate_percent']:.2f}% at ~equal bits/item"
    )


def _table2_fp_near_paper(data: dict) -> Tuple[bool, str]:
    for name, row in _table2_rows(data).items():
        bound = 10 * max(row["paper_fp_percent"], 0.05)
        if not row["fp_rate_percent"] <= bound:
            return False, (
                f"{name}: measured FP {row['fp_rate_percent']:.3f}% exceeds "
                f"10x the paper's {row['paper_fp_percent']:.3f}%"
            )
    return True, "every filter lands within an order of magnitude of its paper FP rate"


register_stage(Stage(
    name="table2",
    title="Table 2: false-positive rate and bits per item",
    kind="table",
    description="Empirical FP rate and space of every filter at the "
                "benchmark fill level, side by side with the paper's values.",
    run=_run_table2,
    expectations=(
        Expectation("sqf-fp-rate-10x-gqf",
                    "SQF FP rate is several times the GQF's",
                    _table2_sqf_fp),
        Expectation("tcf-space-for-speed",
                    "the TCF family uses more bits/item than the GQF",
                    _table2_tcf_space),
        Expectation("bbf-blocking-costs-accuracy",
                    "the blocked Bloom filter has the highest FPR of the "
                    "Bloom family at equal bits/item",
                    _table2_bbf_accuracy_tradeoff),
        Expectation("fp-within-order-of-paper",
                    "measured FP rates are within 10x of the paper's",
                    _table2_fp_near_paper),
    ),
))


# --------------------------------------------------------------------------
# Table 3: MetaHipMer memory accounting
# --------------------------------------------------------------------------
def _run_table3(preset: Preset) -> StageOutput:
    genome = kmer_mod.random_genome(preset.table3_genome_bp, seed=33)
    reads = kmer_mod.generate_reads(
        genome, 100, preset.table3_coverage, error_rate=0.015, seed=33
    )
    kmers = kmer_mod.extract_kmers(reads, 21)
    expected = max(10_000, int(kmers.size * 1.5))
    with_tcf = KmerAnalysisPhase(expected_kmers=expected, use_tcf=True)
    without = KmerAnalysisPhase(expected_kmers=expected, use_tcf=False)
    with_tcf.process_read_set(reads)
    without.process_read_set(reads)
    singleton_fraction = kmer_mod.singleton_fraction(kmers)

    rows = run_table3()
    reductions = memory_reduction(rows)
    table_rows = [row.as_row() for row in rows]
    text = format_dict_rows(
        table_rows,
        ["dataset", "method", "nodes", "tcf_mem_gb", "ht_mem_gb", "total_mem_gb"],
        "Table 3: MetaHipMer memory usage (aggregate GB across 64 nodes)",
        "{:.0f}",
    )
    functional_rows = [
        {
            "configuration": "synthetic reads + TCF",
            "ht_entries": with_tcf.hash_table.n_entries,
            "ht_bytes": with_tcf.hash_table.nbytes,
            "tcf_bytes": with_tcf.tcf.nbytes,
        },
        {
            "configuration": "synthetic reads, no TCF",
            "ht_entries": without.hash_table.n_entries,
            "ht_bytes": without.hash_table.nbytes,
            "tcf_bytes": 0,
        },
    ]
    functional = format_dict_rows(
        functional_rows,
        ["configuration", "ht_entries", "ht_bytes", "tcf_bytes"],
        f"Functional k-mer analysis run (measured singleton fraction: "
        f"{singleton_fraction:.2f})",
        "{:.0f}",
    )
    data = {
        "rows": table_rows,
        "reductions": {name: float(value) for name, value in reductions.items()},
        "functional": {
            "with_tcf_entries": int(with_tcf.hash_table.n_entries),
            "without_tcf_entries": int(without.hash_table.n_entries),
            "with_tcf_bytes": int(with_tcf.hash_table.nbytes + with_tcf.tcf.nbytes),
            "without_tcf_bytes": int(without.hash_table.nbytes),
            "singleton_fraction": float(singleton_fraction),
        },
    }
    return StageOutput(
        data=data, reports={"table3_metahipmer": text + "\n\n" + functional}
    )


def _table3_singletons_filtered(data: dict) -> Tuple[bool, str]:
    functional = data["functional"]
    if not functional["with_tcf_entries"] < functional["without_tcf_entries"]:
        return False, "the TCF did not keep singletons out of the hash table"
    return True, (
        f"TCF filtering kept the hash table at {functional['with_tcf_entries']} "
        f"entries vs {functional['without_tcf_entries']} without"
    )


def _table3_memory_reduction(data: dict) -> Tuple[bool, str]:
    for dataset in ("WA", "Rhizo"):
        reduction = data["reductions"].get(dataset, 0.0)
        if not reduction > 0.4:
            return False, f"{dataset}: k-mer phase memory reduction is only {reduction:.0%}"
    return True, "the TCF cuts k-mer-phase memory by >40% on both paper datasets"


register_stage(Stage(
    name="table3",
    title="Table 3: MetaHipMer k-mer analysis memory",
    kind="table",
    description="Functional TCF singleton filtering on synthetic reads plus "
                "the paper's WA/Rhizo memory accounting at 64 nodes.",
    run=_run_table3,
    expectations=(
        Expectation("tcf-filters-singletons",
                    "the TCF keeps singleton k-mers out of the hash table",
                    _table3_singletons_filtered),
        Expectation("memory-reduction-over-40pct",
                    "k-mer analysis memory drops >40% on WA and Rhizo",
                    _table3_memory_reduction),
    ),
))


# --------------------------------------------------------------------------
# Table 4: CPU vs GPU filters
# --------------------------------------------------------------------------
_TABLE4_LG_CAPACITY = 28


def _run_table4(preset: Preset) -> StageOutput:
    rows = tables.run_table4(
        lg_capacity=_TABLE4_LG_CAPACITY,
        sim_lg=preset.sim_lg,
        n_queries=preset.n_queries,
    )
    text = format_dict_rows(
        rows,
        ["filter", "device", "insert_mops", "positive_mops", "random_mops",
         "paper_insert_mops", "paper_positive_mops", "paper_random_mops"],
        "Table 4: CPU vs GPU filter throughput (Million ops/s) at 2^28",
        "{:.1f}",
    )
    return StageOutput(
        data={"rows": rows, "lg_capacity": _TABLE4_LG_CAPACITY},
        reports={"table4_cpu_vs_gpu": text},
    )


def _table4_rows(data: dict) -> Dict[str, dict]:
    return {row["filter"]: row for row in data["rows"]}


def _table4_gpu_beats_cpu(data: dict) -> Tuple[bool, str]:
    rows = _table4_rows(data)
    checks = [
        ("GQF", "CQF (CPU)", "insert_mops", 1.0),
        ("TCF", "VQF (CPU)", "insert_mops", 1.0),
        ("GQF", "CQF (CPU)", "positive_mops", 3.0),
        ("TCF", "VQF (CPU)", "positive_mops", 3.0),
    ]
    for gpu, cpu, column, factor in checks:
        if not rows[gpu][column] > factor * rows[cpu][column]:
            return False, f"{gpu} {column} does not beat {factor}x the {cpu}'s"
    return True, "each GPU design beats its CPU ancestor on every operation"


def _table4_cqf_weakness(data: dict) -> Tuple[bool, str]:
    rows = _table4_rows(data)
    if not rows["CQF (CPU)"]["insert_mops"] < rows["VQF (CPU)"]["insert_mops"]:
        return False, "the CPU CQF's lock-contended inserts are not its weak point"
    return True, "the CPU CQF's lock-contended inserts trail the VQF (paper: 2.2 M/s)"


def _table4_tcf_fastest(data: dict) -> Tuple[bool, str]:
    rows = _table4_rows(data)
    if not rows["TCF"]["insert_mops"] > rows["GQF"]["insert_mops"]:
        return False, "the TCF is not the fastest inserter overall"
    return True, "the TCF is the fastest inserter overall"


register_stage(Stage(
    name="table4",
    title="Table 4: CPU (KNL) vs GPU (V100) filter throughput",
    kind="table",
    description="Aggregate throughput of the CPU CQF/VQF against the point "
                "GQF/TCF at a 2^28 filter size.",
    run=_run_table4,
    expectations=(
        Expectation("gpu-beats-cpu",
                    "GPU filters beat their CPU ancestors on every operation",
                    _table4_gpu_beats_cpu),
        Expectation("cqf-insert-weakness",
                    "the CPU CQF's lock-contended inserts trail the VQF",
                    _table4_cqf_weakness),
        Expectation("tcf-fastest-insert",
                    "the TCF is the fastest inserter overall",
                    _table4_tcf_fastest),
    ),
))


# --------------------------------------------------------------------------
# Table 5: GQF counting throughput
# --------------------------------------------------------------------------
def _run_table5(preset: Preset) -> StageOutput:
    results = tables.run_table5(sim_lg=preset.table5_sim_lg)
    grid = tables.table5_as_grid(results)

    headers = ["size (log2)"] + list(tables.TABLE5_DATASETS)
    rows = [[lg] + [grid[lg][name] for name in tables.TABLE5_DATASETS]
            for lg in tables.TABLE5_SIZES]
    measured = format_table(
        headers, rows,
        title="Table 5: GQF counting throughput (Million items/s) — "
              "measured (modelled)",
        float_format="{:.1f}",
    )
    paper_rows = [[lg] + [tables.PAPER_TABLE5[lg][name]
                          for name in tables.TABLE5_DATASETS]
                  for lg in tables.TABLE5_SIZES]
    paper = format_table(
        headers, paper_rows,
        title="Table 5 (paper-reported values, for comparison)",
        float_format="{:.1f}",
    )
    data = {
        "sizes": list(tables.TABLE5_SIZES),
        "datasets": list(tables.TABLE5_DATASETS),
        "grid": {str(lg): {name: float(grid[lg][name])
                           for name in tables.TABLE5_DATASETS}
                 for lg in tables.TABLE5_SIZES},
        "paper": {str(lg): tables.PAPER_TABLE5[lg] for lg in tables.TABLE5_SIZES},
    }
    return StageOutput(
        data=data, reports={"table5_counting": measured + "\n\n" + paper}
    )


def _table5_skew_penalty(data: dict) -> Tuple[bool, str]:
    for lg in data["sizes"]:
        row = data["grid"][str(lg)]
        if not row["Zipfian count"] < 0.2 * row["UR"]:
            return False, f"2^{lg}: un-aggregated Zipfian counting is not slow"
    return True, "un-aggregated Zipfian counting collapses to a few M/s"


def _table5_mapreduce_recovers(data: dict) -> Tuple[bool, str]:
    for lg in data["sizes"]:
        row = data["grid"][str(lg)]
        if not row["Zipfian count (MR)"] > 10 * row["Zipfian count"]:
            return False, f"2^{lg}: map-reduce does not recover the skew penalty"
        if not row["Zipfian count (MR)"] >= 0.8 * row["UR count"]:
            return False, f"2^{lg}: map-reduce Zipfian trails UR-count throughput"
    return True, "map-reduce aggregation recovers (and exceeds) UR-count speed"


def _table5_throughput_scales(data: dict) -> Tuple[bool, str]:
    small, large = str(min(data["sizes"])), str(max(data["sizes"]))
    for name in ("UR", "UR count", "k-mer count"):
        if not data["grid"][large][name] > data["grid"][small][name]:
            return False, f"{name}: counting throughput does not grow with filter size"
    return True, "UR / UR-count / k-mer counting throughput grows with filter size"


def _table5_zipfian_flat(data: dict) -> Tuple[bool, str]:
    zipf = [data["grid"][str(lg)]["Zipfian count"] for lg in data["sizes"]]
    if not max(zipf) < 3 * min(zipf):
        return False, "the non-MR Zipfian column is not flat across sizes"
    return True, "the non-MR Zipfian column stays flat: it does not scale with size"


def _table5_headline(data: dict) -> Tuple[bool, str]:
    largest = str(max(data["sizes"]))
    ur = data["grid"][largest]["UR"]
    if not ur > 300:
        return False, f"UR counting at 2^{largest} reaches only {ur:.0f} M/s"
    return True, f"UR counting reaches {ur:.0f} M/s at 2^{largest} (paper: 566 M/s)"


register_stage(Stage(
    name="table5",
    title="Table 5: GQF counting throughput under skewed datasets",
    kind="table",
    description="Bulk counting throughput for UR / UR-count / Zipfian "
                "(with and without map-reduce) / k-mer datasets, 2^22..2^28.",
    run=_run_table5,
    expectations=(
        Expectation("zipfian-skew-penalty",
                    "un-aggregated Zipfian counting collapses",
                    _table5_skew_penalty),
        Expectation("mapreduce-recovers-skew",
                    "map-reduce aggregation removes the skew penalty",
                    _table5_mapreduce_recovers),
        Expectation("counting-scales-with-size",
                    "non-skewed counting throughput grows with filter size",
                    _table5_throughput_scales),
        Expectation("zipfian-column-flat",
                    "the non-MR Zipfian column does not scale with size",
                    _table5_zipfian_flat),
        Expectation("high-throughput-counting",
                    "UR counting exceeds 300 M/s at the largest size",
                    _table5_headline),
    ),
))


# --------------------------------------------------------------------------
# Ablations
# --------------------------------------------------------------------------
def _max_load_factor(config: TCFConfig, n_slots: int) -> float:
    """Fill a TCF until the first insertion failure; return the load factor."""
    filt = PointTCF(n_slots, config, StatsRecorder())
    keys = generate_keys(n_slots * 2, seed=0xAB1A7E)
    try:
        for key in keys:
            filt.insert(int(key))
    except FilterFullError:
        pass
    return filt.load_factor


def _shortcut_reads_per_insert(shortcut_fill: float, n_slots: int, n_keys: int) -> float:
    config = TCFConfig(fingerprint_bits=16, block_size=16, shortcut_fill=shortcut_fill)
    recorder = StatsRecorder()
    filt = PointTCF(n_slots, config, recorder)
    keys = generate_keys(n_keys, seed=0x5C)
    for key in keys:
        filt.insert(int(key))
    return recorder.total.cache_line_reads / float(n_keys)


def _ablation_quotient_bits(n_keys: int) -> int:
    """Quotient bits sizing the GQF ablations so presets can scale the
    batch: the smallest table holding ``n_keys`` at <= 75% fill, which
    reproduces the historical 3000-keys-into-2^12 (~73% fill) ratio."""
    return max(11, int(np.ceil(np.log2(n_keys / 0.75))))


def _mapreduce_measure(use_mapreduce: bool, n_keys: int) -> Dict[str, int]:
    dataset = zipfian_count_dataset(n_keys, seed=0x21F)
    recorder = StatsRecorder()
    gqf = BulkGQF(_ablation_quotient_bits(n_keys), 8, region_slots=1024,
                  use_mapreduce=use_mapreduce, recorder=recorder)
    gqf.bulk_insert(dataset.keys)
    return {
        "slot_writes": int(recorder.total.cache_line_writes),
        "slots_shifted": int(recorder.total.slots_shifted),
    }


def _sorted_insert_measure(sort_first: bool, n_keys: int) -> int:
    keys = generate_keys(n_keys, seed=0x50F7)
    quotient_bits = _ablation_quotient_bits(n_keys)
    recorder = StatsRecorder()
    core = QuotientFilterCore(quotient_bits, 8, recorder, counting=True)
    scheme = FingerprintScheme(quotient_bits, 8)
    quotients, remainders = scheme.key_to_slot(keys)
    order = np.argsort(quotients) if sort_first else np.arange(keys.size)
    for i in order:
        core.insert_fingerprint(int(quotients[i]), int(remainders[i]))
    return int(recorder.total.slots_shifted)


def _run_ablations(preset: Preset) -> StageOutput:
    n_slots = preset.ablation_slots
    n_keys = preset.ablation_keys

    with_backing = TCFConfig(fingerprint_bits=16, block_size=16, backing_fraction=0.01)
    # A vanishingly small backing table approximates "no backing store".
    without_backing = TCFConfig(fingerprint_bits=16, block_size=16,
                                backing_fraction=1e-9)
    lf_with = _max_load_factor(with_backing, n_slots)
    lf_without = _max_load_factor(without_backing, n_slots)

    shortcut_keys = max(n_keys, n_slots // 2)
    reads_with = _shortcut_reads_per_insert(0.75, n_slots, shortcut_keys)
    reads_without = _shortcut_reads_per_insert(0.0, n_slots, shortcut_keys)

    mr = _mapreduce_measure(True, n_keys)
    direct = _mapreduce_measure(False, n_keys)

    sorted_shifted = _sorted_insert_measure(True, n_keys)
    unsorted_shifted = _sorted_insert_measure(False, n_keys)

    reports = {
        "ablation_backing_table": format_dict_rows(
            [{"configuration": "with backing table (1/100th)",
              "achievable_load_factor": lf_with},
             {"configuration": "without backing table",
              "achievable_load_factor": lf_without}],
            ["configuration", "achievable_load_factor"],
            "Ablation: TCF achievable load factor with/without the backing store",
        ),
        "ablation_shortcut": format_dict_rows(
            [{"configuration": "shortcut at 0.75 fill",
              "cache_line_reads_per_insert": reads_with},
             {"configuration": "shortcut disabled",
              "cache_line_reads_per_insert": reads_without}],
            ["configuration", "cache_line_reads_per_insert"],
            "Ablation: cache-line reads per TCF insert with/without the shortcut",
        ),
        "ablation_mapreduce": format_dict_rows(
            [{"configuration": "map-reduce", **mr},
             {"configuration": "direct", **direct}],
            ["configuration", "slot_writes", "slots_shifted"],
            "Ablation: GQF work on a Zipfian batch with/without map-reduce",
        ),
        "ablation_sorted_insert": format_dict_rows(
            [{"configuration": "sorted batch", "slots_shifted": sorted_shifted},
             {"configuration": "unsorted batch", "slots_shifted": unsorted_shifted}],
            ["configuration", "slots_shifted"],
            "Ablation: Robin-Hood slots shifted with sorted vs unsorted batches",
        ),
    }
    data = {
        "backing_table": {"with_lf": float(lf_with), "without_lf": float(lf_without)},
        "shortcut": {"reads_with": float(reads_with),
                     "reads_without": float(reads_without)},
        "mapreduce": {"mr": mr, "direct": direct},
        "sorted_insert": {"sorted_shifted": sorted_shifted,
                          "unsorted_shifted": unsorted_shifted},
    }
    return StageOutput(data=data, reports=reports)


def _ablation_backing(data: dict) -> Tuple[bool, str]:
    backing = data["backing_table"]
    # At benchmark scale the first both-blocks-full event strikes later than
    # at the paper's 2^28 scale, so the check is directional: the backing
    # table must extend the achievable load factor to the 90% target.
    if not backing["with_lf"] >= 0.89:
        return False, f"with the backing table the TCF only reaches {backing['with_lf']:.1%}"
    if not backing["without_lf"] < backing["with_lf"]:
        return False, "the backing table does not extend the achievable load factor"
    return True, (
        f"backing table extends achievable load "
        f"{backing['without_lf']:.1%} -> {backing['with_lf']:.1%} (paper: 79.6% -> 90%)"
    )


def _ablation_shortcut(data: dict) -> Tuple[bool, str]:
    shortcut = data["shortcut"]
    saved = shortcut["reads_without"] - shortcut["reads_with"]
    if not (shortcut["reads_with"] < shortcut["reads_without"] and saved > 0.5):
        return False, f"the shortcut saves only {saved:.2f} cache-line reads per insert"
    return True, f"the shortcut saves {saved:.2f} cache-line reads per insert (~one line)"


def _ablation_mapreduce(data: dict) -> Tuple[bool, str]:
    mapreduce = data["mapreduce"]
    if not mapreduce["mr"]["slot_writes"] < mapreduce["direct"]["slot_writes"]:
        return False, "map-reduce does not reduce slot writes on a Zipfian batch"
    return True, "map-reduce aggregation removes the hot-item work from skewed batches"


def _ablation_sorted(data: dict) -> Tuple[bool, str]:
    sorted_insert = data["sorted_insert"]
    bound = 0.2 * sorted_insert["unsorted_shifted"] + 5
    if not sorted_insert["sorted_shifted"] <= bound:
        return False, (
            f"sorted insertion still shifts {sorted_insert['sorted_shifted']} slots "
            f"(unsorted: {sorted_insert['unsorted_shifted']})"
        )
    return True, "sorting the batch eliminates intra-batch Robin-Hood shifting"


register_stage(Stage(
    name="ablations",
    title="Ablations: backing table, shortcut, map-reduce, sorted insert",
    kind="ablation",
    description="Verifies that the mechanisms the paper credits for its "
                "performance/robustness carry their weight in this "
                "reproduction.",
    run=_run_ablations,
    expectations=(
        Expectation("backing-table-extends-load",
                    "the backing table raises the achievable load factor to 90%",
                    _ablation_backing),
        Expectation("shortcut-saves-a-cache-line",
                    "the shortcut saves ~one cache-line read per insert",
                    _ablation_shortcut),
        Expectation("mapreduce-reduces-writes",
                    "map-reduce reduces slot writes on Zipfian batches",
                    _ablation_mapreduce),
        Expectation("sorted-insert-no-shifting",
                    "sorted batches eliminate intra-batch shifting",
                    _ablation_sorted),
    ),
))


# --------------------------------------------------------------------------
# Point-path wall-clock timing (perf-trajectory guard)
# --------------------------------------------------------------------------
#: Minimum sustained rates (keys/s) for the vectorised point paths; the
#: historical thresholds (50k inserts < 0.4s etc.) expressed per key so the
#: guard scales with the preset's batch sizes.
_TIMING_MIN_RATES = {
    "gqf_point_insert_s": 125_000.0,
    "tcf_point_insert_s": 83_000.0,
    "tcf_point_query_s": 100_000.0,
}


#: Repeats behind each point-path insert/query/delete timing; the median is
#: recorded.
_POINT_REPEATS = 5


def _timed(label: str, timings: Dict[str, float], fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    timings[label] = round(time.perf_counter() - start, 6)
    return result


def _time_point_filter(
    prefix: str, make, keys: np.ndarray, probes: np.ndarray, timings: Dict[str, float]
) -> None:
    """Median-of-:data:`_POINT_REPEATS` insert, query and delete timings.

    Inserts and deletes mutate the table, so every repeat builds a fresh
    filter and runs the whole insert -> query -> delete cycle on it.
    """
    samples: Dict[str, List[float]] = {"insert": [], "query": [], "delete": []}
    for _ in range(_POINT_REPEATS):
        filt = make()
        for op, fn, batch in (
            ("insert", filt.bulk_insert, keys),
            ("query", filt.bulk_query, probes),
            ("delete", filt.bulk_delete, probes),
        ):
            start = time.perf_counter()
            fn(batch)
            samples[op].append(time.perf_counter() - start)
    for op, seconds in samples.items():
        timings[f"{prefix}_point_{op}_s"] = round(statistics.median(seconds), 6)


def _run_point_timing(preset: Preset) -> StageOutput:
    n_inserts = preset.timing_inserts
    n_queries = preset.timing_queries
    rng = np.random.default_rng(0xBEEF)
    keys = rng.integers(0, 2**63, size=n_inserts, dtype=np.uint64)
    probes = keys[:n_queries]
    capacity = n_inserts + n_queries
    timings: Dict[str, float] = {}
    _time_point_filter(
        "gqf",
        lambda: PointGQF.for_capacity(capacity, recorder=StatsRecorder()),
        keys,
        probes,
        timings,
    )
    _time_point_filter(
        "tcf",
        lambda: PointTCF.for_capacity(capacity, recorder=StatsRecorder()),
        keys,
        probes,
        timings,
    )

    genome = kmer_mod.random_genome(preset.kmer_genome_bp, seed=1)
    reads = kmer_mod.generate_reads(genome, coverage=preset.kmer_coverage, seed=2)
    kmers = _timed("kmer_extract_s", timings, kmer_mod.extract_kmers, reads, 21)
    counter = GPUKmerCounter(expected_kmers=int(kmers.size), exclude_singletons=True)
    _timed("app_kmer_counter_s", timings, counter.count_kmers, kmers)
    phase = KmerAnalysisPhase(expected_kmers=int(kmers.size))
    _timed("app_metahipmer_s", timings, phase.process_kmers, kmers)

    lines = ["Point-path wall-clock timings (functional simulation, this machine)",
             f"  batch sizes: {n_inserts} inserts, {n_queries} queries, "
             f"{int(kmers.size)} k-mers"]
    lines += [f"  {key:<24s} {seconds:8.4f}" for key, seconds in timings.items()]
    data = {
        "timings": timings,
        "preset": preset.name,
        "n_inserts": n_inserts,
        "n_queries": n_queries,
        "n_kmers": int(kmers.size),
        "min_rates": dict(_TIMING_MIN_RATES),
    }
    # BENCH_POINT.json is the cross-PR perf trajectory: it must carry the
    # batch sizes alongside the seconds, or runs at different presets would
    # look like phantom speedups/regressions.
    trajectory = {key: data[key]
                  for key in ("preset", "n_inserts", "n_queries", "n_kmers", "timings")}
    return StageOutput(
        data=data,
        reports={"bench_point_timing": "\n".join(lines)},
        files={"BENCH_POINT.json": json.dumps(trajectory, indent=2) + "\n"},
    )


def _timing_rates(data: dict) -> Tuple[bool, str]:
    batch = {"gqf_point_insert_s": data["n_inserts"],
             "tcf_point_insert_s": data["n_inserts"],
             "tcf_point_query_s": data["n_queries"]}
    for label, min_rate in data.get("min_rates", _TIMING_MIN_RATES).items():
        seconds = data["timings"][label]
        n = batch[label]
        rate = n / seconds if seconds > 0 else float("inf")
        if rate < min_rate:
            return False, (
                f"{label}: {rate:,.0f} keys/s is below the {min_rate:,.0f}/s "
                f"vectorisation guard"
            )
    return True, "the vectorised point paths sustain their guarded key rates"


register_stage(Stage(
    name="point_timing",
    title="Point-path wall-clock timing (perf-trajectory guard)",
    kind="timing",
    description="Measures how long the functional simulation itself takes "
                "on the point-API batched paths and the k-mer applications; "
                "also writes BENCH_POINT.json for the perf trajectory.",
    run=_run_point_timing,
    serial=True,
    expectations=(
        Expectation("point-paths-stay-vectorised",
                    "point-path wall-clock rates stay above the 50x guard",
                    _timing_rates),
    ),
))


# --------------------------------------------------------------------------
# Filter lifecycle: snapshots, k-way merge, online resize
# --------------------------------------------------------------------------
def _lifecycle_filters(preset: Preset):
    """One representative of each lifecycle-bearing family, sized to preset."""
    from ..baselines import BloomFilter, CPUCountingQuotientFilter
    from ..core.tcf import BulkTCF

    lg = preset.lifecycle_lg
    n_slots = 1 << lg
    return {
        "gqf_point": PointGQF(lg, 8, recorder=StatsRecorder()),
        "gqf_bulk": BulkGQF(lg, 8, recorder=StatsRecorder()),
        "tcf_point": PointTCF(n_slots, recorder=StatsRecorder()),
        "tcf_bulk": BulkTCF(n_slots, recorder=StatsRecorder()),
        "bloom": BloomFilter(n_slots * 16, recorder=StatsRecorder()),
        "cqf_cpu": CPUCountingQuotientFilter(lg, 8, recorder=StatsRecorder()),
    }


def _run_lifecycle(preset: Preset) -> StageOutput:
    from ..core.exceptions import SnapshotError
    from ..core.tcf import BulkTCF
    from ..lifecycle import merge, save_filter

    rng = np.random.default_rng(0x51FE)
    n_keys = preset.lifecycle_keys
    # Keys 0/1 collide with the TCF backing store's reserved words and get
    # displaced there; skipping them keeps the bit-identity check strict.
    keys = rng.integers(2, 2**63, size=n_keys, dtype=np.uint64)

    snapshot_dir = os.environ.get("REPRO_SNAPSHOT_DIR")
    rows: List[Dict[str, object]] = []
    corruption_rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = snapshot_dir or tmp
        os.makedirs(out_dir, exist_ok=True)
        for name, filt in _lifecycle_filters(preset).items():
            filt.bulk_insert(keys)
            path = os.path.join(out_dir, f"{name}.rpro")
            start = time.perf_counter()
            nbytes = save_filter(filt, path)
            save_s = time.perf_counter() - start
            start = time.perf_counter()
            loaded = type(filt).load(path)
            load_s = time.perf_counter() - start
            identical = all(
                np.array_equal(np.asarray(a), np.asarray(b))
                for (_, a), (_, b) in zip(
                    sorted(filt.snapshot_state().items()),
                    sorted(loaded.snapshot_state().items()),
                )
            )
            queries_match = bool(
                np.array_equal(filt.bulk_query(keys), loaded.bulk_query(keys))
            )
            rows.append({
                "filter": name,
                "snapshot_bytes": int(nbytes),
                "save_s": round(save_s, 6),
                "load_s": round(load_s, 6),
                "save_mbps": round(nbytes / max(save_s, 1e-9) / 1e6, 1),
                "load_mbps": round(nbytes / max(load_s, 1e-9) / 1e6, 1),
                "bit_identical": bool(identical),
                "queries_match": queries_match,
            })
        # Corruption detection: a truncated snapshot must be rejected.
        probe = os.path.join(tmp, "truncated.rpro")
        small = PointGQF(8, 8, recorder=StatsRecorder())
        small.bulk_insert(keys[:64])
        size = save_filter(small, probe)
        with open(probe, "r+b") as fh:
            fh.truncate(size - 16)
        try:
            PointGQF.load(probe)
            corruption_rejected = False
        except SnapshotError:
            pass

    # k-way merge: k disjoint shards vs one filter fed the union.
    k = preset.lifecycle_merge_k
    shards = np.array_split(keys, k)
    gqf_parts = []
    for shard in shards:
        part = BulkGQF(preset.lifecycle_lg, 8, recorder=StatsRecorder())
        part.bulk_insert(shard)
        gqf_parts.append(part)
    start = time.perf_counter()
    gqf_merged = merge(*gqf_parts)
    gqf_merge_s = time.perf_counter() - start
    reference = BulkGQF(gqf_merged.scheme.quotient_bits,
                        gqf_merged.scheme.remainder_bits,
                        recorder=StatsRecorder(), enforce_alignment=False)
    reference.bulk_insert(keys)
    gqf_merge_exact = bool(
        np.array_equal(
            gqf_merged.core.slots.peek(), reference.core.slots.peek()
        )
    ) and bool(gqf_merged.bulk_query(keys).all())

    tcf_parts = []
    for shard in shards:
        part = BulkTCF(1 << preset.lifecycle_lg, recorder=StatsRecorder(),
                       auto_resize=True)
        part.bulk_insert(shard)
        tcf_parts.append(part)
    start = time.perf_counter()
    tcf_merged = merge(*tcf_parts)
    tcf_merge_s = time.perf_counter() - start
    tcf_merge_complete = bool(tcf_merged.bulk_query(keys).all())

    # Online resize: fill far past the initial capacity.
    resize_tcf = PointTCF(256, recorder=StatsRecorder(), auto_resize=True)
    start = time.perf_counter()
    resize_tcf.bulk_insert(keys)
    tcf_resize_s = time.perf_counter() - start
    tcf_resize_ok = bool(resize_tcf.bulk_query(keys).all())

    # Start at a quarter of the key count so growth is unavoidable (the
    # core's overflow region can absorb ~25% past the canonical slots).
    start_lg = max(4, int(np.log2(max(16, n_keys // 4))))
    resize_gqf = PointGQF(start_lg, 16, recorder=StatsRecorder(), auto_resize=True)
    start = time.perf_counter()
    resize_gqf.bulk_insert(keys)
    gqf_resize_s = time.perf_counter() - start
    gqf_resize_ok = bool(resize_gqf.bulk_query(keys).all())
    grown = gqf_parts[0]
    n_slots = grown.n_slots
    grown.grow()
    expand_ok = grown.n_slots == 2 * n_slots and bool(grown.bulk_query(shards[0]).all())

    data = {
        "preset": preset.name,
        "n_keys": int(n_keys),
        "merge_k": int(k),
        "snapshots": rows,
        "corruption_rejected": corruption_rejected,
        "snapshot_dir": snapshot_dir or "",
        "gqf_merge": {"seconds": round(gqf_merge_s, 6), "exact": gqf_merge_exact,
                      "quotient_bits": int(gqf_merged.scheme.quotient_bits)},
        "tcf_merge": {"seconds": round(tcf_merge_s, 6),
                      "complete": tcf_merge_complete,
                      "n_slots": int(tcf_merged.table.n_slots)},
        "tcf_resize": {"seconds": round(tcf_resize_s, 6), "ok": tcf_resize_ok,
                       "n_resizes": int(resize_tcf.n_resizes),
                       "n_slots": int(resize_tcf.table.n_slots)},
        "gqf_resize": {"seconds": round(gqf_resize_s, 6), "ok": gqf_resize_ok,
                       "n_resizes": int(resize_gqf.n_resizes),
                       "quotient_bits": int(resize_gqf.scheme.quotient_bits)},
        "explicit_expand_ok": bool(expand_ok),
    }
    lines = [
        "Filter lifecycle: snapshot round trips, k-way merge, online resize",
        f"  {n_keys} keys per filter, {k}-way merge, preset {preset.name!r}",
        "",
        f"  {'filter':<12s} {'bytes':>10s} {'save MB/s':>10s} {'load MB/s':>10s} "
        f"{'identical':>10s}",
    ]
    for row in rows:
        lines.append(
            f"  {row['filter']:<12s} {row['snapshot_bytes']:>10d} "
            f"{row['save_mbps']:>10.1f} {row['load_mbps']:>10.1f} "
            f"{str(row['bit_identical']):>10s}"
        )
    lines += [
        "",
        f"  truncated snapshot rejected: {corruption_rejected}",
        f"  GQF {k}-way merge: exact={gqf_merge_exact} "
        f"({gqf_merge_s:.4f}s, q={data['gqf_merge']['quotient_bits']})",
        f"  TCF {k}-way merge: complete={tcf_merge_complete} "
        f"({tcf_merge_s:.4f}s, {data['tcf_merge']['n_slots']} slots)",
        f"  TCF online resize: {data['tcf_resize']['n_resizes']} doublings to "
        f"{data['tcf_resize']['n_slots']} slots, membership intact={tcf_resize_ok}",
        f"  GQF online resize: q grew to {data['gqf_resize']['quotient_bits']}, "
        f"membership intact={gqf_resize_ok}",
    ]
    return StageOutput(data=data, reports={"lifecycle": "\n".join(lines)})


def _lifecycle_roundtrip(data: dict) -> Tuple[bool, str]:
    bad = [r["filter"] for r in data["snapshots"]
           if not (r["bit_identical"] and r["queries_match"])]
    if bad:
        return False, f"snapshot round trip not bit-identical for: {', '.join(bad)}"
    return True, "every filter family round-trips through save/load bit-identically"


def _lifecycle_corruption(data: dict) -> Tuple[bool, str]:
    if not data["corruption_rejected"]:
        return False, "a truncated snapshot loaded without error"
    return True, "the checksum rejects truncated snapshots"


def _lifecycle_merge(data: dict) -> Tuple[bool, str]:
    if not data["gqf_merge"]["exact"]:
        return False, "the merged GQF differs from a filter fed the union"
    if not data["tcf_merge"]["complete"]:
        return False, "the merged TCF lost members"
    return True, "k-way merge preserves membership (GQF merge is bit-exact)"


def _lifecycle_resize(data: dict) -> Tuple[bool, str]:
    tcf, gqf = data["tcf_resize"], data["gqf_resize"]
    if not (tcf["ok"] and tcf["n_resizes"] > 0):
        return False, "the TCF did not absorb an over-capacity insert stream"
    if not (gqf["ok"] and gqf["n_resizes"] > 0):
        return False, "the GQF did not absorb an over-capacity insert stream"
    if not data["explicit_expand_ok"]:
        return False, "grow() did not double the filter or lost members"
    return True, "filters filled past capacity grow online instead of raising"


register_stage(Stage(
    name="lifecycle",
    title="Filter lifecycle: snapshots, k-way merge, online resize",
    kind="ablation",
    description="Exercises the lifecycle layer the MetaHipMer pipeline "
                "assumes: versioned zero-copy snapshots for every filter, "
                "k-way sorted-run merges, and load-factor-triggered online "
                "resizing for the GQF and TCF cores.",
    run=_run_lifecycle,
    serial=True,
    expectations=(
        Expectation("snapshot-roundtrip-bit-identical",
                    "save/load round-trips every filter family bit-identically",
                    _lifecycle_roundtrip),
        Expectation("snapshot-detects-corruption",
                    "the CRC rejects truncated snapshot files",
                    _lifecycle_corruption),
        Expectation("merge-preserves-membership",
                    "k-way merges preserve membership and counts",
                    _lifecycle_merge),
        Expectation("resize-absorbs-overflow",
                    "over-capacity insert streams trigger online growth",
                    _lifecycle_resize),
    ),
))


# --------------------------------------------------------------------------
# Filter service: fault-tolerant bulk-job traffic, clean and under chaos
# --------------------------------------------------------------------------
def _run_service(preset: Preset) -> StageOutput:
    from ..service import FaultConfig, TrafficConfig, run_traffic

    traffic = TrafficConfig(
        n_clients=preset.service_clients,
        jobs_per_client=preset.service_jobs_per_client,
        keys_per_job=preset.service_keys_per_job,
    )
    # CI exports REPRO_JOURNAL_DIR to upload the chaos run's job journal as
    # a build artifact; locally a temp dir is used and discarded.
    journal_root = os.environ.get("REPRO_JOURNAL_DIR")
    with tempfile.TemporaryDirectory() as tmp:
        clean = run_traffic(
            os.path.join(tmp, "clean"),
            traffic=traffic,
            faults=FaultConfig(),
            with_recovery=False,
        )
        faulty_dir = journal_root or os.path.join(tmp, "faulty")
        os.makedirs(faulty_dir, exist_ok=True)
        faulty = run_traffic(
            faulty_dir,
            traffic=traffic,
            faults=FaultConfig(
                seed=0xC0A5,
                worker_crash_rate=0.25,
                slow_batch_rate=0.20,
                slow_batch_s=0.002,
                filter_full_rate=0.15,
            ),
            with_recovery=True,
        )

    data = {
        "preset": preset.name,
        "n_jobs": int(traffic.n_clients * traffic.jobs_per_client),
        "keys_per_job": int(traffic.keys_per_job),
        "clean": clean,
        "faulty": faulty,
    }
    lines = [
        "Filter service: bulk-job traffic, clean and under fault injection",
        f"  {traffic.n_clients} clients x {traffic.jobs_per_client} jobs x "
        f"{traffic.keys_per_job} keys, preset {preset.name!r}",
        "",
        f"  {'run':<8s} {'jobs/s':>9s} {'keys/s':>11s} {'p50 ms':>8s} "
        f"{'p99 ms':>8s} {'goodput':>8s} {'lost':>5s} {'dup':>5s}",
    ]
    for label, run in (("clean", clean), ("faulty", faulty)):
        lines.append(
            f"  {label:<8s} {run['jobs_per_s']:>9.1f} {run['keys_per_s']:>11.1f} "
            f"{run['latency_p50_s'] * 1e3:>8.2f} {run['latency_p99_s'] * 1e3:>8.2f} "
            f"{run['goodput']:>8.4f} {run['lost_acks']:>5d} "
            f"{run['duplicate_effects']:>5d}"
        )
    recovery = faulty.get("recovery", {})
    lines += [
        "",
        f"  statuses (faulty): {faulty['status_counts']}",
        f"  faults fired: {faulty['faults_fired']}",
        f"  registry (faulty): {faulty['registry']}",
        f"  recovery: torn={recovery.get('torn_tenant')!r} "
        f"recreated={recovery.get('recreated')} "
        f"lost_after_recovery={recovery.get('lost_after_recovery')} "
        f"idempotent_across_restart={recovery.get('idempotent_across_restart')}",
    ]
    return StageOutput(data=data, reports={"service": "\n".join(lines)})


def _service_all_terminal(data: dict) -> Tuple[bool, str]:
    for label in ("clean", "faulty"):
        run = data[label]
        if not run["drained"] or run["non_terminal"]:
            return False, (
                f"{label} run left {run['non_terminal']} job(s) non-terminal "
                f"(drained={run['drained']})"
            )
    return True, "every submitted job reached a terminal state in both runs"


def _service_effects_exact(data: dict) -> Tuple[bool, str]:
    for label in ("clean", "faulty"):
        run = data[label]
        if run["lost_acks"] or run["duplicate_effects"]:
            return False, (
                f"{label} run: {run['lost_acks']} lost ack(s), "
                f"{run['duplicate_effects']} duplicated effect(s)"
            )
    recovery = data["faulty"].get("recovery", {})
    if recovery.get("lost_after_recovery", 0):
        return False, (
            f"{recovery['lost_after_recovery']} acked key(s) missing after "
            f"journal recovery"
        )
    return True, (
        "no lost acks and no duplicated effects, including across the "
        "torn-snapshot crash recovery"
    )


def _service_idempotent(data: dict) -> Tuple[bool, str]:
    if not data["clean"]["idempotent_resubmits"]:
        return False, "clean-run resubmission returned a different result"
    if not data["faulty"]["idempotent_resubmits"]:
        return False, "faulty-run resubmission returned a different result"
    recovery = data["faulty"].get("recovery", {})
    if not recovery.get("idempotent_across_restart", False):
        return False, "a pre-crash request ID was re-executed after recovery"
    return True, (
        "request-ID resubmission returns the original result, in-process "
        "and across crash recovery"
    )


def _service_absorbs_faults(data: dict) -> Tuple[bool, str]:
    faulty = data["faulty"]
    fired = sum(faulty["faults_fired"].values())
    if fired == 0:
        return False, "the chaos run injected no faults (harness misconfigured)"
    # Growable tenants must ack everything; the fixed-capacity tenant is
    # designed to fill (that is the PARTIAL-path exercise), so it is held to
    # the overall goodput floor only.
    if data["clean"]["goodput_growable"] < 1.0:
        return False, (
            f"clean growable goodput {data['clean']['goodput_growable']} < 1.0: "
            f"keys were lost without any injected faults"
        )
    # Bounded retries may legitimately exhaust on an unlucky batch, so the
    # chaos run gets a small margin rather than an exact-1.0 gate.
    if faulty["goodput_growable"] < 0.9:
        return False, (
            f"faulty growable goodput {faulty['goodput_growable']} < 0.9: "
            f"retries did not absorb the injected faults"
        )
    if faulty["goodput"] < 0.5:
        return False, (
            f"faulty overall goodput {faulty['goodput']} < 0.5"
        )
    return True, (
        f"{fired} injected fault(s) absorbed: clean growable goodput 1.0, "
        f"faulty growable goodput {faulty['goodput_growable']}"
    )


def _service_bounded_p99(data: dict) -> Tuple[bool, str]:
    # A hang gate, not a perf benchmark: the bound scales with the preset's
    # traffic volume (the submission burst is closed-loop, so tail latency
    # tracks the drain makespan).
    bound_s = max(5.0, data["n_jobs"] * data["keys_per_job"] / 1000.0)
    for label in ("clean", "faulty"):
        p99 = data[label]["latency_p99_s"]
        if p99 > bound_s:
            return False, f"{label} p99 latency {p99:.3f}s exceeds {bound_s}s"
    return True, (
        f"p99 latency bounded (clean {data['clean']['latency_p99_s'] * 1e3:.1f}ms, "
        f"faulty {data['faulty']['latency_p99_s'] * 1e3:.1f}ms)"
    )


register_stage(Stage(
    name="service",
    title="Filter service: fault-tolerant bulk-job traffic",
    kind="ablation",
    description="Drives the repro.service bulk-job front end with mixed "
                "multi-tenant traffic, clean and under seeded fault "
                "injection (worker crashes, slow batches, filter-full "
                "storms, a torn snapshot + journal recovery), and audits "
                "the robustness invariants: every job terminal, no lost "
                "acks, no duplicated effects, idempotent resubmission, "
                "bounded tail latency.",
    run=_run_service,
    serial=True,
    expectations=(
        Expectation("service-all-jobs-terminal",
                    "every submitted job reaches a terminal state",
                    _service_all_terminal),
        Expectation("service-no-lost-or-duplicated-effects",
                    "acked effects are exact: none lost, none duplicated",
                    _service_effects_exact),
        Expectation("service-idempotent-resubmission",
                    "resubmitting a request ID returns the original result",
                    _service_idempotent),
        Expectation("service-absorbs-faults",
                    "injected faults are retried into successful outcomes",
                    _service_absorbs_faults),
        Expectation("service-bounded-p99",
                    "tail latency stays bounded even under chaos",
                    _service_bounded_p99),
    ),
))


# --------------------------------------------------------------------------
# Sharded filters: process-parallel scaling curve
# --------------------------------------------------------------------------
#: Shard counts of the scaling curve (the paper's multi-GPU shape, Table 4's
#: "one filter per device" usage, rebuilt over host processes).
SHARDING_CURVE = (1, 2, 4, 8)


def _sharding_time(n_shards: int, preset: Preset, keys: np.ndarray) -> dict:
    """Build one sharded GQF and time one bulk insert and one bulk query."""
    from ..sharding import ShardedFilter

    filt = ShardedFilter(
        n_shards,
        BulkGQF,
        {"quotient_bits": preset.sharding_lg - int(np.log2(n_shards)), "remainder_bits": 8},
        max_workers=n_shards,
    )
    try:
        filt.warm_up()
        start = time.perf_counter()
        filt.bulk_insert(keys)
        insert_s = time.perf_counter() - start
        start = time.perf_counter()
        present = filt.bulk_query(keys[: preset.sharding_queries])
        query_s = time.perf_counter() - start
        return {"insert_s": insert_s, "query_s": query_s,
                "present": bool(present.all()), "items": filt.shard_items()}
    finally:
        filt.close()


def _sharding_curve(preset: Preset, repeats: int = 2) -> List[dict]:
    """Time the curve in rounds and keep each point's best.

    Each round builds and times every shard count once, so a busy stretch
    of the host slows every point of a round alike instead of all the
    repeats of one point.
    """
    keys = np.random.default_rng(0x5A4D).integers(
        0, 2**63, size=preset.sharding_keys, dtype=np.uint64
    )
    rounds = [
        [_sharding_time(n, preset, keys) for n in SHARDING_CURVE] for _ in range(repeats)
    ]
    curve = []
    for n_shards, runs in zip(SHARDING_CURVE, zip(*rounds)):
        insert_s = min(run["insert_s"] for run in runs)
        query_s = min(run["query_s"] for run in runs)
        items = runs[-1]["items"]
        curve.append({
            "n_shards": n_shards,
            "insert_s": round(insert_s, 6),
            "query_s": round(query_s, 6),
            "insert_rate": round(preset.sharding_keys / insert_s, 1),
            "query_rate": round(preset.sharding_queries / query_s, 1),
            "n_items": int(sum(items)),
            "balance": round(max(items) / (sum(items) / len(items)), 4),
            "all_inserted_present": all(run["present"] for run in runs),
        })
    return curve


def _run_sharding(preset: Preset) -> StageOutput:
    curve = _sharding_curve(preset)
    base_rate = curve[0]["insert_rate"]
    for point in curve:
        point["insert_speedup"] = round(point["insert_rate"] / base_rate, 3)
        point["query_speedup"] = round(point["query_rate"] / curve[0]["query_rate"], 3)
    lines = [
        "Sharded-filter scaling curve (process-parallel bulk insert/query)",
        f"  logical capacity 2^{preset.sharding_lg} slots, "
        f"{preset.sharding_keys} keys, {preset.sharding_queries} queries, "
        f"{os.cpu_count()} host cores",
        f"  {'shards':>7s} {'insert M/s':>11s} {'speedup':>8s} "
        f"{'query M/s':>10s} {'balance':>8s}",
    ]
    lines += [
        f"  {p['n_shards']:>7d} {p['insert_rate'] / 1e6:>11.3f} "
        f"{p['insert_speedup']:>8.2f} {p['query_rate'] / 1e6:>10.3f} "
        f"{p['balance']:>8.3f}"
        for p in curve
    ]
    data = {
        "curve": curve,
        "preset": preset.name,
        "cpu_count": os.cpu_count(),
        "n_keys": preset.sharding_keys,
        "n_queries": preset.sharding_queries,
        "sharding_lg": preset.sharding_lg,
    }
    return StageOutput(
        data=data,
        reports={"bench_sharding": "\n".join(lines)},
        files={"BENCH_SHARDING.json": json.dumps(data, indent=2) + "\n"},
    )


def _sharding_routes_all_keys(data: dict) -> Tuple[bool, str]:
    # Item counts differ from n_keys only by fingerprint collisions (the
    # shard geometry changes with the shard count, so small cross-curve
    # variation is expected); routing must never *drop* a key.
    for point in data["curve"]:
        if point["n_items"] < 0.98 * data["n_keys"]:
            return False, (
                f"{point['n_shards']} shard(s) hold {point['n_items']} items "
                f"for {data['n_keys']} routed keys"
            )
    return True, "every curve point holds its full routed key set"


def _sharding_balanced(data: dict) -> Tuple[bool, str]:
    worst = max(data["curve"], key=lambda p: p["balance"])
    if worst["balance"] > 1.25:
        return False, (
            f"{worst['n_shards']} shards: heaviest shard is {worst['balance']:.3f}x "
            f"the mean (router skew)"
        )
    return True, (
        f"shards stay balanced (worst max/mean {worst['balance']:.3f} "
        f"at {worst['n_shards']} shards)"
    )


def _sharding_query_parity(data: dict) -> Tuple[bool, str]:
    for point in data["curve"]:
        if not point["all_inserted_present"]:
            return False, (
                f"{point['n_shards']} shard(s): an inserted key queried False "
                f"(routing must be insert/query consistent)"
            )
    return True, "inserted keys query positive at every shard count"


def _sharding_scales(data: dict) -> Tuple[bool, str]:
    # Core-aware gate: wall-clock scaling needs physical parallelism, so the
    # bar moves with the machine (CI pins the strict 4-core variant).
    cores = data["cpu_count"] or 1
    speedups = {p["n_shards"]: p["insert_speedup"] for p in data["curve"]}
    if cores >= 4:
        if speedups.get(4, 0.0) < 2.0:
            return False, (
                f"4-shard insert speedup {speedups.get(4)}x < 2.0x "
                f"on a {cores}-core host"
            )
        return True, f"4 shards insert {speedups[4]}x faster than 1 ({cores} cores)"
    if cores >= 2:
        if speedups.get(2, 0.0) < 1.3:
            return False, (
                f"2-shard insert speedup {speedups.get(2)}x < 1.3x "
                f"on a {cores}-core host"
            )
        return True, f"2 shards insert {speedups[2]}x faster than 1 ({cores} cores)"
    return True, (
        f"single-core host: scaling not measurable "
        f"(1-shard rate {data['curve'][0]['insert_rate'] / 1e6:.2f} M/s recorded)"
    )


register_stage(Stage(
    name="sharding",
    title="Sharded filters: process-parallel scaling curve",
    kind="timing",
    description="Hash-partitions one logical GQF across 1/2/4/8 shared-"
                "memory shards, runs bulk inserts and queries across a "
                "process pool, and records the wall-clock scaling curve; "
                "also writes BENCH_SHARDING.json for the perf trajectory.",
    run=_run_sharding,
    serial=True,
    expectations=(
        Expectation("sharding-routes-all-keys",
                    "every key lands in exactly one shard, none dropped",
                    _sharding_routes_all_keys),
        Expectation("sharding-stays-balanced",
                    "the router spreads keys evenly (max/mean <= 1.25)",
                    _sharding_balanced),
        Expectation("sharding-query-parity",
                    "inserted keys query positive at every shard count",
                    _sharding_query_parity),
        Expectation("sharding-insert-scales",
                    "bulk inserts speed up with shards (core-aware gate)",
                    _sharding_scales),
    ),
))
