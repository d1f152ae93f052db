"""Perf-trajectory gate: fresh wall-clock rates vs committed history.

``repro check --perf`` compares the rate metrics of a fresh run's
``BENCH_POINT.json`` / ``BENCH_SHARDING.json`` against the *committed*
copies under ``benchmarks/results/`` and fails when a fresh rate falls
below ``median(history) / slack``.

The committed baseline for each file is either one raw snapshot (exactly
what the stage wrote) or an accumulating history document::

    {"history": [<snapshot at smoke>, <snapshot at default>, ...]}

Only history entries recorded at the *same preset* as the fresh run are
compared — rates at different batch sizes are not comparable.  The learned
threshold is deliberately loose (``slack`` defaults to 3.0, overridable
with ``REPRO_PERF_SLACK``): shared CI runners are noisy, and the gate's
job is to catch the order-of-magnitude regressions that silently
de-vectorise a hot path (the failure mode PR 4 fixed by hand), not 10%
jitter.  Tighter per-path floors live in the stages' own expectations.

A fresh metric with no baseline history yet is reported and skipped, so
adding a new benchmark never breaks the gate retroactively; a *missing
baseline file* fails it, because the trajectory cannot be checked at all.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
from typing import Callable, Dict, List, Optional

#: Default ratio by which a fresh rate may trail the baseline median.
DEFAULT_SLACK = 3.0

#: The benchmark files the gate knows how to read.
PERF_FILES = ("BENCH_POINT.json", "BENCH_SHARDING.json")


def _slack() -> float:
    raw = os.environ.get("REPRO_PERF_SLACK", "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_SLACK
    return value if value >= 1.0 else DEFAULT_SLACK


def _point_rates(entry: dict) -> Dict[str, float]:
    """keys/s (or k-mers/s) for every timing in a BENCH_POINT snapshot."""
    rates: Dict[str, float] = {}
    for label, seconds in entry.get("timings", {}).items():
        if "kmer" in label or label.startswith("app_"):
            batch = entry.get("n_kmers")
        elif "insert" in label:
            batch = entry.get("n_inserts")
        else:  # query / delete batches
            batch = entry.get("n_queries")
        if batch and seconds and seconds > 0:
            rates[label.removesuffix("_s")] = batch / seconds
    return rates


def _sharding_rates(entry: dict) -> Dict[str, float]:
    """Rates for the anchor points of a BENCH_SHARDING scaling curve."""
    curve = entry.get("curve") or []
    if not curve:
        return {}
    rates = {
        "sharding_insert_1shard": float(curve[0]["insert_rate"]),
        "sharding_query_1shard": float(curve[0]["query_rate"]),
        "sharding_insert_best": max(float(p["insert_rate"]) for p in curve),
    }
    return rates


_EXTRACTORS: Dict[str, Callable[[dict], Dict[str, float]]] = {
    "BENCH_POINT.json": _point_rates,
    "BENCH_SHARDING.json": _sharding_rates,
}


def _baseline_entries(doc: object) -> List[dict]:
    if isinstance(doc, dict) and isinstance(doc.get("history"), list):
        return [entry for entry in doc["history"] if isinstance(entry, dict)]
    if isinstance(doc, dict):
        return [doc]
    return []


def _load_json(path: pathlib.Path) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def check_perf(
    results_dir,
    baseline_dir,
    log: Callable[[str], None] = print,
) -> int:
    """Gate the fresh run in ``results_dir`` against committed baselines.

    Returns 0 when every comparable metric holds, 1 otherwise.
    """
    results_dir = pathlib.Path(results_dir)
    baseline_dir = pathlib.Path(baseline_dir)
    slack = _slack()
    n_ok = n_failed = n_new = 0
    compared_any = False
    log(f"perf trajectory: {results_dir} vs baselines in {baseline_dir} "
        f"(slack {slack:g}x)")
    for name in PERF_FILES:
        fresh = _load_json(results_dir / name)
        if fresh is None:
            log(f"  {name}: no fresh artifact — skipped (the stage gate "
                f"reports the missing stage)")
            continue
        baseline_doc = _load_json(baseline_dir / name)
        if baseline_doc is None:
            log(f"  {name}: FAIL — no committed baseline under {baseline_dir}")
            n_failed += 1
            continue
        preset = fresh.get("preset")
        entries = [
            entry
            for entry in _baseline_entries(baseline_doc)
            if entry.get("preset") == preset
        ]
        if not entries:
            log(f"  {name}: FAIL — baseline has no history at preset {preset!r}")
            n_failed += 1
            continue
        extract = _EXTRACTORS[name]
        fresh_rates = extract(fresh)
        for metric, rate in sorted(fresh_rates.items()):
            history = [
                extract(entry)[metric]
                for entry in entries
                if metric in extract(entry)
            ]
            if not history:
                log(f"  new  {metric:<28s} {rate:>14,.0f}/s (no history yet)")
                n_new += 1
                continue
            compared_any = True
            floor = statistics.median(history) / slack
            if rate < floor:
                log(f"  FAIL {metric:<28s} {rate:>14,.0f}/s < floor "
                    f"{floor:,.0f}/s (median of {len(history)} baseline "
                    f"run(s) / {slack:g})")
                n_failed += 1
            else:
                log(f"  ok   {metric:<28s} {rate:>14,.0f}/s (floor "
                    f"{floor:,.0f}/s)")
                n_ok += 1
    if not compared_any and n_failed == 0:
        log("  FAIL: no metric could be compared against the baselines")
        return 1
    log(f"  {n_ok} metric(s) hold, {n_failed} failed, {n_new} without history")
    return 0 if n_failed == 0 else 1
