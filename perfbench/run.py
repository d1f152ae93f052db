"""Repository benchmark: bulk TCF, bulk GQF, journaled service, sharded GQF.

Run from the repository root::

    python3 perfbench/run.py --workload gqf-bulk --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced cycle and reports the per-layer breakdown plus the
tracing overhead.  The human-readable report goes to standard output first;
the last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A run writes its full record (run context, every metric,
simulated events per phase) under ``.perfbench/results/`` and, when traced,
its spans under ``.perfbench/traces/``.  It exits 1 when a correctness gate
fails and 2 when the repository sources are missing.

See ``perfbench/README.md`` for the workloads, the metric definitions and
the held-out seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("tcf-bulk", "gqf-bulk", "service-mixed", "sharded-gqf")

#: The metrics gated by BENCHMARK.json: every workload reports all of them.
GATED = (
    "setup_s",
    "peak_rss_mb",
    "insert_keys_per_s",
    "query_keys_per_s",
    "delete_keys_per_s",
    "acked_keys_per_s",
    "bits_per_item",
    "false_positive_rate",
)
#: Metrics that apply to some workloads only; reported, not gated.
REPORTED = {
    "tcf-bulk": ("failed_fraction",),
    "gqf-bulk": ("count_keys_per_s", "skewed_insert_keys_per_s", "failed_fraction"),
    "service-mixed": ("count_keys_per_s", "ack_p50_ms", "ack_p99_ms", "failed_fraction"),
    "sharded-gqf": ("count_keys_per_s", "failed_fraction"),
}
SIM_FIELDS = (
    "cache_line_reads",
    "cache_line_writes",
    "items_sorted",
    "slots_shifted",
    "kernel_launches",
)


def _git_sha():
    """The checkout's commit, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path: pathlib.Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def _context(args, w) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "host_clock": "time.perf_counter (host wall-clock)",
        "sizes": {
            "tcf_slots": w.TCF_SLOTS,
            "gqf_quotient_bits": w.GQF_QUOTIENT_BITS,
            "remainder_bits": w.REMAINDER_BITS,
            "load_factor": w.LOAD_FACTOR,
            "delete_fraction": w.DELETE_FRACTION,
            "skew_inserts": w.SKEW_INSERTS,
            "skew_coefficient": w.SKEW_COEFFICIENT,
            "n_shards": w.N_SHARDS,
            "shard_quotient_bits": w.SHARD_QUOTIENT_BITS,
            "setup_repeats": w.SETUP_REPEATS,
        },
        "service": {
            "jobs": sum(w.SERVICE_MIX.values()),
            "job_keys": w.JOB_KEYS,
            "outstanding": w.OUTSTANDING,
            "workers": w.SERVICE_WORKERS,
            "mix": {f"{op}:{tenant}": n for (op, tenant), n in w.SERVICE_MIX.items()},
            "journal_filesystem": _filesystem(OUT),
            "journal_fsync": "JobJournal default: flush + fsync per record",
        },
    }


class Workload:
    """Builds a workload's inputs once, then runs cycles of it."""

    def __init__(self, name: str, seed: int, w) -> None:
        self.name, self.w = name, w
        if name == "tcf-bulk":
            self.inputs = w.BulkInputs(seed, w.TCF_SLOTS)
            self.may_miss = int(w.tcf_colliding_deletes(self.inputs.deletes, w.TCF_BLOCKS).sum())
        elif name == "gqf-bulk":
            self.inputs = w.BulkInputs(seed, 1 << w.GQF_QUOTIENT_BITS)
            self.skew = w.SkewInputs(seed)
        elif name == "sharded-gqf":
            self.inputs = w.BulkInputs(seed, w.N_SHARDS << w.SHARD_QUOTIENT_BITS)
            self.expected_items = w.expected_shard_items(self.inputs.keys)
        else:
            self.plan = w.ServicePlan(seed)
            self.run_root = OUT / "run" / f"{os.getpid()}"
        self.cycles = 0

    def cycle(self, tracer):
        w, self.cycles = self.w, self.cycles + 1
        if self.name == "tcf-bulk":
            return w.tcf_bulk_cycle(self.inputs, self.may_miss, tracer)
        if self.name == "gqf-bulk":
            return w.gqf_bulk_cycle(self.inputs, self.skew, tracer)
        if self.name == "sharded-gqf":
            return w.sharded_gqf_cycle(self.inputs, self.expected_items, tracer)
        return w.service_cycle(self.plan, self.run_root, self.cycles, tracer)


def summarise(name: str, cycles, w) -> dict:
    """Median over cycles for rates, pooled percentiles for ack latency."""
    metrics = {}
    for metric in cycles[0].metrics:
        metrics[metric] = float(statistics.median(c.metrics[metric] for c in cycles))
    metrics["setup_s"] = float(statistics.median(s for c in cycles for s in c.setup_s))
    metrics["peak_rss_mb"] = w.peak_rss_mb(max(c.children_rss_mb for c in cycles))
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    metrics["failed_fraction"] = failed / attempted
    if name == "service-mixed":
        latencies = [x for c in cycles for x in c.latencies_ms]
        metrics["ack_p50_ms"] = statistics.quantiles(latencies, n=100)[49]
        metrics["ack_p99_ms"] = statistics.quantiles(latencies, n=100)[98]
        metrics["ack_samples"] = len(latencies)
    return metrics


def sim_identity(cycles) -> list:
    """Simulated events must repeat exactly across cycles of one seed."""
    first = json.dumps(cycles[0].sim, sort_keys=True)
    return [
        f"simulated events of cycle {i + 1} differ from cycle 1"
        for i, c in enumerate(cycles[1:], start=1)
        if json.dumps(c.sim, sort_keys=True) != first
    ]


def sim_digest(sim: dict) -> str:
    return hashlib.sha256(json.dumps(sim, sort_keys=True).encode()).hexdigest()[:16]


def layer_table(untraced, traced, tracer, trace_mod) -> dict:
    """Per-layer metrics of the traced cycle, plus the tracing overhead."""
    layer = {name: 0.0 for name in trace_mod.layer_metrics(trace_mod.Tracer())}
    layer.update(trace_mod.layer_metrics(tracer))
    submits = trace_mod.submit_ms(tracer)
    for q, label in ((49, "p50"), (98, "p99")):
        layer[f"service.submit_ms.{label}"] = (
            statistics.quantiles(submits, n=100)[q] if len(submits) > 1 else 0.0
        )
    for key in (
        "service.queue_wait_ms.p50",
        "service.queue_wait_ms.p99",
        "service.exec_ms.p50",
        "service.exec_ms.p99",
        "service.retries",
        "tcf.resizes",
        "sharding.worker_restarts",
    ):
        layer[key] = float(traced.layer.get(key, 0.0))
    batches = layer["service.batches"]
    layer["service.keys_per_batch"] = traced.job_keys / batches if batches else 0.0
    total = traced.sim["total"]
    for name in SIM_FIELDS:
        layer[f"sim.{name}"] = float(total[name])
    layer["trace.untraced_s"] = untraced.timed_s
    layer["trace.traced_s"] = traced.timed_s
    layer["trace.overhead_fraction"] = traced.timed_s / untraced.timed_s - 1.0
    return layer


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if this run started it.

    ``SharedMemory`` (the sharded workload's shard tables) starts the tracker
    as a separate process that would otherwise outlive the run by a moment,
    orphaned; stopping it here leaves no process behind on any exit path.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _run(argv)
    finally:
        _stop_resource_tracker()


def _run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    from perfbench import trace as trace_mod
    from perfbench import workloads as w

    for sub in ("results", "traces", "run"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    workload = Workload(args.workload, args.seed, w)
    tracer = None
    try:
        if args.trace:
            # The traced cycle doubles as the warm-up of the untraced one.  The
            # overhead compares single cycles, so it carries their noise.
            tracer = trace_mod.Tracer()
            trace_mod.install(tracer)
            try:
                traced = workload.cycle(tracer)
            finally:
                tracer.restore()
            untraced = workload.cycle(None)
            cycles = [untraced, traced]
        else:
            # One untimed warm-up cycle lets the allocator and caches reach
            # their steady state (the service's tenants start cold by design).
            # Then whole cycles only: at least two, and another while it is
            # expected to end within --seconds.
            if args.workload != "service-mixed":
                workload.cycle(None)
            cycles = []
            start = time.perf_counter()
            while True:
                cycles.append(workload.cycle(None))
                elapsed = time.perf_counter() - start
                if len(cycles) >= 2 and elapsed * (len(cycles) + 1) / len(cycles) > args.seconds:
                    break
    finally:
        if args.workload == "service-mixed":
            shutil.rmtree(workload.run_root, ignore_errors=True)

    violations = [v for c in cycles for v in c.violations]
    if args.workload != "service-mixed":
        # The service's batches depend on thread timing, so its simulated
        # events vary between passes; the other workloads are deterministic.
        violations += sim_identity(cycles)
    metrics = summarise(args.workload, cycles[:1] if args.trace else cycles, w)
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)

    record = {
        "context": _context(args, w),
        "cycles": len(cycles),
        "correct": not violations,
        "violations": violations,
        "end_to_end": metrics,
        "per_cycle": [c.metrics for c in cycles],
        "sim": {f"cycle{i + 1}": c.sim for i, c in enumerate(cycles)},
        "sim_digest": sim_digest(cycles[0].sim),
        "excused_misses": sum(c.excused for c in cycles),
    }
    print(f"perfbench {args.workload} seed={args.seed} cycles={len(cycles)} "
          f"nproc={os.cpu_count()} sim_digest={record['sim_digest']}")
    shown = GATED + REPORTED[args.workload]
    label = "untraced" if args.trace else "end-to-end"
    for name in shown:
        gate = "gated" if name in GATED else "reported"
        print(f"  {label:10s} {name:26s} {metrics[name]:>16.6g} {w.UNITS[name]:7s} {gate}")

    if args.trace:
        traced_metrics = summarise(args.workload, cycles[1:], w)
        for name in shown:
            print(f"  {'traced':10s} {name:26s} {traced_metrics[name]:>16.6g} {w.UNITS[name]}")
        layer = layer_table(cycles[0], cycles[1], tracer, trace_mod)
        for name, value in layer.items():
            print(f"  {'layer':10s} {name:32s} {value:>16.6g}")
        print(f"  tracing overhead: {100 * layer['trace.overhead_fraction']:+.1f}% of "
              f"{layer['trace.untraced_s']:.3f} s untraced timed work")
        record["traced_end_to_end"] = traced_metrics
        record["per_layer"] = layer
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        out_metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in layer.items()}
    else:
        out_metrics = {n: {"value": metrics[n], "unit": w.UNITS[n]} for n in GATED}
    if record["excused_misses"]:
        print(f"  excused misses (TCF delete ambiguity): {record['excused_misses']}")
    for v in violations:
        print(f"  VIOLATION: {v}")

    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if not violations else 1


def unit_of(layer_metric: str) -> str:
    """Unit of a per-layer metric, from its name (``layer.quantity[.detail]``)."""
    quantity = layer_metric.split(".")[1]
    for suffix, unit in (
        ("_s", "s"),
        ("_ms", "ms"),
        ("_bytes", "bytes"),
        ("_ratio", "ratio"),
        ("_fraction", "ratio"),
        ("imbalance", "ratio"),
        ("keys_per_batch", "keys"),
    ):
        if quantity.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
