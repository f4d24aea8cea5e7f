#!/usr/bin/env python3
"""The repository benchmark: four workloads on two clocks, one command.

    python3 perfbench/run.py --workload burst-lan --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py                    # every workload, untraced and traced
    python3 perfbench/run.py --layers           # the layer -> metric map

Run from the root of a checkout; the program is imported from ``src/``.
One workload runs in one process on one thread.  ``--trace 0`` runs the
workload with tracing off and reports the end-to-end metrics;
``--trace 1`` runs a short untraced reference pass and then the workload
with every layer wrapped (see ``layers.py``), checks that tracing left
the simulated-clock results unchanged, and reports the per-layer metrics.
The spans of the last traced pass of each workload are written to
``.perfbench/<workload>.spans`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check counts every op of the run as failed and makes the
command exit with status 1; a checkout without the program exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("fig4-lan", "burst-lan", "tcp-open", "byz-burst")

#: the end-to-end metrics every run with --trace 0 reports, with units
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: percentiles op_tail_ms may report, highest first
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: length of the untraced reference pass of a traced run, as a share of --seconds
REFERENCE_SHARE = 0.25


def percentile(sorted_values: List[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    data = sorted(latencies)
    for p in TAIL_PERCENTILES:
        if len(data) * (100.0 - p) / 100.0 >= 10:
            return p, percentile(data, p)
    return 50.0, percentile(data, 50.0)


def end_to_end(out: Any, rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced pass, plus the ones that do
    not exist on every workload (reported but not in ``END_TO_END``).

    Durations are in reference-CPU time: each section's wall time is
    multiplied by the CPU speed probed around it (``workloads.probe``),
    except the length of an open-loop section, which its schedule sets.
    The ``*_wall`` entries give the unscaled figures.
    """
    sections = out.sections
    ops = sum(section.ops for section in sections)
    wall_s = sum(section.seconds for section in sections)
    ref_s = sum(section.seconds * (1.0 if section.paced else section.speed)
                for section in sections)
    lat = sorted(ms * section.speed for section in sections for ms in section.latencies_ms)
    wall_lat = sorted(ms for section in sections for ms in section.latencies_ms)
    tail_p, tail_ms = tail(lat) if lat else (0.0, 0.0)
    metrics = {
        "setup_s": statistics.median(out.setup_s) if out.setup_s else 0.0,
        "ops_per_s": ops / ref_s if ref_s else 0.0,
        "op_p50_ms": percentile(lat, 50.0) if lat else 0.0,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss_mb,
        "op_tail_percentile": tail_p,
        "op_samples": float(len(lat)),
        "fail_frac": out.failed / out.attempted if out.attempted else 1.0,
        "cpu_speed": sum(s.seconds * s.speed for s in sections) / wall_s if wall_s else 0.0,
        "ops_per_s_wall": ops / wall_s if wall_s else 0.0,
        "op_p50_ms_wall": percentile(wall_lat, 50.0) if lat else 0.0,
        "op_tail_ms_wall": percentile(wall_lat, tail_p) if lat else 0.0,
    }
    if out.sim_s > 0:
        metrics["sim_ops_per_s"] = out.ops / out.sim_s
    if out.late_ms is not None:
        metrics["late_ms"] = out.late_ms
    return metrics


EXTRA_UNITS = {"op_tail_percentile": "pct", "op_samples": "count", "fail_frac": "ratio",
               "cpu_speed": "ratio", "ops_per_s_wall": "ops/s", "op_p50_ms_wall": "ms",
               "op_tail_ms_wall": "ms", "sim_ops_per_s": "ops/sim-s", "late_ms": "ms"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload in this process; returns the full report.

    Untraced, the pass gives the end-to-end metrics.  Traced, a short
    untraced reference pass runs first: its results must be a prefix of
    the traced pass's simulated-clock results, and its ``ops_per_s`` is
    the base of ``trace.overhead_frac``.
    """
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    run_pass, clock_kind = WORKLOADS[name]
    report: Dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds,
                              "clock": clock_kind, "per_layer": None}
    if not trace:
        out = run_pass(seed, seconds)
        report["e2e"] = end_to_end(out, peak_rss_mb())
        errors, attempted, failed = list(out.errors), out.attempted, out.failed
    else:
        reference = run_pass(seed, seconds * REFERENCE_SHARE)
        tracer = Tracer()
        layers.install(tracer)
        try:
            out = run_pass(seed, seconds, traced=True)
        finally:
            tracer.restore()
        errors = reference.errors + out.errors
        attempted = reference.attempted + out.attempted
        failed = reference.failed + out.failed
        if out.fingerprint[: len(reference.fingerprint)] != reference.fingerprint:
            errors.append(f"{name}: the traced pass changed simulated-clock results")
        untraced_rate = end_to_end(reference, 0.0)["ops_per_s"]
        traced = end_to_end(out, 0.0)
        counters = dict(out.counters)
        counters["sim.ops_per_s"] = traced.get("sim_ops_per_s", 0.0)
        counters["tcp.late_ms"] = traced.get("late_ms", 0.0)
        overhead = 1.0 - traced["ops_per_s"] / untraced_rate if untraced_rate else 0.0
        report["per_layer"] = layers.per_layer(tracer, counters, out.ops, overhead,
                                               traced["cpu_speed"])
        report["spans"] = tracer.write_spans(SPAN_DIR, name)
    if errors:
        failed = attempted
    report.update(correct=not errors, attempted=attempted, failed=failed, errors=errors,
                  fingerprint=[list(f) for f in out.fingerprint])
    return report


def print_report(report: Dict[str, Any]) -> None:
    from layers import PER_LAYER

    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}"
          f"  ops on the {report['clock']} clock"
          + ("  (traced)" if report["per_layer"] is not None else ""))
    if report["per_layer"] is None:
        units = dict(END_TO_END, **EXTRA_UNITS)
        for key, value in report["e2e"].items():
            print(f"  {key:<34} {value:>14.6g} {units[key]}")
    else:
        for key, unit in PER_LAYER:
            print(f"  {key:<34} {report['per_layer'][key]:>14.6g} {unit}")
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")


def result_line(report: Dict[str, Any], trace: bool) -> str:
    from layers import PER_LAYER

    if trace:
        metrics = {k: {"value": report["per_layer"][k], "unit": u} for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": report["e2e"][k], "unit": u} for k, u in END_TO_END}
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced and traced, each run in its own process."""
    from layers import PER_LAYER

    units = dict(END_TO_END, **EXTRA_UNITS, **dict(PER_LAYER))
    summary: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", trace, "--report"],
                capture_output=True, text=True, cwd=ROOT,
            )
            report = None
            for line in proc.stdout.splitlines()[:-1]:
                if line.startswith("perfbench-report "):
                    report = json.loads(line[len("perfbench-report "):])
                else:
                    print(line)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or report is None:
                status = 1
                summary["correct"] = False
                continue
            summary["correct"] &= report["correct"]
            summary["attempted"] += report["attempted"]
            summary["failed"] += report["failed"]
            values = report["per_layer"] if trace == "1" else report["e2e"]
            for key, value in values.items():
                summary["metrics"][f"{name}.{key}"] = {"value": value, "unit": units[key]}
    print(json.dumps(summary))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true", help="print the layer map and exit")
    parser.add_argument("--report", action="store_true",
                        help="also print the full report as a 'perfbench-report' JSON line")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's source is not at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.layers:
        from layers import LAYERS

        for layer, modules, metrics, moves, where in LAYERS:
            print(f"{layer} ({modules})\n  metrics: {', '.join(m for m, _ in metrics)}"
                  f"\n  moves: {moves}\n  most / least work: {where}")
        return 0
    if args.workload == "all":
        return run_all(args)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    if args.report:
        print("perfbench-report " + json.dumps(report))
    print(result_line(report, bool(args.trace)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
