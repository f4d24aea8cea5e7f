"""Render and diff ``BENCH_*.json`` artifacts — the CI perf gate.

Usage::

    python -m repro.obs.report BENCH_a.json [BENCH_b.json ...]
        human-readable summary of each record (files, dirs or sets)

    python -m repro.obs.report --diff BASELINE CURRENT --threshold 20%
        compare two sources (file, dir or set each); exit 1 if any gated
        metric of any common bench regressed by more than the threshold

    python -m repro.obs.report --combine SRC [SRC ...] -o baseline.json
        bundle records into one committed baseline set file

Gated metrics are the record's ``metrics`` map minus the machine-dependent
:data:`repro.obs.export.UNGATED_METRICS` (wall-clock time); everything
gated is simulator-derived and deterministic under a pinned seed, so a
trip of this gate is a real behavioral regression, not CI noise.  Lower
is better for every gated metric.  Counters can be added to the gate with
``--gate-counters``; per-phase means are always *reported* in the diff
but only gated with ``--gate-phases``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import export

#: ignore absolute drifts below this (seconds / ops) even when the
#: relative threshold trips — guards against 1e-9-scale float jitter
ABS_EPSILON = 1e-9


def parse_threshold(raw: str) -> float:
    """``"20%"`` -> 0.20, ``"0.2"`` -> 0.2."""
    text = raw.strip()
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad threshold {raw!r}") from None


def _fmt(value: float) -> str:
    if abs(value) >= 1000 or value == int(value):
        return f"{value:,.0f}"
    return f"{value:.4g}"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
    fmt: Callable[[Any], str] = str,
) -> str:
    """Monospace table: left-aligned headers, right-aligned cells.

    ``fmt`` renders each cell; callers pass their own number formatter.
    """
    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def summarize(record: Mapping[str, Any]) -> str:
    """One record as a human-readable block."""
    lines = [f"bench {record['name']}  [{record['experiment']}]  "
             f"outcome={record['outcome']}"]
    meta = record.get("meta", {})
    if meta:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    metrics = record.get("metrics", {})
    if metrics:
        rows = [[k, _fmt(float(v))] for k, v in sorted(metrics.items())]
        lines.append(_indent(format_table(["metric", "value"], rows)))
    phases = record.get("phases", {})
    if phases:
        rows = [
            [name, _fmt(s.get("count", 0)), f"{s.get('mean', 0):.4f}",
             f"{s.get('p50', 0):.4f}", f"{s.get('p90', 0):.4f}",
             f"{s.get('p99', 0):.4f}", f"{s.get('total', 0):.3f}"]
            for name, s in sorted(phases.items())
        ]
        lines.append(_indent(format_table(
            ["phase", "count", "mean s", "p50", "p90", "p99", "total s"], rows)))
    counters = record.get("counters", {})
    if counters:
        rows = [[k, _fmt(float(v))] for k, v in sorted(counters.items())]
        lines.append(_indent(format_table(["counter", "value"], rows)))
    return "\n".join(lines)


def _indent(block: str, pad: str = "  ") -> str:
    return "\n".join(pad + line for line in block.splitlines())


class Regression:
    """One gated value that got worse past the threshold."""

    def __init__(self, bench: str, metric: str, base: float, cur: float):
        self.bench = bench
        self.metric = metric
        self.base = base
        self.cur = cur

    @property
    def change(self) -> float:
        return (self.cur - self.base) / self.base if self.base else float("inf")


def _gated_values(
    record: Mapping[str, Any], gate_counters: bool, gate_phases: bool
) -> Dict[str, float]:
    values: Dict[str, float] = {
        f"metrics.{k}": float(v)
        for k, v in record.get("metrics", {}).items()
        if k not in export.UNGATED_METRICS
    }
    if gate_counters:
        for k, v in record.get("counters", {}).items():
            values[f"counters.{k}"] = float(v)
    if gate_phases:
        for k, s in record.get("phases", {}).items():
            values[f"phases.{k}.mean"] = float(s.get("mean", 0.0))
    return values


def diff(
    baseline: Mapping[str, Mapping[str, Any]],
    current: Mapping[str, Mapping[str, Any]],
    threshold: float,
    gate_counters: bool = False,
    gate_phases: bool = False,
    out=None,
) -> Tuple[List[Regression], List[str]]:
    """Compare two record sets; returns (regressions, skipped names)."""
    out = out if out is not None else sys.stdout
    skipped = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    common = sorted(set(baseline) & set(current))
    regressions: List[Regression] = []
    for name in common:
        base_vals = _gated_values(baseline[name], gate_counters, gate_phases)
        cur_vals = _gated_values(current[name], gate_counters, gate_phases)
        rows = []
        for metric in sorted(base_vals):
            base = base_vals[metric]
            cur = cur_vals.get(metric)
            if cur is None:
                rows.append([metric, _fmt(base), "(missing)", "-", "skip"])
                continue
            delta = cur - base
            rel = delta / base if base else (float("inf") if delta > 0 else 0.0)
            worse = delta > max(abs(base) * threshold, ABS_EPSILON)
            verdict = "REGRESSION" if worse else ("ok" if delta <= 0 else "ok (within)")
            rows.append([metric, _fmt(base), _fmt(cur),
                         f"{rel:+.1%}" if base else "n/a", verdict])
            if worse:
                regressions.append(Regression(name, metric, base, cur))
        print(f"\n== {name} ==", file=out)
        print(format_table(["metric", "baseline", "current", "change", "verdict"], rows),
              file=out)
        cur_phases = current[name].get("phases", {})
        if cur_phases and not gate_phases:
            prow = [[p, f"{s.get('mean', 0):.4f}",
                     f"{current[name]['phases'].get(p, {}).get('mean', 0):.4f}"]
                    for p, s in sorted(baseline[name].get("phases", {}).items())]
            if prow:
                print(_indent(format_table(["phase (informational)", "base mean s",
                                            "cur mean s"], prow)), file=out)
    for name in skipped:
        print(f"\nskipped: {name} (present in baseline, missing from current run)",
              file=out)
    for name in added:
        print(f"\nnew bench (not in baseline, not gated): {name}", file=out)
    return regressions, skipped


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize, combine, or diff BENCH_*.json artifacts.",
    )
    parser.add_argument("sources", nargs="*",
                        help="record files, set files, or directories")
    parser.add_argument("--diff", nargs=2, metavar=("BASELINE", "CURRENT"),
                        help="compare two sources and gate on regressions")
    parser.add_argument("--threshold", type=parse_threshold, default=0.20,
                        help="allowed relative regression, e.g. 20%% (default)")
    parser.add_argument("--gate-counters", action="store_true",
                        help="also gate every counter, not just metrics")
    parser.add_argument("--gate-phases", action="store_true",
                        help="also gate per-phase mean latencies")
    parser.add_argument("--combine", action="store_true",
                        help="bundle the sources into one set file (see -o)")
    parser.add_argument("-o", "--output", default=None,
                        help="output path for --combine")
    args = parser.parse_args(argv)

    try:
        if args.diff:
            baseline = export.load_source(args.diff[0])
            current = export.load_source(args.diff[1])
            if not baseline:
                print(f"error: no bench records in {args.diff[0]}", file=sys.stderr)
                return 2
            regressions, _ = diff(
                baseline, current, args.threshold,
                gate_counters=args.gate_counters, gate_phases=args.gate_phases,
            )
            if regressions:
                print(f"\nFAIL: {len(regressions)} regression(s) beyond "
                      f"{args.threshold:.0%}:", file=sys.stderr)
                for reg in regressions:
                    print(f"  {reg.bench}: {reg.metric} "
                          f"{_fmt(reg.base)} -> {_fmt(reg.cur)} ({reg.change:+.1%})",
                          file=sys.stderr)
                return 1
            print(f"\nOK: no gated metric regressed beyond {args.threshold:.0%}")
            return 0

        if not args.sources:
            parser.error("give at least one source, or --diff BASELINE CURRENT")
        records: Dict[str, Dict[str, Any]] = {}
        for source in args.sources:
            records.update(export.load_source(source))
        if not records:
            print("error: no bench records found", file=sys.stderr)
            return 2

        if args.combine:
            if not args.output:
                parser.error("--combine requires -o OUTPUT")
            doc = export.combine(records)
            import json

            with open(args.output, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {len(records)} bench record(s) to {args.output}")
            return 0

        for name in sorted(records):
            print(summarize(records[name]))
            print()
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
