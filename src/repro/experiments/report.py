"""Paper-style reporting of experiment results.

Formats the measured series/rows in the same shape as the paper's Table 1
and Figures 4-6, side by side with the published values, and provides the
shape checks used by the benchmark suite (EXPERIMENTS.md records the
outcomes).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import export as obs_export
from repro.obs import report as obs_report

#: Table 1 of the paper: average delivery times in seconds.
PAPER_TABLE1 = {
    ("LAN", "atomic"): 0.69,
    ("LAN", "secure"): 1.07,
    ("LAN", "reliable"): 0.13,
    ("LAN", "consistent"): 0.11,
    ("Internet", "atomic"): 2.95,
    ("Internet", "secure"): 3.61,
    ("Internet", "reliable"): 0.72,
    ("Internet", "consistent"): 0.83,
    ("LAN+I'net", "atomic"): 2.74,
    ("LAN+I'net", "secure"): 3.79,
    ("LAN+I'net", "reliable"): 0.60,
    ("LAN+I'net", "consistent"): 0.64,
}

TABLE1_CHANNELS = ("atomic", "secure", "reliable", "consistent")
TABLE1_SETUPS = ("LAN", "Internet", "LAN+I'net")


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """:func:`repro.obs.report.format_table` with floats to two places."""
    return obs_report.format_table(headers, rows, title=title, fmt=_fmt)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def table1_report(measured: Dict[Tuple[str, str], float]) -> str:
    """Render measured Table 1 next to the paper's values."""
    rows: List[List[object]] = []
    for setup in TABLE1_SETUPS:
        row: List[object] = [setup]
        for ch in TABLE1_CHANNELS:
            row.append(measured.get((setup, ch), float("nan")))
            row.append(PAPER_TABLE1[(setup, ch)])
        rows.append(row)
    headers = ["Setup"]
    for ch in TABLE1_CHANNELS:
        headers += [f"{ch}", "(paper)"]
    return format_table(
        headers,
        rows,
        title="Table 1: average delivery times (s), measured vs. paper",
    )


def series_summary(
    gaps_by_sender: Dict[int, List[Tuple[int, float]]],
    names: Optional[Sequence[str]] = None,
) -> str:
    """Summarize a Figure 4/5 run: per-sender completion and gap bands."""
    rows = []
    for sender in sorted(gaps_by_sender):
        pts = gaps_by_sender[sender]
        gaps = [g for _, g in pts]
        label = names[sender] if names else f"P{sender}"
        rows.append(
            [
                label,
                len(pts),
                min(n for n, _ in pts),
                max(n for n, _ in pts),
                sum(gaps) / len(gaps),
            ]
        )
    return format_table(
        ["sender", "deliveries", "first#", "last#", "mean gap (s)"], rows
    )


def band_fractions(
    gaps: Sequence[float], low_band_max: float
) -> Tuple[float, float]:
    """Fraction of deliveries in the ~0 s band vs. the upper band(s).

    Figures 4 and 5 show two bands: messages delivered as the second item
    of a batch arrive ~0 s after the previous one; the first of each batch
    pays the full round latency.
    """
    if not gaps:
        return 0.0, 0.0
    low = sum(1 for g in gaps if g <= low_band_max)
    return low / len(gaps), 1.0 - low / len(gaps)


def ratio(a: float, b: float) -> float:
    """Safe ratio for shape assertions."""
    return a / b if b else float("inf")


# -- run-directory reports -----------------------------------------------------
#
# ``python -m repro.experiments`` exports one ``BENCH_*.json`` per run; the
# ``report`` subcommand re-renders a directory of them.  Loading is
# deliberately tolerant: a missing directory, a half-finished run or a
# corrupt record must degrade to a report that *names* what was skipped,
# never to a traceback — partial run directories are the common case when
# a run was interrupted.

#: figures a run directory may contain, in presentation order
RUN_FIGURES = ("table1", "fig4", "fig5", "fig6")


def load_run_dir(path: str) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Load every readable ``BENCH_*.json`` under ``path``.

    Returns ``(records, problems)``: records keyed by bench name, and a
    list of human-readable notes for everything that could not be loaded
    (missing directory, malformed files).  Never raises.
    """
    problems: List[str] = []
    if not os.path.isdir(path):
        return {}, [f"run directory {path!r} does not exist"]
    records: Dict[str, Dict[str, Any]] = {}
    found = False
    for entry in sorted(os.listdir(path)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        found = True
        try:
            records.update(obs_export.load_source(os.path.join(path, entry)))
        except ValueError as exc:
            problems.append(f"skipped {entry}: {exc}")
    if not found:
        problems.append(f"run directory {path!r} contains no BENCH_*.json files")
    return records, problems


def _records_for(records: Dict[str, Dict[str, Any]], experiment: str):
    return {
        name: rec for name, rec in records.items()
        if rec.get("experiment") == experiment
    }


def _figure_rows(records: Dict[str, Dict[str, Any]]) -> List[List[object]]:
    rows: List[List[object]] = []
    for name in sorted(records):
        metrics = records[name].get("metrics", {})
        rows.append([
            name,
            int(metrics.get("deliveries", 0)),
            metrics.get("sim_seconds", float("nan")),
            metrics.get("mean_delivery_s", float("nan")),
            metrics.get("messages_sent", float("nan")),
        ])
    return rows


def run_dir_report(path: str) -> str:
    """Render a human-readable report of one exported run directory.

    Figures without records are reported as skipped (with the reason)
    rather than failing the whole report.
    """
    records, problems = load_run_dir(path)
    lines: List[str] = [f"Run report: {path}"]
    for note in problems:
        lines.append(f"  note: {note}")
    lines.append("")

    skipped: List[str] = []
    table1 = _records_for(records, "table1")
    if table1:
        measured = {}
        for rec in table1.values():
            meta = rec.get("meta", {})
            key = (meta.get("setup"), meta.get("channel"))
            measured[key] = rec.get("metrics", {}).get(
                "mean_delivery_s", float("nan")
            )
        expected = len(TABLE1_SETUPS) * len(TABLE1_CHANNELS)
        if len(measured) < expected:
            lines.append(
                f"  note: table1 is partial "
                f"({len(measured)}/{expected} cells present)"
            )
        lines.append(table1_report(measured))
        lines.append("")
    else:
        skipped.append("table1")

    for figure in RUN_FIGURES[1:]:
        figure_records = _records_for(records, figure)
        if not figure_records:
            skipped.append(figure)
            continue
        lines.append(f"{figure}:")
        lines.append(format_table(
            ["bench", "deliveries", "sim (s)", "mean (s)", "messages"],
            _figure_rows(figure_records),
        ))
        lines.append("")

    other = {
        name: rec for name, rec in records.items()
        if rec.get("experiment") not in RUN_FIGURES
    }
    if other:
        lines.append("other benches:")
        lines.append(format_table(
            ["bench", "deliveries", "sim (s)", "mean (s)", "messages"],
            _figure_rows(other),
        ))
        lines.append("")

    if skipped:
        lines.append(
            "skipped figures (no records in this run dir): " + ", ".join(skipped)
        )
    return "\n".join(lines).rstrip() + "\n"


def text_scatter(
    series: Dict[int, List[Tuple[int, float]]],
    names: Optional[Sequence[str]] = None,
    width: int = 72,
    height: int = 16,
    y_max: Optional[float] = None,
) -> str:
    """Render a Figure 4/5-style scatter (delivery # vs gap) as text.

    Each sender gets a marker character; overlapping points show the later
    sender's marker.  This is what lets ``python -m repro.experiments
    fig4`` reproduce the *picture*, bands and all, in a terminal.
    """
    points = [
        (number, gap, sender)
        for sender, pts in series.items()
        for number, gap in pts
    ]
    if not points:
        return "(no data)"
    x_max = max(n for n, _, _ in points)
    y_top = y_max if y_max is not None else max(g for _, g, _ in points)
    y_top = y_top or 1.0
    markers = "ox+*#@%&"
    grid = [[" "] * width for _ in range(height)]
    for number, gap, sender in points:
        col = min(width - 1, int(number / max(1, x_max) * (width - 1)))
        row = min(height - 1, int((1 - min(gap, y_top) / y_top) * (height - 1)))
        grid[row][col] = markers[sender % len(markers)]
    lines = []
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_top:5.1f}s"
        elif i == height - 1:
            label = "  0.0s"
        else:
            label = "      "
        lines.append(label + " |" + "".join(row))
    lines.append("      +" + "-" * width)
    lines.append(f"       delivery number 0..{x_max}")
    legend = "  ".join(
        f"{markers[s % len(markers)]}={names[s] if names else f'P{s}'}"
        for s in sorted(series)
    )
    lines.append("       " + legend)
    return "\n".join(lines)
