"""Plain-text tables matching the paper's presentation.

Benchmarks print these so bench output reads like the paper's Tables III-V
and the series behind Figs 3-7.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

from ..observability import MetricsRegistry
from .runner import MethodSummary

__all__ = [
    "format_table",
    "format_comparison_table",
    "format_series_table",
    "format_metrics_table",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render an aligned monospace table."""
    def render(cell) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    text_rows = [[render(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in text_rows)) if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_comparison_table(
    results: Mapping[str, Mapping[str, MethodSummary]],
    metrics: Sequence[str] = ("MAP", "AUC", "Success@1", "Success@10", "Time(s)"),
    title: Optional[str] = None,
) -> str:
    """Paper Table III layout: dataset × metric rows, one column per method.

    ``results`` maps dataset name → method name → summary.
    """
    method_names: List[str] = []
    for summaries in results.values():
        for name in summaries:
            if name not in method_names:
                method_names.append(name)

    headers = ["Dataset", "Metric"] + method_names
    rows = []
    for dataset, summaries in results.items():
        for metric in metrics:
            row = [dataset, metric]
            for name in method_names:
                summary = summaries.get(name)
                row.append(summary.as_row()[metric] if summary else "-")
            rows.append(row)
    return format_table(headers, rows, title=title)


def format_metrics_table(
    metrics: Union[MetricsRegistry, Mapping[str, Mapping]],
    prefix: Optional[str] = None,
    title: Optional[str] = None,
) -> str:
    """Render a registry (or a snapshot dict) as timing/counter columns.

    One row per metric: counters show their value under ``total``; gauges
    show observation count plus last/mean/min/max; histograms show
    count/total/mean/min/max (durations in seconds) plus p50/p90/p99.
    Stats that are ``None`` (an empty gauge's min/max, an empty
    histogram's quantiles) render as ``-``, never as a fake zero.
    """
    if isinstance(metrics, MetricsRegistry):
        snapshot = metrics.snapshot(prefix)
    else:
        dotted = (prefix + ".") if prefix else None
        snapshot = {
            name: stats
            for name, stats in sorted(metrics.items())
            if dotted is None or name == prefix or name.startswith(dotted)
        }
    headers = ["Metric", "Kind", "Count", "Total", "Last", "Mean", "Min",
               "Max", "P50", "P90", "P99"]

    def cell(stats: Mapping, field: str):
        value = stats.get(field)
        return "-" if value is None else value

    rows = []
    for name, stats in snapshot.items():
        if stats["kind"] == "counter":
            rows.append([name, "counter", stats["value"], stats["value"],
                         "-", "-", "-", "-", "-", "-", "-"])
        else:
            rows.append([
                name,
                stats["kind"],
                stats["count"],
                cell(stats, "total"),
                cell(stats, "last"),
                cell(stats, "mean"),
                cell(stats, "min"),
                cell(stats, "max"),
                cell(stats, "p50"),
                cell(stats, "p90"),
                cell(stats, "p99"),
            ])
    return format_table(headers, rows, title=title)


def format_series_table(
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[float]],
    title: Optional[str] = None,
) -> str:
    """Figure-style layout: one row per x value, one column per method.

    Matches the series the paper plots in Figs 3-5 and 7 (e.g. Success@1 vs
    noise ratio).
    """
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        row = [x]
        for name in series:
            values = series[name]
            row.append(values[i] if i < len(values) else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)
