"""BENCH_*.json export: schema, validation, read/write helpers.

The benchmark artifact format every perf PR appends to.  A payload looks
like::

    {
      "schema": "repro.bench/v2",
      "run": {"command": "align", "pair": "ba-noisy-copy", "seed": 0, ...},
      "metrics": {
        "trainer.epoch_time": {"kind": "histogram", "count": 50, "total": 1.9,
                               "mean": 0.038, "min": ..., "max": ...,
                               "p50": ..., "p90": ..., "p99": ...},
        "refine.stable_nodes": {"kind": "gauge", "count": 6, "last": 61, ...},
        "runner.runs": {"kind": "counter", "value": 4}
      }
    }

``run`` is free-form run context (command line, dataset, seed, method —
anything that identifies the workload); ``metrics`` is a
:meth:`~repro.observability.MetricsRegistry.snapshot`.  Validation is
hand-rolled (zero-dependency) and intentionally strict: unknown kinds,
missing stats fields, or non-numeric values fail loudly so the perf
trajectory never accumulates malformed artifacts.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from .registry import Counter, Histogram, MetricsRegistry

__all__ = [
    "BENCH_SCHEMA",
    "bench_payload",
    "validate_bench_payload",
    "write_bench_json",
    "load_bench_json",
    "to_prometheus_text",
]

#: Schema identifier embedded in (and required of) every BENCH_*.json.
BENCH_SCHEMA = "repro.bench/v2"

_REQUIRED_FIELDS = {
    "counter": ("value",),
    "gauge": ("count", "last", "mean", "min", "max"),
    "histogram": ("count", "total", "mean", "min", "max", "p50", "p90", "p99"),
}

#: Fields that are ``null`` when a metric has no observations — an empty
#: gauge's min/max must never export as a fake observation of zero.
_NULLABLE_FIELDS = frozenset({"min", "max", "p50", "p90", "p99"})


def bench_payload(
    registry: MetricsRegistry,
    run: Optional[Dict[str, Any]] = None,
    prefix: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a schema-conformant payload from a registry snapshot."""
    return {
        "schema": BENCH_SCHEMA,
        "run": dict(run) if run else {},
        "metrics": registry.snapshot(prefix),
    }


def validate_bench_payload(payload: Any) -> Dict[str, Any]:
    """Check ``payload`` against the BENCH schema; returns it unchanged.

    Raises ``ValueError`` naming the first offending field.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be a dict, got {type(payload).__name__}")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"schema must be {BENCH_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    run = payload.get("run")
    if not isinstance(run, dict) or any(not isinstance(k, str) for k in run):
        raise ValueError("run must be a dict with string keys")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be a dict")
    for name, stats in metrics.items():
        if not isinstance(name, str) or not name or any(
            not segment for segment in name.split(".")
        ):
            raise ValueError(f"invalid metric name {name!r}")
        if not isinstance(stats, dict):
            raise ValueError(f"metric {name!r}: stats must be a dict")
        kind = stats.get("kind")
        if kind not in _REQUIRED_FIELDS:
            raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
        for field in _REQUIRED_FIELDS[kind]:
            if field not in stats:
                raise ValueError(f"metric {name!r}: missing field {field!r}")
            value = stats[field]
            if value is None and field in _NULLABLE_FIELDS:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"metric {name!r}: field {field!r} must be numeric, "
                    f"got {value!r}"
                )
    return payload


def write_bench_json(
    path: str,
    registry: MetricsRegistry,
    run: Optional[Dict[str, Any]] = None,
    prefix: Optional[str] = None,
) -> Dict[str, Any]:
    """Validate and write a BENCH payload; returns the payload written."""
    payload = validate_bench_payload(bench_payload(registry, run, prefix))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_bench_json(path: str) -> Dict[str, Any]:
    """Read and validate a BENCH_*.json written by :func:`write_bench_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_bench_payload(json.load(handle))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prometheus_name(name: str) -> str:
    """Mangle a dotted metric name into a Prometheus identifier."""
    mangled = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch == "_") else "_"
        for ch in name
    )
    if mangled[:1].isdigit():
        mangled = "_" + mangled
    return mangled


def _prometheus_value(value: float) -> str:
    """A float the exposition format (and a round-trip parse) accepts."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus_text(
    registry: MetricsRegistry, prefix: Optional[str] = None
) -> str:
    """Render a registry in the Prometheus text exposition format.

    What a stock Prometheus scraper expects from ``GET
    /metrics?format=prometheus``: dotted names mangled to underscores,
    counters as ``counter``, gauges as ``gauge`` (the last observed
    value), and histograms (durations included) as cumulative
    ``_bucket{le=...}`` series — one per entry of the histogram's
    ``upper_edges``, the overflow under ``le="+Inf"`` — plus exact
    ``_sum``/``_count`` companions taken from the same locked state
    snapshot the registry merges across processes.
    """
    lines: List[str] = []
    for name in registry.names(prefix):
        metric = registry.get(name)
        exposed = _prometheus_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {exposed} counter")
            lines.append(f"{exposed} {_prometheus_value(metric.value)}")
        elif isinstance(metric, Histogram):
            state = metric.state()
            lines.append(f"# TYPE {exposed} histogram")
            cumulative = 0
            edges = [_prometheus_value(e) for e in metric.upper_edges]
            for upper, bucket_count in zip(
                edges + ["+Inf"], state["bucket_counts"]
            ):
                cumulative += int(bucket_count)
                lines.append(
                    f'{exposed}_bucket{{le="{upper}"}} {cumulative}'
                )
            lines.append(
                f"{exposed}_sum {_prometheus_value(state['total'])}"
            )
            lines.append(f"{exposed}_count {state['count']}")
        else:
            lines.append(f"# TYPE {exposed} gauge")
            lines.append(
                f"{exposed} {_prometheus_value(metric.state()['last'])}"
            )
    return "\n".join(lines) + "\n"
