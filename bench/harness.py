"""Shared, dependency-free helpers for the benchmark: paths, the metric
spec in ``BENCHMARK.json``, percentiles and run-to-run spread.

Kept free of numpy and ``repro`` so that ``run.py`` and ``compare.py``
start instantly and work on a machine that only holds result files.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Every metric and workload name must match this (and start with a
#: letter or digit).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Result-file schema written by ``run.py`` and read by ``compare.py``.
RESULTS_SCHEMA = "bench.results/v1"


def valid_name(name: str) -> bool:
    return isinstance(name, str) and NAME_RE.match(name) is not None


def load_spec(path: str = SPEC_PATH) -> dict:
    """``BENCHMARK.json``, with every name checked against :data:`NAME_RE`."""
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            if not valid_name(entry["name"]):
                raise ValueError(
                    f"BENCHMARK.json {section}: invalid name {entry['name']!r}"
                )
    return spec


def metric_specs(spec: dict, trace: bool) -> Dict[str, dict]:
    """``{name: entry}`` for the metrics a run with this ``trace`` reports."""
    section = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry for entry in spec[section]}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


#: Percentiles a timing may be reported at, highest first.
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest of the usual percentiles that leaves at least
    ``beyond`` samples above it, or ``None`` when not even the median
    does (the rule every timing in this benchmark is reported by)."""
    for q in _TAIL_CANDIDATES:
        if count * (100.0 - q) / 100.0 >= beyond - 1e-9:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles``
    gives them; 0 for fewer than two values or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def load_results(path: str) -> Tuple[bool, List[dict]]:
    """``(valid, records)`` of one results file written by ``run.py``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != RESULTS_SCHEMA:
        raise ValueError(
            f"{path}: schema {payload.get('schema')!r}, expected "
            f"{RESULTS_SCHEMA!r}"
        )
    return bool(payload["valid"]), payload["records"]
