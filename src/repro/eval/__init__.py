"""Evaluation harness: runners, experiment definitions, text reporting."""

from .runner import MethodSpec, RunRecord, MethodSummary, ExperimentRunner
from .reporting import (
    format_table,
    format_comparison_table,
    format_series_table,
    format_metrics_table,
)
from .tuning import TuningResult, grid_search
from . import experiments

__all__ = [
    "MethodSpec",
    "RunRecord",
    "MethodSummary",
    "ExperimentRunner",
    "format_table",
    "format_comparison_table",
    "format_series_table",
    "format_metrics_table",
    "TuningResult",
    "grid_search",
    "experiments",
]
