"""Lightweight observability: metrics, spans, logs, profiling, SLOs.

The instrumentation substrate behind the training/refinement/serving hot
paths.  See :mod:`repro.observability.registry` for the metric kinds
(counters, gauges, histograms) and the process-wide default
registry, :mod:`repro.observability.export` for the ``BENCH_*.json``
artifact schema and Prometheus text exposition,
:mod:`repro.observability.trace` for span tracing with Chrome-trace
export and cross-process span shipping,
:mod:`repro.observability.logging` for structured JSON-lines logging
with request-ID correlation, :mod:`repro.observability.slo` for
rolling-window SLO/error-budget tracking, and
:mod:`repro.observability.profiler` for the per-op autograd profiler.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_registry,
    set_registry,
    use_registry,
)
from .export import (
    BENCH_SCHEMA,
    bench_payload,
    validate_bench_payload,
    write_bench_json,
    load_bench_json,
    iter_metric_lines,
    to_prometheus_text,
)
from .trace import (
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
    format_span_tree,
    serialize_spans,
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
)
from .logging import (
    LOG_FILE_ENV_VAR,
    LOG_LEVEL_ENV_VAR,
    SlowQueryLog,
    StructuredLogger,
    configure_logging,
    configure_logging_from_env,
    current_request_id,
    get_logger,
    logging_configured,
    mint_request_id,
    reset_logging,
    set_request_id,
    use_request_id,
)
from .slo import SLOTracker
from .profiler import OpProfiler, OpStat, format_op_table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "get_registry",
    "set_registry",
    "use_registry",
    "BENCH_SCHEMA",
    "bench_payload",
    "validate_bench_payload",
    "write_bench_json",
    "load_bench_json",
    "iter_metric_lines",
    "to_prometheus_text",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "format_span_tree",
    "serialize_spans",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "LOG_FILE_ENV_VAR",
    "LOG_LEVEL_ENV_VAR",
    "SlowQueryLog",
    "StructuredLogger",
    "configure_logging",
    "configure_logging_from_env",
    "current_request_id",
    "get_logger",
    "logging_configured",
    "mint_request_id",
    "reset_logging",
    "set_request_id",
    "use_request_id",
    "SLOTracker",
    "OpProfiler",
    "OpStat",
    "format_op_table",
]
