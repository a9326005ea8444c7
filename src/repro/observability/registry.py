"""Process-wide metrics substrate: counters, gauges, histograms, event hooks.

Zero-dependency (stdlib only) instrumentation used by the training,
refinement, streaming, and evaluation hot paths.  Metric names are
hierarchical dotted strings (``trainer.epoch_time``, ``refine.stable_nodes``,
``runner.method.GAlign.wall``) so exports group naturally by subsystem.

Three metric kinds, one per quantity:

* :class:`Counter` — monotonic event count (epochs run, rows streamed).
* :class:`Gauge` — last observed value plus running min/max/mean over all
  observations (loss components, stable-node counts).
* :class:`Histogram` — every distribution: fixed log-spaced buckets with
  count/total/min/max/mean and p50/p90/p99 estimates (per-epoch,
  per-iteration and per-block wall time, query latency, batch sizes,
  gradient norms).  :meth:`MetricsRegistry.timed` records durations here.

All metrics are thread-safe: serving increments counters from
``ThreadingHTTPServer`` handler threads and the microbatcher thread
concurrently, so every mutation happens under a per-metric lock (and
metric creation under a registry lock) — no lost updates.

A :class:`MetricsRegistry` owns the metrics and the callback hooks; the
module-level default registry (:func:`get_registry`) is what instrumented
code falls back to when no registry is passed explicitly, so a whole run can
be captured without threading a handle through every call site.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError(f"metric name must be a non-empty string, got {name!r}")
    if any(not segment for segment in name.split(".")):
        raise ValueError(f"metric name has an empty segment: {name!r}")
    return name


class Counter:
    """Monotonically increasing event count."""

    kind = "counter"

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` (>= 0) and return the new value."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: amount must be >= 0, got {amount}")
        with self._lock:
            self.value += amount
            return self.value

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def state(self) -> Dict[str, Any]:
        """Mergeable serialized state (see :meth:`MetricsRegistry.dump_state`)."""
        return self.snapshot()

    def merge(self, state: Dict[str, Any]) -> None:
        """Fold another counter's :meth:`state` into this one."""
        self.increment(int(state["value"]))


class Gauge:
    """Last observed value with running statistics over every observation."""

    kind = "gauge"

    __slots__ = ("name", "count", "last", "total", "minimum", "maximum", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.last = 0.0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.last = value
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            # min/max are None (JSON null) when nothing was observed: an
            # export must never be misread as a real observation of zero.
            return {
                "kind": self.kind,
                "count": self.count,
                "last": self.last,
                "mean": self.mean,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None,
            }

    def state(self) -> Dict[str, Any]:
        """Mergeable serialized state; raw totals, not derived stats."""
        with self._lock:
            return {
                "kind": self.kind,
                "count": self.count,
                "last": self.last,
                "total": self.total,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None,
            }

    def merge(self, state: Dict[str, Any]) -> None:
        """Fold another gauge's :meth:`state` into this one.

        Counts and totals add; min/max extend; ``last`` takes the merged
        state's last observation (merging in submission order keeps the
        result identical to the serial execution).
        """
        count = int(state["count"])
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += float(state["total"])
            self.last = float(state["last"])
            if state["min"] is not None and state["min"] < self.minimum:
                self.minimum = float(state["min"])
            if state["max"] is not None and state["max"] > self.maximum:
                self.maximum = float(state["max"])


class Histogram:
    """Fixed log-spaced buckets with interpolated quantile estimates.

    The distribution metric kind: durations, serving batch sizes and
    gradient norms all land here.  The bucket layout is fixed at
    construction — ``buckets_per_decade`` log-spaced buckets per decade
    from ``lower`` to ``upper`` (defaults cover 1 µs to ~1000 s, wide
    enough for both sub-millisecond cache hits and hour-scale epochs) —
    so merging snapshots across processes stays well-defined.

    Bucket ``i`` holds the values in ``(upper_edges[i-1], upper_edges[i]]``
    — the underflow bucket ``[0, lower]``, the overflow bucket everything
    above the last edge — so its cumulative count is exactly what a
    Prometheus ``le="upper_edges[i]"`` bucket promises.

    Quantiles are estimated by walking the cumulative bucket counts and
    interpolating geometrically inside the winning bucket; the estimate
    is clamped to the observed ``[min, max]``, so p50/p99 are exact for
    single-observation histograms and within one bucket's relative width
    (~58% at 5 buckets/decade) otherwise.
    """

    kind = "histogram"

    #: The ``state()`` fields that define the bucket layout; two
    #: histograms merge only when these agree.
    LAYOUT = ("lower", "upper", "buckets_per_decade")

    __slots__ = (
        "name", "count", "total", "minimum", "maximum", "lower", "upper",
        "buckets_per_decade", "upper_edges", "bucket_counts", "_lock",
    )

    def __init__(
        self,
        name: str,
        lower: float = 1e-6,
        upper: float = 1e3,
        buckets_per_decade: int = 5,
    ) -> None:
        if not 0.0 < lower < upper:
            raise ValueError(
                f"histogram {name}: need 0 < lower < upper, "
                f"got ({lower}, {upper})"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"histogram {name}: buckets_per_decade must be >= 1, "
                f"got {buckets_per_decade}"
            )
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.upper / self.lower)
        # One underflow bucket (<= lower), the log-spaced body, and one
        # overflow bucket (above the last body edge).
        body = max(1, math.ceil(decades * self.buckets_per_decade))
        step = 10.0 ** (1.0 / self.buckets_per_decade)
        self.upper_edges = [self.lower * step ** i for i in range(body + 1)]
        self.bucket_counts = [0] * (body + 2)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._lock = threading.Lock()

    def _edges(self, index: int) -> tuple:
        """(low, high) value bounds of bucket ``index``."""
        edges = self.upper_edges
        low = 0.0 if index == 0 else edges[index - 1]
        return (low, edges[index] if index < len(edges) else float("inf"))

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one lock, one bucket walk):
        a batch of answers sharing one latency is one call."""
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(
                f"histogram {self.name}: observations must be finite and "
                f">= 0, got {value}"
            )
        if count < 1:
            raise ValueError(
                f"histogram {self.name}: count must be >= 1, got {count}"
            )
        index = bisect_left(self.upper_edges, value)
        with self._lock:
            self.count += count
            self.total += value * count
            self.bucket_counts[index] += count
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated value at quantile ``q`` in [0, 1]; None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> Optional[float]:
        if not self.count:
            return None
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                low, high = self._edges(index)
                fraction = (rank - cumulative) / bucket_count
                fraction = min(max(fraction, 0.0), 1.0)
                low = max(low, self.minimum if self.minimum > 0 else 0.0)
                high = min(high, self.maximum)
                if low <= 0.0 or not math.isfinite(high):
                    estimate = low + fraction * (min(high, self.maximum) - low)
                else:
                    estimate = low * (high / low) ** fraction
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += bucket_count
        return self.maximum

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            empty = not self.count
            return {
                "kind": self.kind,
                "count": self.count,
                "total": self.total,
                "mean": self.mean,
                "min": None if empty else self.minimum,
                "max": None if empty else self.maximum,
                "p50": self._quantile_locked(0.5),
                "p90": self._quantile_locked(0.9),
                "p99": self._quantile_locked(0.99),
            }

    def state(self) -> Dict[str, Any]:
        """Mergeable serialized state including the raw bucket counts.

        The fixed bucket layout is what makes cross-process histogram
        merging exact: two histograms with the same ``(lower, upper,
        buckets_per_decade)`` merge by elementwise bucket addition.
        """
        with self._lock:
            return {
                "kind": self.kind,
                "count": self.count,
                "total": self.total,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None,
                "lower": self.lower,
                "upper": self.upper,
                "buckets_per_decade": self.buckets_per_decade,
                "bucket_counts": list(self.bucket_counts),
            }

    def merge(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one (exact)."""
        layout = tuple(state[field] for field in self.LAYOUT)
        if layout != (self.lower, self.upper, self.buckets_per_decade):
            raise ValueError(
                f"histogram {self.name}: cannot merge mismatched bucket "
                f"layout {layout} into "
                f"({self.lower}, {self.upper}, {self.buckets_per_decade})"
            )
        count = int(state["count"])
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += float(state["total"])
            for index, bucket_count in enumerate(state["bucket_counts"]):
                self.bucket_counts[index] += int(bucket_count)
            if state["min"] is not None and state["min"] < self.minimum:
                self.minimum = float(state["min"])
            if state["max"] is not None and state["max"] > self.maximum:
                self.maximum = float(state["max"])


class Timer:
    """Context manager measuring wall time with ``time.perf_counter``.

    Usable standalone (``with Timer() as t: ...; t.elapsed``) or with a
    callback receiving the elapsed seconds on exit — the mechanism behind
    :meth:`MetricsRegistry.timed`.  Timing stops even when the body raises,
    so failed epochs/iterations still show up in the stats.
    """

    __slots__ = ("elapsed", "_callback", "_started")

    def __init__(self, callback: Optional[Callable[[float], None]] = None) -> None:
        self.elapsed = 0.0
        self._callback = callback
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._started
        if self._callback is not None:
            self._callback(self.elapsed)


class MetricsRegistry:
    """Named metrics plus event hooks for one process (or one run).

    Metric accessors are create-on-first-use; asking for an existing name
    with a different kind raises ``TypeError`` (names are global, a clash is
    a bug).  Hooks registered with :meth:`add_hook` receive every
    :meth:`emit` as ``hook(event, payload)`` — the per-epoch/per-iteration
    callback channel used by trainers and the refiner.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._hooks: List[Callable[[str, Dict[str, Any]], None]] = []
        # Guards metric creation and the hook list; individual metric
        # mutations use the per-metric locks.
        self._lock = threading.RLock()

    # -- metric accessors ----------------------------------------------
    def _metric(self, name: str, factory, **layout) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(_validate_name(name), **layout)
                self._metrics[name] = metric
            elif not isinstance(metric, factory):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {factory.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._metric(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._metric(name, Gauge)

    def histogram(self, name: str, **layout) -> Histogram:
        """Create-or-get a histogram; ``layout`` kwargs (``lower``,
        ``upper``, ``buckets_per_decade``) only apply on first creation."""
        return self._metric(name, Histogram, **layout)

    # -- recording shortcuts -------------------------------------------
    def increment(self, name: str, amount: int = 1) -> int:
        return self.counter(name).increment(amount)

    def observe(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def record_histogram(
        self, name: str, value: float, count: int = 1
    ) -> None:
        self.histogram(name).observe(value, count)

    def timed(self, name: str) -> Timer:
        """``with registry.timed("trainer.epoch_time"): ...`` — the
        elapsed seconds land in the histogram ``name``."""
        return Timer(self.histogram(name).observe)

    # -- hooks ----------------------------------------------------------
    def add_hook(self, hook: Callable[[str, Dict[str, Any]], None]) -> None:
        """Register ``hook(event, payload)`` for every :meth:`emit`."""
        if not callable(hook):
            raise TypeError(f"hook must be callable, got {hook!r}")
        with self._lock:
            self._hooks.append(hook)

    def remove_hook(self, hook: Callable[[str, Dict[str, Any]], None]) -> None:
        with self._lock:
            self._hooks.remove(hook)

    def emit(self, event: str, payload: Optional[Dict[str, Any]] = None) -> None:
        """Fan an event out to every hook (no-op without hooks).

        Hooks run inline on whatever hot path emitted — so a raising
        hook is isolated here: counted in ``observability.hook_errors``
        and logged at ERROR, never propagated into training or serving
        code.  One broken observer must not fail the observed.
        """
        if not self._hooks:
            return
        _validate_name(event)
        payload = payload if payload is not None else {}
        for hook in list(self._hooks):
            try:
                hook(event, payload)
            except Exception as error:
                self._hook_error(event, hook, error)

    def _hook_error(self, event: str, hook: Any, error: Exception) -> None:
        self.counter("observability.hook_errors").increment()
        # Local import: logging is a leaf module, but keeping the
        # dependency out of the registry's import graph means a broken
        # logging setup can never take the metrics substrate down.
        from .logging import get_logger

        get_logger("observability.registry").error(
            "observability.hook_error",
            hook_event=event,
            hook=getattr(hook, "__qualname__", None) or repr(hook),
            error=f"{type(error).__name__}: {error}",
        )

    # -- introspection / export ----------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self, prefix: Optional[str] = None) -> List[str]:
        """Sorted metric names, optionally restricted to a dotted prefix."""
        with self._lock:
            names = sorted(self._metrics)
        if prefix is None:
            return names
        dotted = prefix + "."
        return [n for n in names if n == prefix or n.startswith(dotted)]

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
        """``{name: {"kind": ..., ...stats}}`` — the export payload."""
        return {
            name: self._metrics[name].snapshot() for name in self.names(prefix)
        }

    def reset(self) -> None:
        """Drop all metrics (hooks survive)."""
        with self._lock:
            self._metrics.clear()

    # -- cross-process state transfer ----------------------------------
    def dump_state(self) -> Dict[str, Dict[str, Any]]:
        """Serialize every metric into a mergeable, picklable state dict.

        The counterpart of :meth:`merge_state`: parallel workers record
        into a fresh registry, ship ``dump_state()`` back with their task
        result, and the parent folds it in — so ``parallel.*``, training
        and streaming metrics survive the process boundary.  Unlike
        :meth:`snapshot` this includes raw internals (gauge totals,
        histogram bucket counts), which is what makes merging exact.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.state() for name, metric in metrics}

    def merge_state(self, state: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`dump_state` payload into this registry.

        Counters add, gauge counts and totals add (min/max extend,
        ``last`` takes the merged state's), histograms add bucketwise.
        Merging worker states in task-submission order reproduces the
        metric values of the equivalent serial run.
        """
        for name, metric_state in state.items():
            kind = metric_state.get("kind")
            factory = _KINDS.get(kind)
            if factory is None:
                raise ValueError(
                    f"metric {name!r}: unknown kind {kind!r} in state dump"
                )
            layout = {
                field: metric_state[field]
                for field in getattr(factory, "LAYOUT", ())
            }
            self._metric(name, factory, **layout).merge(metric_state)


_KINDS = {factory.kind: factory for factory in (Counter, Gauge, Histogram)}


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code falls back to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(f"expected a MetricsRegistry, got {type(registry)!r}")
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the process-wide registry to a block (CLI runs, tests)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
