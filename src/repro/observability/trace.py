"""Span tracing: nested wall-time spans with Chrome-trace export.

The registry's counters and histograms say *what* happened; this module says *where
time goes*.  Instrumented code opens spans::

    with tracer.span("trainer.epoch", epoch=i):
        ...

and every span records its wall time (``time.perf_counter``), thread id,
parent span, and free-form attributes.  Two export views:

* :func:`format_span_tree` — a human-readable flame summary: the span
  tree aggregated by call path with call counts, total time, and share
  of the traced run.
* :func:`export_chrome_trace` — Chrome trace-event JSON (complete ``X``
  events) loadable in ``chrome://tracing`` or https://ui.perfetto.dev.

Like the metrics registry, a process-wide default tracer
(:func:`get_tracer`) is what instrumented code falls back to.  It starts
*disabled*: :meth:`Tracer.span` then returns a shared no-op context
manager, so the spans threaded through the training/refinement/serving
hot paths cost one attribute check when nobody is tracing.  CLI runs
scope an enabled tracer with :func:`use_tracer` (``--trace-out``,
``repro profile``).

Timestamps are ``time.perf_counter`` values — monotonic, so exported
``ts``/``dur`` are consistent — normalized to the tracer's construction
time at export.  Wall-clock time never enters a trace.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
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
]


class Span:
    """One finished span: a named, timed, attributed slice of a thread.

    ``pid`` is ``None`` for spans recorded in this process; spans
    grafted from a worker (see :meth:`Tracer.graft`) keep the worker's
    pid so the Chrome export draws them in per-process lanes.
    """

    __slots__ = ("name", "start", "duration", "thread_id", "attrs",
                 "span_id", "parent_id", "pid")

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        thread_id: int,
        attrs: Dict[str, Any],
        span_id: int,
        parent_id: Optional[int],
        pid: Optional[int] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.thread_id = thread_id
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"attrs={self.attrs!r})"
        )


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_span_id",
                 "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self._span_id = tracer._next_id()
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        tracer._record(
            Span(
                self._name,
                self._start,
                duration,
                threading.get_ident(),
                self._attrs,
                self._span_id,
                self._parent_id,
            )
        )


class Tracer:
    """Collects spans from any number of threads.

    ``enabled=False`` (the process default) makes :meth:`span` return a
    shared no-op context manager and :meth:`add_event` a no-op, so
    always-on instrumentation is effectively free outside traced runs.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.epoch = time.perf_counter()
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._local = threading.local()

    # -- span recording -------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a span; use as ``with tracer.span("refine.iteration", i=3):``."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def add_event(
        self, name: str, start: float, duration: float, **attrs: Any
    ) -> None:
        """Record an already-timed slice (the profiler's per-op events).

        ``start`` is a ``time.perf_counter`` value; the event is parented
        under the calling thread's currently open span.
        """
        if not self.enabled:
            return
        stack = self._stack()
        self._record(
            Span(
                name,
                start,
                duration,
                threading.get_ident(),
                attrs,
                self._next_id(),
                stack[-1] if stack else None,
            )
        )

    # -- internals ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._counter += 1
            return self._counter

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- cross-process grafting -----------------------------------------
    def graft(
        self, payload: Dict[str, Any], **root_attrs: Any
    ) -> int:
        """Attach a worker's :func:`serialize_spans` tree to this tracer.

        Span ids are re-issued from this tracer's counter (worker ids
        would collide across shards); the shipped tree's root spans are
        parented under the calling thread's currently open span — at a
        fan-out site, the scatter span — and tagged with ``root_attrs``
        (the task label, typically).  Internal parent/child links are
        preserved, as is the worker's pid, so the Chrome export shows
        one lane per shard process.

        Timestamps are ``time.perf_counter`` values from the worker —
        the same monotonic clock on platforms with ``fork`` — shifted
        forward if they predate this tracer's epoch so exported ``ts``
        never goes negative.  Returns the number of spans grafted.
        """
        if not self.enabled:
            return 0
        entries = payload.get("spans") or []
        if not entries:
            return 0
        stack = self._stack()
        anchor = stack[-1] if stack else None
        pid = payload.get("pid")
        shift = 0.0
        earliest = min(entry["start"] for entry in entries)
        if earliest < self.epoch:
            shift = self.epoch - earliest
        id_map = {
            entry["span_id"]: self._next_id() for entry in entries
        }
        for entry in entries:
            attrs = dict(entry.get("attrs") or {})
            parent_id = entry.get("parent_id")
            if parent_id is None:
                new_parent: Optional[int] = anchor
                attrs.update(root_attrs)
            else:
                new_parent = id_map.get(parent_id, anchor)
            # max(): adding ``shift`` back to the earliest start can
            # round a hair below the epoch, which would export as a
            # negative ``ts``.
            self._record(
                Span(
                    entry["name"],
                    max(entry["start"] + shift, self.epoch)
                    if shift else entry["start"],
                    entry["duration"],
                    entry["thread_id"],
                    attrs,
                    id_map[entry["span_id"]],
                    new_parent,
                    pid=pid if pid is not None else entry.get("pid"),
                )
            )
        return len(entries)

    # -- access ---------------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of all finished spans (record order)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


# ----------------------------------------------------------------------
# Process-wide default tracer (mirrors the metrics registry)
# ----------------------------------------------------------------------
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer instrumented code falls back to."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _default_tracer
    if not isinstance(tracer, Tracer):
        raise TypeError(f"expected a Tracer, got {type(tracer)!r}")
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def use_tracer(tracer: Tracer):
    """Scope the process-wide tracer to a block (CLI runs, tests)."""
    from contextlib import contextmanager

    @contextmanager
    def _scope() -> Iterator[Tracer]:
        previous = set_tracer(tracer)
        try:
            yield tracer
        finally:
            set_tracer(previous)

    return _scope()


# ----------------------------------------------------------------------
# Flame summary
# ----------------------------------------------------------------------
def _paths(spans: Sequence[Span]) -> Dict[Tuple[str, ...], List[float]]:
    """Aggregate spans by their ancestor-name path → [calls, total]."""
    by_id = {span.span_id: span for span in spans}
    aggregated: Dict[Tuple[str, ...], List[float]] = {}
    for span in spans:
        path = [span.name]
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                break  # parent still open (or cleared): treat as a root
            path.append(parent.name)
            parent_id = parent.parent_id
        key = tuple(reversed(path))
        entry = aggregated.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
    return aggregated


def format_span_tree(
    tracer_or_spans, title: Optional[str] = None, max_depth: int = 12
) -> str:
    """Render the span tree as an indented flame summary.

    One line per distinct call path: call count, total wall time, and the
    share of the traced total (the sum of root-span durations).  Spans
    from all threads are merged by path — the aggregate view, not a
    per-thread timeline (export a Chrome trace for that).
    """
    spans = (
        tracer_or_spans.spans()
        if isinstance(tracer_or_spans, Tracer)
        else list(tracer_or_spans)
    )
    aggregated = _paths(spans)
    root_total = sum(
        total for path, (_, total) in aggregated.items() if len(path) == 1
    )
    lines = [title] if title else []
    if not aggregated:
        lines.append("(no spans recorded)")
        return "\n".join(lines)
    name_width = max(
        (len(path) - 1) * 2 + len(path[-1]) for path in aggregated
    )
    header = (
        f"{'span':<{name_width}}  {'calls':>7}  {'total':>10}  {'share':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))

    def emit(path: Tuple[str, ...]) -> None:
        if len(path) > max_depth:
            return
        calls, total = aggregated[path]
        share = total / root_total if root_total else 0.0
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{label:<{name_width}}  {calls:>7d}  {total:>9.4f}s  "
            f"{share:>5.1%}"
        )
        children = [
            p for p in aggregated
            if len(p) == len(path) + 1 and p[: len(path)] == path
        ]
        for child in sorted(children, key=lambda p: -aggregated[p][1]):
            emit(child)

    roots = [p for p in aggregated if len(p) == 1]
    for root in sorted(roots, key=lambda p: -aggregated[p][1]):
        emit(root)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Cross-process span shipping
# ----------------------------------------------------------------------
def serialize_spans(tracer: Tracer) -> Dict[str, Any]:
    """Picklable span-tree payload for shipping out of a worker process.

    The counterpart of :meth:`Tracer.graft`: a pool worker records its
    task's spans into a local tracer, ships ``serialize_spans`` back
    alongside its metrics ``dump_state()``, and the parent grafts the
    tree under the span that launched the task.
    """
    return {
        "pid": os.getpid(),
        "epoch": tracer.epoch,
        "spans": [
            {
                "name": span.name,
                "start": span.start,
                "duration": span.duration,
                "thread_id": span.thread_id,
                "attrs": dict(span.attrs),
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "pid": span.pid,
            }
            for span in tracer.spans()
        ],
    }


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Spans as complete (``"ph": "X"``) Chrome trace events.

    ``ts``/``dur`` are microseconds relative to the tracer's epoch, so
    they are non-negative and monotonically consistent by construction.
    Grafted worker spans keep their own pid — one lane per shard
    process in the viewer.
    """
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    for span in sorted(tracer.spans(), key=lambda s: s.start):
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - tracer.epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid if span.pid is None else span.pid,
                "tid": span.thread_id,
                "args": {key: _jsonable(value)
                         for key, value in span.attrs.items()},
            }
        )
    return events


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return str(value)


def export_chrome_trace(path: str, tracer: Tracer) -> Dict[str, Any]:
    """Write ``chrome://tracing`` / Perfetto-loadable JSON; returns it."""
    payload = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    validate_chrome_trace(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return payload


def validate_chrome_trace(payload: Any) -> Any:
    """Check trace-event JSON for loadability; returns it unchanged.

    Enforces what ``chrome://tracing`` needs: a ``traceEvents`` list of
    complete ``X`` events with non-negative numeric ``ts``/``dur`` and
    ``pid``/``tid`` fields.  Raises ``ValueError`` naming the first
    offending event.
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise ValueError("chrome trace must be a dict with a traceEvents list")
    for position, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{position}] is not an object")
        if event.get("ph") != "X":
            raise ValueError(
                f"traceEvents[{position}]: only complete 'X' events are "
                f"emitted, got ph={event.get('ph')!r}"
            )
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"traceEvents[{position}]: missing name")
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"traceEvents[{position}]: {field} must be a "
                    f"non-negative number, got {value!r}"
                )
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(
                    f"traceEvents[{position}]: {field} must be an integer"
                )
    return payload
