"""Span recording from outside the program, for the traced run.

:class:`SpanRecorder` replaces a library callable at the place the
library looks it up (a module global such as
``repro.core.trainer.consistency_loss``, or a class attribute such as
``AlignmentIndex.top_k``) with a wrapper that records a span around the
call, and puts every original back on exit.  Spans live in memory —
name, start, end, parent, thread, request id — and are written once, as
a Chrome trace, when the workload ends.

The untraced run uses :data:`NO_SPANS`, whose ``span`` is a no-op, so
the benchmark's own call-site spans cost nothing there.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional, Union


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "rid", "args")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 thread: int, rid: Optional[str], args: Dict[str, Any]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.rid = rid
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoSpans:
    """The untraced stand-in: ``span`` records nothing."""

    def span(self, name: str, rid: Optional[str] = None, **args):
        return nullcontext()


NO_SPANS = _NoSpans()


class SpanRecorder:
    """Collect spans from the benchmark's call sites and wrapped callables.

    Use as a context manager: :meth:`wrap` patches callables, and leaving
    the ``with`` block restores every one of them, even on error.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, **args):
        stack = self._stack()
        span = Span(
            name, time.perf_counter(), stack[-1] if stack else None,
            threading.get_ident(), rid, args,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Union[str, Callable[..., Optional[str]]],
        rid: Optional[Callable[[], Optional[str]]] = None,
        args: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` may be a callable of the call's arguments returning the
        span name, or ``None`` to pass the call through unrecorded;
        ``rid`` supplies the request id and ``args`` extra span fields.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*call_args, **call_kwargs):
            label = (
                name(*call_args, **call_kwargs) if callable(name) else name
            )
            if label is None:
                return original(*call_args, **call_kwargs)
            fields = args(*call_args, **call_kwargs) if args else {}
            with recorder.span(label, rid() if rid else None, **fields):
                return original(*call_args, **call_kwargs)

        # Class attributes are restored by deleting the override when the
        # attribute was inherited, so the class dict ends as it started.
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        self._patches.append((owner, attr, original, inherited))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- queries ------------------------------------------------------------
    def named(self, name: str, start: float = float("-inf"),
              end: float = float("inf")) -> List[Span]:
        """Spans called ``name`` that start inside ``[start, end)`` and are
        not nested in a span of the same name."""
        return [
            span for span in self.spans
            if span.name == name and start <= span.start < end
            and (span.parent is None or span.parent.name != name)
        ]

    def total_ms(self, names, start: float = float("-inf"),
                 end: float = float("inf"), top_level: bool = False) -> float:
        """Summed duration in ms of the spans in ``names`` inside the window;
        ``top_level`` keeps only spans without a parent."""
        names = {names} if isinstance(names, str) else set(names)
        total = 0.0
        for span in self.spans:
            if span.name not in names or not start <= span.start < end:
                continue
            if top_level and span.parent is not None:
                continue
            if span.parent is not None and span.parent.name == span.name:
                continue
            total += span.duration
        return total * 1e3

    def chrome_trace(self) -> dict:
        """All spans as complete ('X') trace events, microseconds since
        the recorder was created."""
        threads: Dict[int, int] = {}
        pid = os.getpid()
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            fields = dict(span.args)
            if span.rid is not None:
                fields["request_id"] = span.rid
            if span.parent is not None:
                fields["parent"] = span.parent.name
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": max(0.0, (span.start - self.origin) * 1e6),
                "dur": max(0.0, span.duration * 1e6),
                "pid": pid,
                "tid": tid,
                "args": fields,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
