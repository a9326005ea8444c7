"""Admission control + hot artifact swap in front of a query engine.

:class:`FrontDoor` wraps any engine with the :class:`QueryEngine`
surface and adds the two things a long-lived deployment needs:

* **Admission control** — a bounded count of in-flight queries.  At the
  bound, new work is rejected *immediately* with
  :class:`OverloadedError` (HTTP 429 through
  :func:`~repro.serving.server.status_for_error`) instead of queueing
  without limit.  429 means "healthy but full, retry"; a closed or
  unhealthy engine raises plain ``RuntimeError`` → 503, which clients
  back off from differently.
* **Hot artifact swap** — :meth:`reload` builds a fresh engine for a
  new ``repro.artifact/v1`` directory (in the calling thread, typically
  an HTTP handler), atomically flips the active engine, then drains and
  closes the old one.  Queries admitted before the flip finish on the
  engine they started on; queries admitted after it run on the new one
  — **zero** in-flight queries fail.  The engine cache key already
  includes the artifact fingerprint, so stale cache hits are
  structurally impossible.  Concurrent reloads don't queue: the second
  caller gets :class:`OverloadedError` right away.

Metrics land under ``serving.frontdoor.*``: queue depth (observed per
admission), rejected/admitted counters, swap counter + event, drain
time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import MetricsRegistry, get_registry, get_tracer
from .engine import QueryEngine, QueryResult

__all__ = ["OverloadedError", "FrontDoor"]


class OverloadedError(RuntimeError):
    """Admission control rejected the request; retry later (HTTP 429).

    A ``RuntimeError`` subclass so un-taxonomized callers still treat it
    as a serving failure, but :func:`~repro.serving.server.status_for_error`
    checks it first and answers 429 instead of 503.
    """


class _Slot:
    """One engine plus the count of queries currently running on it."""

    __slots__ = ("engine", "inflight")

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        self.inflight = 0


class FrontDoor:
    """Bounded, hot-swappable front of a :class:`QueryEngine`.

    Exposes the full engine surface (``query``, ``query_many``,
    ``stats``, ``fingerprint``, ``index``, ``start``/``close``/context
    manager) so :class:`~repro.serving.server.AlignmentServer` and the
    in-process client can sit on either transparently.

    Parameters
    ----------
    engine:
        The initially active engine.
    max_pending:
        In-flight query bound; each ``query`` counts 1, each
        ``query_many`` counts ``len(queries)``.
    builder:
        ``callable(artifact_path) -> QueryEngine`` used by
        :meth:`reload`; ``None`` disables hot swap (reload → 400).
    drain_timeout_s:
        Longest :meth:`reload` waits for the old engine's in-flight
        queries before closing it anyway (a backstop; the close itself
        fails stragglers loudly rather than hanging them).
    reload_backoff_s / reload_backoff_factor / reload_backoff_max_s:
        Crash-loop protection for :meth:`reload`: after a failed swap,
        further reload attempts are rejected with
        :class:`OverloadedError` (without even invoking the builder)
        until an exponentially-growing backoff window has passed —
        ``reload_backoff_s * factor**(failures - 1)``, capped.  A
        successful swap resets the window.
    """

    def __init__(
        self,
        engine: QueryEngine,
        max_pending: int = 64,
        builder: Optional[Callable[[str], QueryEngine]] = None,
        drain_timeout_s: float = 30.0,
        reload_backoff_s: float = 1.0,
        reload_backoff_factor: float = 2.0,
        reload_backoff_max_s: float = 60.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if drain_timeout_s <= 0:
            raise ValueError(
                f"drain_timeout_s must be positive, got {drain_timeout_s}"
            )
        if reload_backoff_s <= 0:
            raise ValueError(
                f"reload_backoff_s must be positive, got {reload_backoff_s}"
            )
        if reload_backoff_factor < 1.0:
            raise ValueError(
                "reload_backoff_factor must be >= 1, got "
                f"{reload_backoff_factor}"
            )
        self.max_pending = int(max_pending)
        self.drain_timeout_s = float(drain_timeout_s)
        self.reload_backoff_s = float(reload_backoff_s)
        self.reload_backoff_factor = float(reload_backoff_factor)
        self.reload_backoff_max_s = float(reload_backoff_max_s)
        self.registry = registry
        self._builder = builder
        self._slot = _Slot(engine)
        self._pending = 0
        self._swaps = 0
        self._rejected = 0
        self._reload_failures = 0          # consecutive, resets on success
        self._reload_failures_total = 0
        self._reload_blocked_until = 0.0   # monotonic; crash-loop window
        self._closed = False
        self._cond = threading.Condition()
        self._reload_lock = threading.Lock()

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # -- admission ------------------------------------------------------
    @contextmanager
    def _admit(self, weight: int = 1):
        registry = self._registry()
        with self._cond:
            if self._closed:
                raise RuntimeError("FrontDoor is closed")
            if self._pending + weight > self.max_pending:
                self._rejected += 1
                registry.increment("serving.frontdoor.rejected")
                raise OverloadedError(
                    f"serving queue is full ({self._pending} in flight, "
                    f"bound {self.max_pending}); retry later"
                )
            self._pending += weight
            slot = self._slot
            slot.inflight += weight
            registry.increment("serving.frontdoor.admitted", weight)
            registry.record_histogram(
                "serving.frontdoor.queue_depth", self._pending
            )
        try:
            yield slot.engine
        finally:
            with self._cond:
                self._pending -= weight
                slot.inflight -= weight
                self._cond.notify_all()

    # -- engine surface -------------------------------------------------
    @property
    def engine(self) -> QueryEngine:
        """The currently active engine (changes across :meth:`reload`)."""
        with self._cond:
            return self._slot.engine

    @property
    def fingerprint(self) -> str:
        return self.engine.fingerprint

    @property
    def index(self):
        return self.engine.index

    def query(
        self,
        source: int,
        k: int = 1,
        deadline_s: Optional[float] = None,
        mode: Optional[str] = None,
        nprobe: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> QueryResult:
        with self._admit() as engine:
            return engine.query(
                source, k, deadline_s=deadline_s, mode=mode, nprobe=nprobe,
                request_id=request_id,
            )

    def query_many(
        self,
        queries: Sequence[Tuple[int, int]],
        deadline_s: Optional[float] = None,
        mode: Optional[str] = None,
        nprobe: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> List[QueryResult]:
        with self._admit(weight=max(1, len(queries))) as engine:
            return engine.query_many(
                queries, deadline_s=deadline_s, mode=mode, nprobe=nprobe,
                request_id=request_id,
            )

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            engine = self._slot.engine
            frontdoor = {
                "max_pending": self.max_pending,
                "pending": self._pending,
                "rejected": self._rejected,
                "swaps": self._swaps,
                "reload_failures": self._reload_failures_total,
            }
        stats = engine.stats()
        stats["frontdoor"] = frontdoor
        return stats

    def health(self) -> Dict[str, Any]:
        """Liveness + readiness snapshot (the ``/healthz`` payload).

        ``healthy`` (liveness) survives degraded shards; ``ready``
        (readiness) requires full coverage and no reload crash-loop —
        the split that lets an orchestrator keep a degraded replica
        serving while routing new traffic elsewhere.
        """
        with self._cond:
            engine = self._slot.engine
            closed = self._closed
            backoff_remaining = max(
                0.0, self._reload_blocked_until - time.monotonic()
            )
            reload_failures = self._reload_failures_total
        engine_health = getattr(engine, "health", None)
        report = (
            dict(engine_health()) if engine_health is not None
            else {"degraded": False, "coverage": 1.0, "shards_down": []}
        )
        report.setdefault("healthy", True)
        if closed:
            report["healthy"] = False
        report["closed"] = closed
        report["reload_failures"] = reload_failures
        report["reload_backoff_s"] = backoff_remaining
        report["ready"] = bool(
            report["healthy"]
            and not report.get("degraded")
            and backoff_remaining == 0.0
        )
        return report

    # -- hot swap -------------------------------------------------------
    def _reload_failed(self, error: BaseException) -> None:
        """Record a failed swap and arm the crash-loop backoff window."""
        registry = self._registry()
        with self._cond:
            self._reload_failures += 1
            self._reload_failures_total += 1
            backoff = min(
                self.reload_backoff_s
                * self.reload_backoff_factor ** (self._reload_failures - 1),
                self.reload_backoff_max_s,
            )
            self._reload_blocked_until = time.monotonic() + backoff
        registry.increment("serving.frontdoor.reload_failures")
        registry.emit(
            "serving.frontdoor.reload_failed",
            {
                "error": str(error),
                "consecutive": self._reload_failures,
                "backoff_s": backoff,
            },
        )

    def reload(self, artifact_path: str) -> str:
        """Swap in ``artifact_path``; returns the new fingerprint.

        Build happens before the flip, so a bad artifact (missing dir,
        failed validation) leaves the old engine serving untouched.  A
        failed build arms an exponential backoff window during which
        further reloads are rejected up front (:class:`OverloadedError`)
        — a bad-artifact crash loop cannot burn the serving tier's CPU
        rebuilding the same broken engine back to back.
        """
        if self._builder is None:
            raise ValueError(
                "hot reload is not configured: this FrontDoor was built "
                "without an engine builder"
            )
        with self._cond:
            remaining = self._reload_blocked_until - time.monotonic()
            if remaining > 0:
                self._registry().increment(
                    "serving.frontdoor.reload_rejected"
                )
                error = OverloadedError(
                    f"reload is backing off after {self._reload_failures} "
                    f"consecutive failed swap(s); retry in "
                    f"{remaining:.2f}s"
                )
                error.retry_after_s = remaining  # → Retry-After header
                raise error
        if not self._reload_lock.acquire(blocking=False):
            raise OverloadedError(
                "another reload is already in progress; retry later"
            )
        registry = self._registry()
        try:
            with get_tracer().span(
                "serving.frontdoor.reload", artifact=artifact_path
            ):
                try:
                    engine = self._builder(artifact_path)
                    try:
                        engine.start()
                        with self._cond:
                            if self._closed:
                                raise RuntimeError("FrontDoor is closed")
                            old, self._slot = self._slot, _Slot(engine)
                            self._swaps += 1
                    except BaseException:
                        engine.close()
                        raise
                except BaseException as error:
                    # The old engine is still serving, untouched; arm the
                    # crash-loop backoff before surfacing the failure.
                    self._reload_failed(error)
                    raise
                with self._cond:
                    self._reload_failures = 0
                    self._reload_blocked_until = 0.0
                # Queries admitted before the flip hold references to the
                # old engine; wait for them so the close fails nobody.
                drain_started = time.perf_counter()
                with self._cond:
                    while old.inflight > 0:
                        remaining = self.drain_timeout_s - (
                            time.perf_counter() - drain_started
                        )
                        if remaining <= 0:
                            registry.increment(
                                "serving.frontdoor.drain_timeouts"
                            )
                            break
                        self._cond.wait(remaining)
                old.engine.close()
                registry.record_histogram(
                    "serving.frontdoor.drain_time",
                    time.perf_counter() - drain_started,
                )
            registry.increment("serving.frontdoor.swaps")
            registry.emit(
                "serving.frontdoor.swapped",
                {
                    "artifact": artifact_path,
                    "fingerprint": engine.fingerprint,
                },
            )
            return engine.fingerprint
        finally:
            self._reload_lock.release()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "FrontDoor":
        self.engine.start()
        return self

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            engine = self._slot.engine
        engine.close()

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
