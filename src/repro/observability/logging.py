"""Structured JSON-lines logging with request-ID correlation.

The runtime's third observability pillar next to metrics
(:mod:`.registry`) and spans (:mod:`.trace`): discrete *events*, one
JSON object per line, greppable and shippable without a parser beyond
``json.loads``.  Every line carries ``ts``, ``level``, ``logger``, and
``event``; correlation fields (``request_id``, ``fingerprint``,
``shard``) and free-form context ride along as top-level keys::

    {"ts": 1754650000.123, "level": "INFO", "logger": "serving.http",
     "event": "serving.http.request", "request_id": "9f2c4e1ab87d3f60",
     "status": 200, "path": "/query"}

Built on stdlib ``logging``: :func:`configure_logging` installs one
JSON-lines handler on the ``repro`` logger (stream or file), and
:func:`get_logger` hands out cheap named wrappers.  Unconfigured, the
``repro`` logger has a ``NullHandler`` and does not propagate, so
instrumented hot paths cost one level check and emit nothing — the
logging equivalent of the disabled default tracer.

Request-ID correlation
----------------------
:func:`mint_request_id` creates an id, :func:`use_request_id` binds it
to the current thread, and every log line emitted while bound carries
it automatically.  The serving front door binds the id per HTTP
request; worker processes receive it through the pool's task-context
channel and stamp their own lines explicitly — one grep joins the two
sides of a scatter.

The event clock is injectable (:func:`configure_logging`'s ``clock``)
so tests pin timestamps; the default is wall-clock time, the one place
in the repo where log lines must be joinable with external systems.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, TextIO, Union,
)

__all__ = [
    "LOG_FILE_ENV_VAR",
    "LOG_LEVEL_ENV_VAR",
    "StructuredLogger",
    "SlowQueryLog",
    "configure_logging",
    "configure_logging_from_env",
    "current_request_id",
    "get_logger",
    "logging_configured",
    "mint_request_id",
    "reset_logging",
    "set_request_id",
    "use_request_id",
]

#: Environment variables read by :func:`configure_logging_from_env` —
#: the hook CI harnesses use to capture JSON logs as artifacts.
LOG_LEVEL_ENV_VAR = "REPRO_LOG_LEVEL"
LOG_FILE_ENV_VAR = "REPRO_LOG_FILE"

_ROOT_NAME = "repro"


def _wall_clock() -> float:
    """Default event clock: log lines join with external systems."""
    return time.time()  # wall-clock: log-event timestamps are joinable


# The logging root is silent until configured: no propagation to the
# stdlib root (whose lastResort handler would spray stderr) and a
# NullHandler so "no handlers" warnings never fire.
_root = logging.getLogger(_ROOT_NAME)
_root.addHandler(logging.NullHandler())
_root.propagate = False

_state: Dict[str, Any] = {"handler": None, "clock": _wall_clock}
_state_lock = threading.Lock()


# ----------------------------------------------------------------------
# Request-ID context (thread-local)
# ----------------------------------------------------------------------
_request_local = threading.local()


def mint_request_id() -> str:
    """A fresh 16-hex-char request id (collision-safe per deployment)."""
    return uuid.uuid4().hex[:16]


def current_request_id() -> Optional[str]:
    """The request id bound to this thread, or ``None``."""
    return getattr(_request_local, "request_id", None)


def set_request_id(request_id: Optional[str]) -> Optional[str]:
    """Bind ``request_id`` to this thread; returns the previous binding."""
    previous = getattr(_request_local, "request_id", None)
    _request_local.request_id = request_id
    return previous


@contextmanager
def use_request_id(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Scope a request id to a block (the front door's per-request bind)."""
    previous = set_request_id(request_id)
    try:
        yield request_id
    finally:
        set_request_id(previous)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def configure_logging(
    level: Any = "INFO",
    stream: Optional[TextIO] = None,
    path: Optional[str] = None,
    clock: Optional[Callable[[], float]] = None,
) -> logging.Handler:
    """Install the process-wide JSON-lines handler; returns it.

    ``level`` is a name (``"DEBUG"``...) or numeric level; ``path``
    appends to a file, ``stream`` writes to a file-like object
    (default ``sys.stderr``) — exactly one of the two.  ``clock``
    overrides the event timestamp source (tests pin it).  Calling again
    replaces the previous handler, so ``serve --log-level`` and tests
    can reconfigure freely.
    """
    if path is not None and stream is not None:
        raise ValueError("pass either stream or path, not both")
    resolved = _resolve_level(level)
    handler: logging.Handler
    if path is not None:
        handler = logging.FileHandler(path, encoding="utf-8")
    else:
        handler = logging.StreamHandler(
            stream if stream is not None else sys.stderr
        )
    handler.setFormatter(logging.Formatter("%(message)s"))
    with _state_lock:
        _detach_locked()
        _root.addHandler(handler)
        _root.setLevel(resolved)
        _state["handler"] = handler
        if clock is not None:
            _state["clock"] = clock
    return handler


def configure_logging_from_env() -> Optional[logging.Handler]:
    """Configure from ``REPRO_LOG_LEVEL``/``REPRO_LOG_FILE`` when set.

    The no-code-change switch CI harnesses flip to capture JSON logs as
    build artifacts; returns ``None`` (and changes nothing) when
    neither variable is set.
    """
    path = os.environ.get(LOG_FILE_ENV_VAR, "").strip() or None
    level = os.environ.get(LOG_LEVEL_ENV_VAR, "").strip() or None
    if path is None and level is None:
        return None
    return configure_logging(level=level or "INFO", path=path)


def reset_logging() -> None:
    """Remove the configured handler and restore the silent default."""
    with _state_lock:
        _detach_locked()
        _root.setLevel(logging.NOTSET)
        _state["clock"] = _wall_clock


def logging_configured() -> bool:
    """True between :func:`configure_logging` and :func:`reset_logging`."""
    return _state["handler"] is not None


def _detach_locked() -> None:
    handler = _state["handler"]
    if handler is not None:
        _root.removeHandler(handler)
        handler.close()
        _state["handler"] = None


def _resolve_level(level: Any) -> int:
    if isinstance(level, int) and not isinstance(level, bool):
        return level
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if isinstance(resolved, int):
            return resolved
    raise ValueError(f"unknown log level {level!r}")


# ----------------------------------------------------------------------
# Structured logger
# ----------------------------------------------------------------------
class StructuredLogger:
    """Named logger emitting one JSON object per line.

    ``fields`` become top-level JSON keys; an explicit ``request_id``
    wins over the thread-bound one.  Non-JSON values fall back to
    ``str`` so a log call can never raise out of a hot path.
    """

    __slots__ = ("name", "_logger")

    def __init__(self, name: str) -> None:
        self.name = name
        stdlib_name = (
            name if name == _ROOT_NAME or name.startswith(_ROOT_NAME + ".")
            else f"{_ROOT_NAME}.{name}"
        )
        self._logger = logging.getLogger(stdlib_name)

    def enabled_for(self, level: int) -> bool:
        """Cheap pre-check for hot paths assembling expensive fields."""
        return self._logger.isEnabledFor(level)

    def log(self, level: int, event: str, **fields: Any) -> None:
        if not self._logger.isEnabledFor(level):
            return
        record: Dict[str, Any] = {
            "ts": _state["clock"](),
            "level": logging.getLevelName(level),
            "logger": self.name,
            "event": event,
        }
        request_id = fields.pop("request_id", None) or current_request_id()
        if request_id:
            record["request_id"] = request_id
        record.update(fields)
        self._logger.log(level, json.dumps(record, default=str))

    def debug(self, event: str, **fields: Any) -> None:
        self.log(logging.DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log(logging.INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log(logging.WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log(logging.ERROR, event, **fields)


_loggers: Dict[str, StructuredLogger] = {}
_loggers_lock = threading.Lock()


def get_logger(name: str) -> StructuredLogger:
    """Cached :class:`StructuredLogger` under the ``repro`` root."""
    logger = _loggers.get(name)
    if logger is None:
        with _loggers_lock:
            logger = _loggers.setdefault(name, StructuredLogger(name))
    return logger


# ----------------------------------------------------------------------
# Slow-query / audit log
# ----------------------------------------------------------------------
class SlowQueryLog:
    """Audit log of slow or degraded queries with a bounded recent list.

    Every query whose latency crosses ``threshold_s`` — or that came
    back degraded, whatever its latency — logs its full descriptor,
    coverage, and per-stage timings at WARNING, and lands in a bounded
    ring of recent offenders that ``/stats`` and ``repro status``
    surface as "top slow queries".  Healthy fast queries cost one
    comparison.
    """

    def __init__(
        self,
        threshold_s: float = 0.25,
        keep: int = 32,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        if threshold_s < 0:
            raise ValueError(f"threshold_s must be >= 0, got {threshold_s}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.threshold_s = float(threshold_s)
        self._recent: deque = deque(maxlen=int(keep))
        self._log = logger if logger is not None else get_logger(
            "serving.slowlog"
        )
        self._lock = threading.Lock()
        self._total = 0

    def observe(
        self,
        *,
        latency_s: float,
        descriptor: Union[Dict[str, Any], Callable[[], Dict[str, Any]]],
        request_id: Optional[str] = None,
        degraded: bool = False,
        coverage: float = 1.0,
        stages: Optional[Dict[str, float]] = None,
    ) -> bool:
        """Record one finished query; returns True when it was audited.

        ``descriptor`` may be a zero-argument callable returning the
        dict: it is called only for a query that gets audited.
        """
        if latency_s < self.threshold_s and not degraded:
            return False
        if callable(descriptor):
            descriptor = descriptor()
        entry = {
            "request_id": request_id or current_request_id(),
            "latency_ms": round(latency_s * 1e3, 3),
            "degraded": bool(degraded),
            "coverage": float(coverage),
            "descriptor": dict(descriptor),
            "stages": dict(stages) if stages else {},
        }
        with self._lock:
            self._total += 1
            self._recent.append(entry)
        self._log.warning("serving.slow_query", **entry)
        return True

    @property
    def total(self) -> int:
        """Queries audited since construction (ring evictions included)."""
        with self._lock:
            return self._total

    def recent(self, limit: int = 5) -> List[Dict[str, Any]]:
        """The slowest recently-audited queries, worst first."""
        with self._lock:
            entries = list(self._recent)
        entries.sort(key=lambda entry: -entry["latency_ms"])
        return entries[:limit]
