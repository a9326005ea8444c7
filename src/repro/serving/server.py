"""Stdlib-only JSON HTTP API over a :class:`QueryEngine`.

Routes
------
``GET /healthz``
    **Liveness**: always 200 while the process can answer HTTP, with
    the degraded-answer detail (``degraded``, ``coverage``,
    ``shards_down``, breaker states) in the body.  A degraded tier is
    alive — restarting it would only lose the surviving shards.
``GET /readyz``
    **Readiness**: 200 only at full coverage (no open breakers, no
    reload crash-loop); 503 otherwise.  Orchestrators route new traffic
    on this one.
``GET /stats``
    Engine operational snapshot plus the ``serving.*`` metrics.
``GET /metrics``
    The full metrics registry as a ``repro.bench/v2`` payload — every
    counter, gauge, and histogram (with p50/p90/p99), not just
    the ``serving.*`` prefix.  Scrape-friendly: what ``--metrics-out``
    writes at shutdown, available live.  ``?format=prometheus`` renders
    the same registry in the Prometheus text exposition format
    (``text/plain``) for a stock scraper; ``?format=json`` (the
    default) keeps the bench payload.
``GET /query?source=<id>&k=<k>&deadline_ms=<budget>&mode=<m>&nprobe=<p>``
    One alignment query.  ``deadline_ms`` (optional) is the caller's
    latency budget: the deadline propagates through admission, the
    microbatcher, and the shard scatter, each stage shedding expired
    work; an answer that cannot make it returns **504**.  ``mode``
    (``exact`` | ``ann``, default per the engine) and ``nprobe`` pick
    the exactness tier: ``mode=ann`` with ``nprobe`` probed inverted
    lists trades recall for latency, and an invalid combination —
    unknown mode, ``nprobe`` with ``mode=exact``, ``nprobe`` outside
    ``[1, n_clusters]``, ``mode=ann`` on an artifact without an ANN
    tier — is a typed
    :class:`~repro.resilience.AnnParameterError` → **400**.
``POST /query``
    Batch: ``{"queries": [{"source": 3, "k": 5}, ...], "deadline_ms":
    250, "mode": "ann", "nprobe": 8}`` → ``{"results": [...]}``; the
    whole batch goes through :meth:`QueryEngine.query_many` (one matmul
    per ``batch_size`` chunk) under one shared deadline and one shared
    ``mode``/``nprobe`` descriptor.
``POST /admin/reload``
    Hot artifact swap: ``{"artifact": "<path>"}`` loads the artifact
    directory (a path on the *server's* filesystem) in the handler
    thread, atomically flips the engine, drains the old one, and
    returns the new fingerprint.  Only available when the engine is a
    :class:`~repro.serving.frontdoor.FrontDoor`.

Error taxonomy → HTTP status
----------------------------
Malformed requests (missing/wrong-typed params or fields, bad JSON,
invalid ``k``) map to **400**; unknown paths and out-of-range source
ids to **404**; admission-control rejection
(:class:`~repro.serving.frontdoor.OverloadedError` — retry later, with
a ``Retry-After`` header) to **429**; a missed deadline
(:class:`~repro.resilience.DeadlineExceededError`) to **504**; a closed
or unhealthy engine to **503**; anything unexpected to **500**.
Client-caused input can never produce a 500: every field is
type-checked at this boundary before it reaches the engine.  Every
error body is ``{"error": <message>, "type": <exception class>}`` so
clients can surface the library's actionable messages unchanged.

Request correlation and SLOs
----------------------------
Every request gets a request id — honored from an ``X-Request-Id``
header or a ``request_id`` JSON body field, minted otherwise — bound to
the handler thread for the request's duration (so every log line the
request produces carries it, down to the shard workers), echoed back in
an ``X-Request-Id`` response header, and included in every error body.
Query latencies and statuses feed an :class:`~repro.observability.slo.SLOTracker`
whose snapshot rides in ``/stats``; a burning error budget flips
``/readyz`` to 503 so orchestrators shift traffic before the SLO is
gone.

The server is a ``ThreadingHTTPServer`` (one handler thread per
connection — exactly the concurrent-caller shape the engine's
microbatcher coalesces) wrapped in :class:`AlignmentServer` for
graceful startup/shutdown and context-manager use.  Every response
leaves in one send: status line, headers and body go into the
handler's buffered ``wfile`` and are flushed once.  Every connection
sets ``TCP_NODELAY``, so a response larger than the buffer is not held
back by Nagle's algorithm until the client's delayed ACK either.  A
client that disconnects before reading its response is counted under
``serving.http.client_disconnects`` and never crashes the handler
thread or pollutes ``serving.http.errors``.
"""

from __future__ import annotations

import io
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..observability import (
    MetricsRegistry,
    SLOTracker,
    bench_payload,
    current_request_id,
    get_logger,
    get_registry,
    mint_request_id,
    set_request_id,
    to_prometheus_text,
    use_request_id,
)
from ..resilience import ArtifactValidationError, DeadlineExceededError
from .engine import QueryEngine, _require_int
from .frontdoor import OverloadedError

__all__ = ["AlignmentServer", "status_for_error"]


def status_for_error(error: BaseException) -> int:
    """Map a library exception to its HTTP status code."""
    if isinstance(error, (ArtifactValidationError, ValueError)):
        return 400
    if isinstance(error, (IndexError, KeyError)):
        return 404
    if isinstance(error, OverloadedError):
        # Checked before RuntimeError: overload is retryable (429), a
        # closed/unhealthy engine (503) is not — clients back off
        # differently.
        return 429
    if isinstance(error, DeadlineExceededError):
        # Also before RuntimeError: the *caller's* budget expired (504);
        # retrying with the same budget may well succeed on a warm cache.
        return 504
    if isinstance(error, RuntimeError):
        return 503
    return 500


class _BadRequest(ValueError):
    """A malformed HTTP request (missing/unparseable parameter or body)."""


class _UnknownRoute(KeyError):
    """No handler for the requested path."""

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0] if self.args else ""


def _parse_int(params: Dict, name: str, default: Optional[int]) -> int:
    values = params.get(name)
    if not values:
        if default is None:
            raise _BadRequest(f"missing required query parameter {name!r}")
        return default
    try:
        return int(values[0])
    except ValueError:
        raise _BadRequest(
            f"query parameter {name!r} must be an integer, got {values[0]!r}"
        ) from None


def _deadline_from_ms(deadline_ms: int) -> Optional[float]:
    """A request's ``deadline_ms`` budget → absolute monotonic deadline.

    0 (the "absent" default) means no deadline; negatives are the
    client's bug and answer 400.
    """
    if deadline_ms < 0:
        raise _BadRequest(
            f"deadline_ms must be >= 0, got {deadline_ms}"
        )
    if deadline_ms == 0:
        return None
    return time.monotonic() + deadline_ms / 1e3


def _payload_degraded(payload: Any) -> bool:
    """Whether a 2xx response body carries a degraded (partial) answer."""
    if not isinstance(payload, dict):
        return False
    if payload.get("degraded"):
        return True
    results = payload.get("results")
    return isinstance(results, list) and any(
        isinstance(entry, dict) and entry.get("degraded")
        for entry in results
    )


class _ServingHandler(BaseHTTPRequestHandler):
    server_version = "repro-serving/1"
    protocol_version = "HTTP/1.1"
    # Both are stdlib knobs.  TCP_NODELAY on every accepted connection,
    # so no response waits on Nagle's algorithm for the client's delayed
    # ACK; and a buffered wfile, so a response's status line, headers
    # and body leave in one send when they fit the buffer.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024

    # -- plumbing ------------------------------------------------------
    @property
    def engine(self) -> QueryEngine:
        return self.server.engine  # type: ignore[attr-defined]

    @property
    def registry(self) -> MetricsRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    @property
    def slo(self) -> Optional[SLOTracker]:
        return getattr(self.server, "slo", None)

    def log_message(self, format: str, *args) -> None:
        # Route access logs to registry hooks instead of stderr noise;
        # the structured DEBUG copy is opt-in (serve --access-log) so a
        # high-QPS tier doesn't pay a JSON encode per connection line.
        message = format % args
        self.registry.emit("serving.http.log", {"message": message})
        if getattr(self.server, "access_log", False):
            get_logger("serving.http").debug(
                "serving.http.access",
                message=message,
                client=self.client_address[0] if self.client_address
                else None,
            )

    def handle_expect_100(self) -> bool:
        # The stdlib writes the interim 100 into the buffered wfile; it
        # must leave now, or an ``Expect: 100-continue`` caller (curl,
        # for a large POST body) waits its own timeout before sending.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def _send(
        self,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, str):
            # Prometheus text exposition (and any future plain route).
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before reading its response.  That is
            # their problem, not a server error: count it, drop the
            # connection, and keep the handler thread healthy.
            self.close_connection = True
            self.registry.increment("serving.http.client_disconnects")
            # Drop the unsent bytes.  The stdlib flushes wfile again
            # after the handler and in finish(); a retry into the dead
            # socket would only end in a stderr traceback.
            wfile, self.wfile = self.wfile, io.BytesIO()
            try:
                wfile.close()
            except OSError:
                pass

    def _dispatch(self, handler) -> None:
        self.registry.increment("serving.http.requests")
        # Honor the caller's correlation id, mint one otherwise.  The id
        # is thread-bound for the request's whole lifetime: the engine
        # picks it up implicitly, shard workers receive it through the
        # task-context channel, and every log line carries it.  A
        # request_id JSON body field (seen only once the handler parses
        # the body) rebinds it mid-request; the response header reads
        # the final binding.
        request_id = (
            (self.headers.get("X-Request-Id") or "").strip()
            or mint_request_id()
        )
        path = urlsplit(self.path).path
        started = time.perf_counter()
        headers: Optional[Dict[str, str]] = None
        degraded = False
        with use_request_id(request_id):
            try:
                status, payload = handler()
                degraded = _payload_degraded(payload)
            except Exception as error:
                status = status_for_error(error)
                payload = {
                    "error": str(error),
                    "type": type(error).__name__,
                    "request_id": current_request_id() or request_id,
                }
                if status == 429:
                    # Well-behaved clients (ours included) honor
                    # Retry-After instead of guessing a backoff.
                    retry_after = getattr(error, "retry_after_s", None)
                    headers = {
                        "Retry-After": str(
                            max(1, math.ceil(retry_after))
                            if retry_after is not None else 1
                        )
                    }
                self.registry.increment("serving.http.errors")
                self.registry.emit(
                    "serving.http.error",
                    {"status": status, "error": str(error)},
                )
                get_logger("serving.http").error(
                    "serving.http.error",
                    status=status, path=path, error=str(error),
                    error_type=type(error).__name__,
                )
            request_id = current_request_id() or request_id
            slo = self.slo
            if slo is not None and path == "/query":
                # Health probes and scrapes don't consume error budget;
                # a degraded (partial-coverage) answer does.
                slo.record(
                    time.perf_counter() - started,
                    good=status < 500 and not degraded,
                )
            self._send(
                status, payload,
                {**(headers or {}), "X-Request-Id": request_id},
            )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._handle_post)

    def _health(self) -> Dict[str, Any]:
        health = getattr(self.engine, "health", None)
        report = dict(health()) if health is not None else {
            "healthy": True, "degraded": False, "coverage": 1.0,
            "shards_down": [],
        }
        report["fingerprint"] = self.engine.fingerprint
        report["n_source"] = self.engine.index.n_source
        report["n_target"] = self.engine.index.n_target
        return report

    def _handle_get(self) -> Tuple[int, Dict[str, Any]]:
        url = urlsplit(self.path)
        if url.path == "/healthz":
            # Liveness: a degraded tier is still alive — 200 with the
            # degradation spelled out, so probes don't restart a replica
            # that is the only one still holding the surviving shards.
            report = self._health()
            report["status"] = "ok" if report.get("healthy", True) else (
                "unhealthy"
            )
            return 200, report
        if url.path == "/readyz":
            # Readiness: full coverage or don't route traffic here.  A
            # burning error budget also flips not-ready — shift traffic
            # *before* the SLO is spent, not after.
            report = self._health()
            ready = bool(
                report.get("ready", report.get("healthy", True)
                           and not report.get("degraded", False))
            )
            slo = self.slo
            if slo is not None:
                snapshot = slo.snapshot()
                report["slo"] = snapshot
                ready = ready and not snapshot["burning"]
            report["status"] = "ready" if ready else "not_ready"
            return (200 if ready else 503), report
        if url.path == "/stats":
            stats: Dict[str, Any] = {
                "engine": self.engine.stats(),
                "metrics": self.registry.snapshot("serving"),
            }
            slo = self.slo
            if slo is not None:
                stats["slo"] = slo.snapshot()
            return 200, stats
        if url.path == "/metrics":
            params = parse_qs(url.query)
            exposition = params.get("format", ["json"])[0]
            if exposition == "prometheus":
                return 200, to_prometheus_text(self.registry)
            if exposition != "json":
                raise _BadRequest(
                    "format must be 'json' or 'prometheus', got "
                    f"{exposition!r}"
                )
            return 200, bench_payload(
                self.registry,
                run={
                    "endpoint": "/metrics",
                    "fingerprint": self.engine.fingerprint,
                },
            )
        if url.path == "/query":
            params = parse_qs(url.query)
            source = _parse_int(params, "source", None)
            k = _parse_int(params, "k", 1)
            deadline_ms = _parse_int(params, "deadline_ms", 0)
            deadline_s = _deadline_from_ms(deadline_ms)
            # mode/nprobe are optional; absent means the engine default.
            # Semantic validation (unknown mode, nprobe range/ann-tier
            # pairing) lives in the engine's descriptor resolution and
            # surfaces as AnnParameterError → 400.
            mode = params.get("mode", [None])[0]
            nprobe = (
                _parse_int(params, "nprobe", None)
                if "nprobe" in params else None
            )
            return 200, self.engine.query(
                source, k, deadline_s=deadline_s, mode=mode, nprobe=nprobe
            ).payload()
        raise _UnknownRoute(
            f"unknown path {url.path!r}; routes: /healthz, /readyz, "
            f"/stats, /metrics, /query"
        )

    def _read_json_body(self) -> Dict[str, Any]:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise _BadRequest(
                "POST requires a Content-Length header with a JSON body"
            )
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length < 0:
            raise _BadRequest(f"Content-Length must be >= 0, got {length}")
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _BadRequest(f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise _BadRequest(
                "request body must be a JSON object, got "
                f"{type(body).__name__}"
            )
        return body

    def _handle_post(self) -> Tuple[int, Dict[str, Any]]:
        url = urlsplit(self.path)
        if url.path == "/query":
            return self._handle_post_query()
        if url.path == "/admin/reload":
            return self._handle_reload()
        raise _UnknownRoute(
            f"unknown POST path {url.path!r}; POST routes: /query, "
            "/admin/reload"
        )

    def _handle_post_query(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_json_body()
        body_request_id = body.get("request_id")
        if body_request_id is not None:
            if not isinstance(body_request_id, str) or not body_request_id:
                raise _BadRequest(
                    "request_id must be a non-empty string, got "
                    f"{body_request_id!r}"
                )
            # Rebind the thread-local id so the engine, shard workers,
            # and the X-Request-Id response header all use the caller's.
            set_request_id(body_request_id)
        queries = body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _BadRequest(
                'POST /query needs {"queries": [{"source": ..., "k": ...}]}'
            )
        pairs = []
        for position, entry in enumerate(queries):
            if not isinstance(entry, dict) or "source" not in entry:
                raise _BadRequest(
                    f"queries[{position}] must be an object with a "
                    '"source" field'
                )
            source = _require_int(
                entry["source"], f"queries[{position}].source"
            )
            k = _require_int(entry.get("k", 1), f"queries[{position}].k")
            pairs.append((source, k))
        deadline_ms = _require_int(
            body.get("deadline_ms", 0), "deadline_ms"
        )
        deadline_s = _deadline_from_ms(deadline_ms)
        mode = body.get("mode")
        if mode is not None and not isinstance(mode, str):
            raise _BadRequest(
                f"mode must be a string, got {mode!r} "
                f"({type(mode).__name__})"
            )
        nprobe = body.get("nprobe")
        if nprobe is not None:
            nprobe = _require_int(nprobe, "nprobe")
        results = self.engine.query_many(
            pairs, deadline_s=deadline_s, mode=mode, nprobe=nprobe
        )
        return 200, {"results": [result.payload() for result in results]}

    def _handle_reload(self) -> Tuple[int, Dict[str, Any]]:
        reload = getattr(self.engine, "reload", None)
        if reload is None:
            raise _BadRequest(
                "hot reload needs a front door; serve through "
                "repro.serving.FrontDoor (repro serve does by default)"
            )
        body = self._read_json_body()
        artifact = body.get("artifact")
        if not isinstance(artifact, str) or not artifact:
            raise _BadRequest(
                'POST /admin/reload needs {"artifact": "<path on the '
                "server's filesystem>\"}"
            )
        fingerprint = reload(artifact)
        return 200, {"status": "ok", "fingerprint": fingerprint}


class AlignmentServer:
    """A :class:`ThreadingHTTPServer` serving one engine, gracefully.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  :meth:`shutdown` stops accepting, joins the serve
    thread, closes the listening socket, and closes the engine — safe to
    call twice.  Context-manager use starts on enter and shuts down on
    exit.

    ``slo`` supplies the tracker fed by every ``/query`` (a default one
    is built when omitted); ``access_log=True`` additionally emits each
    access-log line as a structured DEBUG event.
    """

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        slo: Optional[SLOTracker] = None,
        access_log: bool = False,
    ) -> None:
        self.engine = engine
        self.host = host
        self.requested_port = port
        self.registry = registry if registry is not None else get_registry()
        self.slo = slo if slo is not None else SLOTracker()
        self.access_log = bool(access_log)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AlignmentServer":
        if self._httpd is not None:
            return self
        self.engine.start()
        httpd = ThreadingHTTPServer(
            (self.host, self.requested_port), _ServingHandler
        )
        httpd.daemon_threads = True
        httpd.engine = self.engine  # type: ignore[attr-defined]
        httpd.registry = self.registry  # type: ignore[attr-defined]
        httpd.slo = self.slo  # type: ignore[attr-defined]
        httpd.access_log = self.access_log  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serving-http",
            daemon=True,
        )
        self._thread.start()
        self.registry.emit(
            "serving.http.started", {"host": self.host, "port": self.port}
        )
        return self

    def shutdown(self) -> None:
        httpd, thread = self._httpd, self._thread
        self._httpd, self._thread = None, None
        if httpd is not None:
            httpd.shutdown()
            if thread is not None:
                thread.join(timeout=5.0)
            httpd.server_close()
        self.engine.close()

    def __enter__(self) -> "AlignmentServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
