"""End-to-end observability over a sharded HTTP deployment.

The acceptance path for request correlation: one HTTP query against a
2-shard engine must surface the *same* request id in the response
header, the response payload, the front-door access log line, and the
per-shard worker log lines — and an enabled tracer must show one
``serving.sharded.shard_score`` span per shard nested under the
scatter.  Shards run inline (``workers=0``) so the suite exercises the
same code path on single-core CI; cross-process shipping is covered by
the pool tests.
"""

import io
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import GAlignConfig, GAlignTrainer
from repro.graphs import generators, noisy_copy_pair
from repro.observability import (
    MetricsRegistry,
    SLOTracker,
    Tracer,
    configure_logging,
    export_chrome_trace,
    reset_logging,
    use_tracer,
    validate_chrome_trace,
)
from repro.serving import (
    AlignmentServer,
    HTTPClient,
    QueryEngine,
    ServingClientError,
    export_artifact,
    load_artifact,
)

from .test_prometheus import parse_exposition


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    rng = np.random.default_rng(7)
    graph = generators.barabasi_albert(40, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    config = GAlignConfig(epochs=3, embedding_dim=8)
    model, _ = GAlignTrainer(config, rng).train(pair)
    path = str(tmp_path_factory.mktemp("artifact") / "observed")
    export_artifact(
        path, model.embed(pair.source), model.embed(pair.target),
        config.resolved_layer_weights(), config=config, pair_name="ba40",
    )
    return path


def sharded_engine(artifact_path, registry, **kwargs):
    artifact = load_artifact(artifact_path, mmap=True, registry=registry)
    block = -(-artifact.n_target // 2)
    return QueryEngine.from_artifact(
        artifact, shards=2, workers=0, target_block_size=block,
        registry=registry, **kwargs,
    )


@pytest.fixture()
def server(artifact_path):
    registry = MetricsRegistry()
    engine = sharded_engine(artifact_path, registry)
    with AlignmentServer(engine, registry=registry,
                         access_log=True) as running:
        yield running


@pytest.fixture(autouse=True)
def _clean_logging():
    reset_logging()
    yield
    reset_logging()


def capture_debug_logs():
    stream = io.StringIO()
    configure_logging(level="DEBUG", stream=stream)
    return stream


def log_lines(stream):
    return [json.loads(line) for line in
            stream.getvalue().splitlines() if line.strip()]


def raw_get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return (response.status, dict(response.headers),
                response.read().decode("utf-8"))


class TestRequestIdCorrelation:
    def test_one_query_joins_response_frontdoor_and_shard_logs(self, server):
        stream = capture_debug_logs()
        request_id = "corr-e2e-0001"
        status, headers, body = raw_get(
            f"{server.url}/query?source=3&k=2",
            headers={"X-Request-Id": request_id},
        )
        assert status == 200
        # 1. the response: header and payload echo the caller's id.
        assert headers["X-Request-Id"] == request_id
        assert json.loads(body)["request_id"] == request_id
        entries = log_lines(stream)
        # 2. the front door: the access-log line carries the id (it is
        # emitted inside the request's thread binding).
        access = [entry for entry in entries
                  if entry["event"] == "serving.http.access"]
        assert access and all(
            entry["request_id"] == request_id for entry in access
        )
        # 3. the shard workers: one scored line per shard, same id.
        scored = [entry for entry in entries
                  if entry["event"] == "serving.sharded.shard_scored"]
        assert len(scored) == 2
        assert len({entry["shard"] for entry in scored}) == 2
        for entry in scored:
            assert entry["request_id"] == request_id
            assert entry["request_ids"] == [request_id]

    def test_missing_header_mints_an_id(self, server):
        status, headers, body = raw_get(f"{server.url}/query?source=1")
        assert status == 200
        minted = headers["X-Request-Id"]
        assert len(minted) == 16 and int(minted, 16) >= 0
        assert json.loads(body)["request_id"] == minted

    def test_post_body_request_id_wins(self, server):
        stream = capture_debug_logs()
        request_id = "corr-post-0002"
        client = HTTPClient(server.url, max_retries=0)
        results = client.query_many([(0, 1), (5, 2)],
                                    request_id="header-loses")
        assert all(entry["request_id"] == "header-loses"
                   for entry in results)
        body = json.dumps({
            "queries": [{"source": 2, "k": 1}], "request_id": request_id,
        }).encode("utf-8")
        request = urllib.request.Request(
            f"{server.url}/query", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.headers["X-Request-Id"] == request_id
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["results"][0]["request_id"] == request_id
        scored = [entry for entry in log_lines(stream)
                  if entry["event"] == "serving.sharded.shard_scored"
                  and entry.get("request_id") == request_id]
        assert scored, "body-supplied id must reach the shard logs"

    def test_error_body_carries_request_id(self, server):
        request_id = "corr-err-0003"
        request = urllib.request.Request(
            f"{server.url}/query?source=999999",
            headers={"X-Request-Id": request_id},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        error = excinfo.value
        assert error.code == 404
        assert error.headers["X-Request-Id"] == request_id
        payload = json.loads(error.read().decode("utf-8"))
        assert payload["request_id"] == request_id
        assert payload["type"] == "IndexError"

    def test_handler_exception_logged_with_request_id(self, server):
        stream = capture_debug_logs()
        request_id = "corr-log-0004"
        with pytest.raises(urllib.error.HTTPError):
            raw_get(f"{server.url}/nope",
                    headers={"X-Request-Id": request_id})
        errors = [entry for entry in log_lines(stream)
                  if entry["event"] == "serving.http.error"]
        assert errors
        assert errors[0]["request_id"] == request_id
        assert errors[0]["status"] == 404
        assert errors[0]["path"] == "/nope"


class TestChromeTrace:
    def test_per_shard_spans_nest_under_scatter(self, artifact_path,
                                                tmp_path):
        registry = MetricsRegistry()
        engine = sharded_engine(artifact_path, registry)
        tracer = Tracer(enabled=True)
        try:
            engine.start()
            with use_tracer(tracer):
                engine.query(4, k=2, request_id="trace-0001")
        finally:
            engine.close()
        path = str(tmp_path / "trace.json")
        payload = export_chrome_trace(path, tracer)
        validate_chrome_trace(payload)
        validate_chrome_trace(json.loads(open(path).read()))
        spans = tracer.spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        (scatter,) = by_name["serving.sharded.scatter"]
        shard_spans = by_name["serving.sharded.shard_score"]
        assert len(shard_spans) == 2
        assert len({span.attrs["shard"] for span in shard_spans}) == 2
        for span in shard_spans:
            assert span.parent_id == scatter.span_id


class TestSLOSurfacing:
    def test_stats_and_readyz_flip_when_burning(self, artifact_path):
        registry = MetricsRegistry()
        engine = sharded_engine(artifact_path, registry)
        slo = SLOTracker(availability_target=0.9, burn_rate_threshold=2.0,
                         window_s=3600.0)
        with AlignmentServer(engine, registry=registry, slo=slo) as running:
            client = HTTPClient(running.url, max_retries=0)
            assert client.readyz()["status"] == "ready"
            stats = client.stats()
            assert stats["slo"]["burning"] is False
            for _ in range(10):
                slo.record(0.01, good=False)
            assert client.healthz()["status"] == "ok"  # liveness holds
            stats = client.stats()
            assert stats["slo"]["burning"] is True
            assert stats["slo"]["errors"] == 10
            with pytest.raises(ServingClientError) as excinfo:
                client.readyz()
            assert excinfo.value.status == 503
            assert excinfo.value.payload["status"] == "not_ready"
            assert excinfo.value.payload["slo"]["burning"] is True

    def test_query_feeds_the_tracker(self, artifact_path):
        registry = MetricsRegistry()
        engine = sharded_engine(artifact_path, registry)
        slo = SLOTracker()
        with AlignmentServer(engine, registry=registry, slo=slo) as running:
            client = HTTPClient(running.url, max_retries=0)
            client.query(1, k=2)
            client.stats()   # non-/query traffic must not count
            client.healthz()
        snap = slo.snapshot()
        assert snap["requests"] == 1
        assert snap["errors"] == 0


class TestPrometheusEndpoint:
    def test_scrape_is_parseable_text(self, server):
        client = HTTPClient(server.url, max_retries=0)
        client.query(2, k=1)  # populate serving counters
        status, headers, body = raw_get(
            f"{server.url}/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        metrics = parse_exposition(body)
        requests_metric = metrics["serving_http_requests"]
        assert requests_metric["kind"] == "counter"
        assert requests_metric["samples"][0][2] >= 1
        assert headers["X-Request-Id"]  # scrapes are correlated too

    def test_json_remains_the_default(self, server):
        status, headers, body = raw_get(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["schema"] == "repro.bench/v2"

    def test_unknown_format_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            raw_get(f"{server.url}/metrics?format=xml")
        assert excinfo.value.code == 400
