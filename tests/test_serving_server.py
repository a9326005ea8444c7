"""End-to-end serving tests: trained pair → artifact → HTTP server.

The acceptance path: export an artifact from a trained small pair, start
the server in-process, answer hundreds of queries concurrently from
several threads with zero errors, and require the answers — pruned,
cached, microbatched, over HTTP — to be bit-identical to the offline
:func:`repro.core.streaming.streaming_top_k` reference.

Every path reports canonical per-pair scores (see
:mod:`repro.core.scoring`), so score equality is checked bitwise at any
block width and shard count.
"""

import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core import GAlignConfig, GAlignTrainer
from repro.core.streaming import streaming_top_k
from repro.graphs import generators, noisy_copy_pair
from repro.observability import MetricsRegistry
from repro.resilience import ArtifactValidationError
from repro.serving import (
    AlignmentIndex,
    AlignmentServer,
    HTTPClient,
    InProcessClient,
    OverloadedError,
    QueryEngine,
    QueryResult,
    ServingClientError,
    export_artifact,
    load_artifact,
    status_for_error,
)

QUERY_K = 3


@pytest.fixture(scope="module")
def trained_artifact(tmp_path_factory):
    rng = np.random.default_rng(20)
    graph = generators.barabasi_albert(60, 2, rng, feature_dim=8,
                                       feature_kind="degree")
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    config = GAlignConfig(epochs=12, embedding_dim=16)
    model, _ = GAlignTrainer(config, rng).train(pair)
    source = model.embed(pair.source)
    target = model.embed(pair.target)
    weights = config.resolved_layer_weights()
    path = str(tmp_path_factory.mktemp("artifact") / "trained")
    export_artifact(path, source, target, weights, config=config,
                    pair_name="ba60")
    expected = streaming_top_k(source, target, weights, k=QUERY_K)
    return path, expected


@pytest.fixture(scope="module")
def server(trained_artifact, serving_shards):
    path, streaming_expected = trained_artifact
    registry = MetricsRegistry()
    artifact = load_artifact(path, mmap=True, registry=registry)
    # Shard boundaries must fall on block boundaries, so sharding implies
    # narrower-than-full blocks; the reference answers come from an
    # unsharded index over the *same* block partition, which the sharded
    # engine must match bitwise.  One shard keeps the full width, which
    # reproduces the streaming reference bitwise.
    block = -(-artifact.n_target // serving_shards)
    engine = QueryEngine.from_artifact(
        artifact, shards=serving_shards, workers=None,
        target_block_size=block, batch_size=16, max_delay_ms=1.0,
        cache_size=1024, registry=registry,
    )
    reference = AlignmentIndex.from_artifact(
        artifact, target_block_size=block, registry=MetricsRegistry()
    )
    expected = reference.top_k(np.arange(artifact.n_source), k=QUERY_K)
    if serving_shards == 1:
        # The acceptance anchor: a full-width index reproduces the
        # offline streaming reference bit for bit.
        assert np.array_equal(expected[0], streaming_expected[0])
        assert np.array_equal(expected[1], streaming_expected[1])
    with AlignmentServer(engine, registry=registry) as server:
        yield server, registry, artifact, expected


class TestEndToEnd:
    def test_concurrent_queries_bit_identical_to_streaming(self, server):
        server_obj, registry, artifact, expected = server
        expected_targets, expected_scores = expected
        n_source = artifact.n_source
        threads, per_thread = 4, 140  # 560 queries total, repeats included
        payloads = [[] for _ in range(threads)]
        errors = []

        def worker(position):
            client = HTTPClient(server_obj.url)
            try:
                for i in range(per_thread):
                    source = (position * 17 + i) % n_source
                    payloads[position].append(client.query(source, k=QUERY_K))
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        workers = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()

        assert not errors
        answered = [p for thread in payloads for p in thread]
        assert len(answered) == threads * per_thread
        for payload in answered:
            source = payload["source"]
            assert payload["aligned"]
            assert payload["targets"] == [int(t) for t in
                                          expected_targets[source]]
            assert payload["scores"] == [float(s) for s in
                                         expected_scores[source]]
        # repeats must have come from the cache, and the latency/hit-rate
        # metrics must be live in the registry
        assert any(payload["cached"] for payload in answered)
        stats = server_obj.engine.stats()
        assert stats["cache"]["hit_rate"] > 0.0
        names = registry.names("serving")
        assert "serving.query_latency" in names
        assert "serving.query_latency_cached" in names
        assert "serving.cache.hits" in names

    def test_batch_post_matches_streaming(self, server):
        server_obj, _, artifact, expected = server
        expected_targets, expected_scores = expected
        client = HTTPClient(server_obj.url)
        sources = list(range(0, artifact.n_source, 7))
        results = client.query_many([(source, QUERY_K) for source in sources])
        assert len(results) == len(sources)
        for source, payload in zip(sources, results):
            assert payload["targets"] == [int(t) for t in
                                          expected_targets[source]]
            assert payload["scores"] == [float(s) for s in
                                         expected_scores[source]]

    def test_in_process_client_same_answers(self, server):
        server_obj, _, _, _ = server
        local = InProcessClient(server_obj.engine)
        remote = HTTPClient(server_obj.url)
        local_payload = local.query(5, k=QUERY_K)
        remote_payload = remote.query(5, k=QUERY_K)
        assert local_payload["targets"] == remote_payload["targets"]
        assert local_payload["scores"] == remote_payload["scores"]
        assert local.healthz()["fingerprint"] == \
            remote.healthz()["fingerprint"]


class TestRoutes:
    def test_healthz(self, server):
        server_obj, _, artifact, _ = server
        payload = HTTPClient(server_obj.url).healthz()
        assert payload["status"] == "ok"
        assert payload["fingerprint"] == artifact.fingerprint
        assert payload["n_source"] == artifact.n_source
        assert payload["n_target"] == artifact.n_target

    def test_stats(self, server):
        server_obj, _, _, _ = server
        HTTPClient(server_obj.url).query(0)
        payload = HTTPClient(server_obj.url).stats()
        assert payload["engine"]["queries"] >= 1
        assert "serving.queries" in payload["metrics"]

    def test_metrics_endpoint_is_valid_bench_payload(self, server):
        from repro.observability import validate_bench_payload

        server_obj, _, artifact, _ = server
        client = HTTPClient(server_obj.url)
        client.query(0, k=QUERY_K)
        client.query(1, k=QUERY_K)
        with urllib.request.urlopen(
            f"{server_obj.url}/metrics", timeout=10
        ) as response:
            payload = json.loads(response.read())
        validate_bench_payload(payload)
        assert payload["run"]["fingerprint"] == artifact.fingerprint
        hist = payload["metrics"]["serving.query_latency"]
        assert hist["kind"] == "histogram"
        assert hist["count"] >= 2
        assert hist["p50"] is not None and hist["p99"] is not None
        assert hist["p50"] <= hist["p99"]
        assert payload["metrics"]["serving.batch.size"]["count"] >= 1

    def test_query_defaults_k_to_one(self, server):
        server_obj, _, _, _ = server
        with urllib.request.urlopen(
            f"{server_obj.url}/query?source=1", timeout=10
        ) as response:
            payload = json.loads(response.read())
        assert payload["k"] == 1
        assert len(payload["targets"]) == 1


class TestErrorTaxonomy:
    @pytest.mark.parametrize("path,status", [
        ("/query", 400),                 # missing source
        ("/query?source=abc", 400),      # non-integer source
        ("/query?source=1&k=0", 400),    # invalid k
        ("/query?source=99999", 404),    # out-of-range source
        ("/nope", 404),                  # unknown route
    ])
    def test_get_errors(self, server, path, status):
        server_obj, _, _, _ = server
        with pytest.raises(ServingClientError) as excinfo:
            HTTPClient(server_obj.url)._request(path)
        assert excinfo.value.status == status
        assert excinfo.value.payload["error"]
        assert excinfo.value.payload["type"]

    def test_post_bad_json(self, server):
        server_obj, _, _, _ = server
        request = urllib.request.Request(
            f"{server_obj.url}/query", data=b"{ not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_post_missing_queries(self, server):
        server_obj, _, _, _ = server
        with pytest.raises(ServingClientError) as excinfo:
            HTTPClient(server_obj.url)._request("/query", body={"nope": 1})
        assert excinfo.value.status == 400

    def test_post_unknown_route(self, server):
        server_obj, _, _, _ = server
        with pytest.raises(ServingClientError) as excinfo:
            HTTPClient(server_obj.url)._request("/healthz", body={"x": 1})
        assert excinfo.value.status == 404

    def test_status_mapping(self):
        assert status_for_error(ArtifactValidationError("x")) == 400
        assert status_for_error(ValueError("x")) == 400
        assert status_for_error(IndexError("x")) == 404
        assert status_for_error(KeyError("x")) == 404
        # OverloadedError subclasses RuntimeError but must map to the
        # retryable 429, not the unhealthy 503.
        assert status_for_error(OverloadedError("x")) == 429
        assert status_for_error(RuntimeError("x")) == 503
        assert status_for_error(OSError("x")) == 500

    def test_errors_counted(self, server):
        server_obj, registry, _, _ = server
        before = registry.get("serving.http.errors")
        before = before.value if before is not None else 0
        with pytest.raises(ServingClientError):
            HTTPClient(server_obj.url)._request("/nope")
        assert registry.get("serving.http.errors").value == before + 1


class TestPostValidation:
    """POST /query field validation at the HTTP boundary.

    Regression: these bodies used to reach ``engine.query_many``
    untyped — a string source 500'd with a TypeError deep in numpy, a
    float was silently truncated, and a JSON ``true`` (``isinstance(True,
    int)``!) silently queried source node 1.  All must be a 400 naming
    the offending field.
    """

    @pytest.mark.parametrize("source", ["3", 1.5, True, False, None, {}, [1]])
    def test_wrong_typed_source_is_400(self, server, source):
        server_obj, _, _, _ = server
        with pytest.raises(ServingClientError) as excinfo:
            HTTPClient(server_obj.url)._request(
                "/query", body={"queries": [{"source": source, "k": 1}]}
            )
        assert excinfo.value.status == 400
        assert "queries[0].source" in excinfo.value.payload["error"]

    @pytest.mark.parametrize("k", ["2", 2.0, True, None, {}])
    def test_wrong_typed_k_is_400(self, server, k):
        server_obj, _, _, _ = server
        with pytest.raises(ServingClientError) as excinfo:
            HTTPClient(server_obj.url)._request(
                "/query", body={"queries": [{"source": 1, "k": k}]}
            )
        assert excinfo.value.status == 400
        assert "queries[0].k" in excinfo.value.payload["error"]

    def test_bad_entry_position_is_named(self, server):
        server_obj, _, _, _ = server
        with pytest.raises(ServingClientError) as excinfo:
            HTTPClient(server_obj.url)._request(
                "/query",
                body={"queries": [{"source": 1}, {"source": "oops"}]},
            )
        assert excinfo.value.status == 400
        assert "queries[1].source" in excinfo.value.payload["error"]

    def test_valid_ints_still_work(self, server):
        server_obj, _, _, _ = server
        results = HTTPClient(server_obj.url)._request(
            "/query", body={"queries": [{"source": 2, "k": 2}]}
        )["results"]
        assert results[0]["source"] == 2


class TestKeepAliveLatency:
    """Regression: a keep-alive caller waited out the delayed ACK.

    A response used to leave in two sends: the headers when
    ``end_headers()`` flushed them, then the body in a second unbuffered
    write.  Nagle's algorithm held the body until the client's delayed
    ACK, >= 40 ms on Linux, so every sequential round trip cost ~44 ms.
    """

    def test_sequential_round_trips_do_not_stall(self, server):
        server_obj, _, artifact, _ = server
        connection = http.client.HTTPConnection(
            server_obj.host, server_obj.port, timeout=10.0
        )

        def round_trip(method, path, body=None):
            started = time.perf_counter()
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = json.loads(response.read())
            elapsed = time.perf_counter() - started
            assert response.status == 200, payload
            return elapsed, payload

        # Every source in one batch: a body of several KB, more than one
        # segment at an Ethernet MSS.
        batch = json.dumps({"queries": [
            {"source": source, "k": QUERY_K}
            for source in range(artifact.n_source)
        ]}).encode("utf-8")
        try:
            round_trip("GET", f"/query?source=1&k={QUERY_K}")  # fill cache
            gets = [round_trip("GET", f"/query?source=1&k={QUERY_K}")
                    for _ in range(20)]
            posts = [round_trip("POST", "/query", batch) for _ in range(5)]
        finally:
            connection.close()
        assert all(payload["cached"] for _, payload in gets)
        assert all(len(payload["results"]) == artifact.n_source
                   for _, payload in posts)
        get_ms = 1e3 * statistics.median(elapsed for elapsed, _ in gets)
        post_ms = 1e3 * statistics.median(elapsed for elapsed, _ in posts)
        assert get_ms < 20.0, f"cache-hit GET median {get_ms:.1f} ms"
        assert post_ms < 20.0, f"batch POST median {post_ms:.1f} ms"

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        server_obj, _, _, _ = server
        body = json.dumps(
            {"queries": [{"source": 2, "k": QUERY_K}]}
        ).encode("utf-8")
        with socket.create_connection(
            (server_obj.host, server_obj.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: test\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            )
            # The interim response must arrive while the body is held.
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read())["results"][0]["source"] == 2


class _BlockingEngine:
    """Stub engine whose query blocks until the test says go.

    Lets the disconnect test guarantee ordering: the client is gone
    *before* the handler writes its response.  The oversized payload
    (far beyond any socket buffer) forces the doomed write to actually
    fail rather than vanish into the kernel buffer.
    """

    fingerprint = "blocking"

    class index:  # noqa: N801 (mimics engine.index attribute access)
        n_source = 8
        n_target = 8

    def __init__(self):
        self.release = threading.Event()

    def start(self):
        return self

    def close(self):
        self.release.set()

    def stats(self):
        return {"fingerprint": self.fingerprint}

    def query(self, source, k=1, deadline_s=None, mode=None,
              nprobe=None):
        assert self.release.wait(timeout=10.0)
        return QueryResult(
            source=int(source), k=int(k),
            targets=tuple(range(200_000)),
            scores=tuple(float(i) for i in range(200_000)),
            aligned=True, cached=False, latency_s=0.0,
        )

    def query_many(self, queries, deadline_s=None, mode=None,
                   nprobe=None):
        return [self.query(source, k) for source, k in queries]


class TestClientDisconnect:
    def test_disconnect_mid_response_is_counted_not_crashed(self):
        registry = MetricsRegistry()
        engine = _BlockingEngine()
        with AlignmentServer(engine, registry=registry) as server_obj:
            sock = socket.create_connection(
                ("127.0.0.1", server_obj.port), timeout=5.0
            )
            sock.sendall(
                b"GET /query?source=0&k=1 HTTP/1.1\r\n"
                b"Host: test\r\n\r\n"
            )
            time.sleep(0.1)  # let the handler block inside query()
            # SO_LINGER(1, 0): close sends RST, so the server's pending
            # response write fails instead of draining into a buffer.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()
            engine.release.set()

            deadline = time.monotonic() + 5.0
            disconnects = None
            while time.monotonic() < deadline:
                counter = registry.get("serving.http.client_disconnects")
                if counter is not None and counter.value >= 1:
                    disconnects = counter.value
                    break
                time.sleep(0.02)
            assert disconnects == 1, (
                "client disconnect was not counted under "
                "serving.http.client_disconnects"
            )
            # The handler thread survived and the server still serves.
            payload = HTTPClient(server_obj.url).healthz()
            assert payload["status"] == "ok"
            # A hung-up client is not a server error.
            errors = registry.get("serving.http.errors")
            assert errors is None or errors.value == 0


class TestShutdown:
    def test_graceful_shutdown_closes_engine(self, trained_artifact):
        path, _ = trained_artifact
        registry = MetricsRegistry()
        artifact = load_artifact(path, registry=registry)
        engine = QueryEngine.from_artifact(artifact, registry=registry)
        server = AlignmentServer(engine, registry=registry).start()
        url = server.url
        assert HTTPClient(url).healthz()["status"] == "ok"
        server.shutdown()
        server.shutdown()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.query(0)
        with pytest.raises(ServingClientError, match="could not reach"):
            HTTPClient(url, timeout=2.0).healthz()

    def test_port_property_requires_start(self, trained_artifact):
        path, _ = trained_artifact
        engine = QueryEngine.from_artifact(load_artifact(path))
        server = AlignmentServer(engine)
        with pytest.raises(RuntimeError, match="not started"):
            server.port
        engine.close()
