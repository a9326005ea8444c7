"""HTTP boundary fuzzing: hostile input never crashes the server.

Every request a client can malform — broken JSON, wrong-typed fields,
absurd ``k``, bogus ``Content-Length``, unknown routes — must come back
as a *well-formed JSON error* with a 4xx status from the documented
taxonomy.  A 500 for client-caused input is a bug: it means an exception
class escaped :func:`status_for_error`.  After every barrage the server
must still answer ``/healthz`` and real queries.
"""

import http.client
import json
import socket
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.serving import (
    AlignmentServer,
    QueryEngine,
    export_artifact,
    load_artifact,
)

N_SOURCE = 20
N_TARGET = 50


def _serve(tmp_path_factory, serving_shards, seed, **export_kwargs):
    """A server over a random artifact, sharded per ``--shards``."""
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((N_SOURCE, 8))]
    target = [rng.standard_normal((N_TARGET, 8))]
    path = str(tmp_path_factory.mktemp("fuzz") / "artifact")
    export_artifact(path, source, target, [1.0], **export_kwargs)
    engine = QueryEngine.from_artifact(
        load_artifact(path), shards=serving_shards, workers=None,
        target_block_size=-(-N_TARGET // serving_shards),
        max_delay_ms=0.5, registry=MetricsRegistry(),
    )
    return AlignmentServer(engine, registry=MetricsRegistry())


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory, serving_shards):
    with _serve(tmp_path_factory, serving_shards, seed=99) as server:
        yield server


def _request(server, method, path, body=None, headers=None):
    """One request on a fresh connection → (status, parsed JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    assert raw, f"{method} {path}: empty response body"
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):  # pragma: no cover
        pytest.fail(f"{method} {path} returned non-JSON body: {raw[:200]!r}")
    return response.status, payload


def _post_json(server, path, obj, **kwargs):
    return _request(
        server, "POST", path, body=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"}, **kwargs,
    )


def _assert_client_error(status, payload, expect=(400, 404)):
    assert status in expect, f"got {status}, body {payload!r}"
    assert "error" in payload and isinstance(payload["error"], str)
    assert "type" in payload
    assert payload["error"], "error message must not be empty"


def _assert_healthy(server):
    with urllib.request.urlopen(server.url + "/healthz", timeout=10) as resp:
        assert resp.status == 200
        assert json.loads(resp.read())["status"] == "ok"
    status, payload = _post_json(
        server, "/query", {"queries": [{"source": 0, "k": 2}]}
    )
    assert status == 200
    assert len(payload["results"][0]["targets"]) == 2


class TestMalformedBodies:
    @pytest.mark.parametrize("raw", [
        b"{",                       # truncated object
        b"not json at all",
        b"{'single': 'quotes'}",
        b"\xff\xfe\x00garbage",     # not UTF-8
        b'{"queries": [',           # truncated array
    ])
    def test_unparseable_json_is_400(self, fuzz_server, raw):
        status, payload = _request(fuzz_server, "POST", "/query", body=raw)
        _assert_client_error(status, payload, expect=(400,))
        assert "JSON" in payload["error"]

    @pytest.mark.parametrize("raw", [b"[1, 2]", b'"a string"', b"17",
                                     b"null", b"true"])
    def test_non_object_body_is_400(self, fuzz_server, raw):
        status, payload = _request(fuzz_server, "POST", "/query", body=raw)
        _assert_client_error(status, payload, expect=(400,))

    @pytest.mark.parametrize("body", [
        {},                                      # no queries at all
        {"queries": []},                         # empty batch
        {"queries": "0"},                        # not a list
        {"queries": {"source": 0}},              # object, not list
        {"queries": [42]},                       # entry not an object
        {"queries": [{"k": 1}]},                 # missing source
        {"queries": [None]},
        {"quieries": [{"source": 0}]},           # typo'd field
    ])
    def test_wrong_shaped_payload_is_400(self, fuzz_server, body):
        status, payload = _post_json(fuzz_server, "/query", body)
        _assert_client_error(status, payload, expect=(400,))


class TestAbsurdValues:
    def test_huge_k_is_clamped_not_rejected(self, fuzz_server):
        status, payload = _post_json(
            fuzz_server, "/query",
            {"queries": [{"source": 0, "k": 10**9}]},
        )
        assert status == 200
        assert len(payload["results"][0]["targets"]) == N_TARGET

    @pytest.mark.parametrize("k", [0, -1, -(10**9)])
    def test_nonpositive_k_is_400(self, fuzz_server, k):
        status, payload = _post_json(
            fuzz_server, "/query", {"queries": [{"source": 0, "k": k}]}
        )
        _assert_client_error(status, payload, expect=(400,))

    @pytest.mark.parametrize("source", [N_SOURCE, 10**9, -1])
    def test_out_of_range_source_is_404(self, fuzz_server, source):
        status, payload = _post_json(
            fuzz_server, "/query", {"queries": [{"source": source}]}
        )
        _assert_client_error(status, payload, expect=(404,))

    def test_get_query_with_garbage_params_is_400(self, fuzz_server):
        for query in ("source=banana", "source=1.5", "k=two&source=0", ""):
            status, payload = _request(
                fuzz_server, "GET", f"/query?{query}"
            )
            _assert_client_error(status, payload, expect=(400,))


class TestContentLength:
    def test_missing_content_length_is_400(self, fuzz_server):
        # http.client always adds Content-Length to a POST, so drop to a
        # raw socket to truly omit the header.
        raw = (
            b"POST /query HTTP/1.1\r\n"
            b"Host: fuzz\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", fuzz_server.port), timeout=10
        ) as sock:
            sock.sendall(raw)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        status = int(response.split(b" ", 2)[1])
        assert status == 400
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize("value", ["banana", "1.5", "-7", ""])
    def test_bogus_content_length_is_400(self, fuzz_server, value):
        status, payload = _request(
            fuzz_server, "POST", "/query",
            headers={"Content-Length": value},
        )
        _assert_client_error(status, payload, expect=(400,))

    def test_short_body_does_not_hang_or_crash(self, fuzz_server):
        # Content-Length larger than the actual body: the read comes up
        # short and JSON parsing fails — a 400, never a hang (the socket
        # timeout would trip) or a 500.
        raw = (
            b"POST /query HTTP/1.1\r\n"
            b"Host: fuzz\r\n"
            b"Content-Length: 10\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b"{}"
        )
        with socket.create_connection(
            ("127.0.0.1", fuzz_server.port), timeout=10
        ) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        status = int(response.split(b" ", 2)[1])
        assert status in (400, 408)
        _assert_healthy(fuzz_server)


class TestUnknownRoutes:
    @pytest.mark.parametrize("method,path", [
        ("GET", "/"),
        ("GET", "/querys"),
        ("GET", "/admin/reload"),
        ("POST", "/healthz"),
        ("POST", "/stats"),
        ("POST", "/query/extra"),
    ])
    def test_unknown_route_is_404_with_route_listing(self, fuzz_server,
                                                     method, path):
        body = b"{}" if method == "POST" else None
        status, payload = _request(fuzz_server, method, path, body=body)
        _assert_client_error(status, payload, expect=(404,))
        assert "routes" in payload["error"]


class TestRandomFuzz:
    def test_random_garbage_never_returns_500(self, fuzz_server):
        """Seeded storm of hostile requests: only 4xx, only JSON."""
        rng = np.random.default_rng(20200420)
        structured = [
            {"queries": [{"source": s, "k": k}]}
            for s in (True, False, "0", 1.0, [], {}, None, -5, 10**12)
            for k in (True, "1", 2.5, None, 0, -3)
        ]
        for body in structured:
            status, payload = _post_json(fuzz_server, "/query", body)
            _assert_client_error(status, payload)
        for _ in range(60):
            raw = rng.bytes(rng.integers(1, 64))
            path = rng.choice(["/query", "/admin/reload", "/" + "x" * 9])
            status, payload = _request(fuzz_server, "POST", str(path),
                                       body=raw)
            _assert_client_error(status, payload)
        _assert_healthy(fuzz_server)

    def test_server_still_answers_correctly_after_fuzzing(self, fuzz_server):
        params = urllib.parse.urlencode({"source": 3, "k": 5})
        with urllib.request.urlopen(
            fuzz_server.url + f"/query?{params}", timeout=10
        ) as resp:
            payload = json.loads(resp.read())
        assert resp.status == 200
        assert payload["source"] == 3
        assert len(payload["targets"]) == 5


@pytest.fixture(scope="module")
def ann_fuzz_server(tmp_path_factory, serving_shards):
    """A server with an ANN tier (8 clusters) for nprobe-range fuzzing."""
    with _serve(
        tmp_path_factory, serving_shards, seed=7, ann_clusters=8, ann_seed=0
    ) as server:
        yield server


class TestAnnParameterFuzz:
    """Malformed ``mode``/``nprobe`` are client bugs: always a JSON 400
    from the taxonomy, never a 500, and the server stays healthy."""

    @pytest.mark.parametrize("query", [
        "source=0&mode=warp",            # unknown mode
        "source=0&mode=ANN",             # case matters
        "source=0&mode=exact&nprobe=2",  # nprobe without ann
        "source=0&nprobe=banana",
        "source=0&nprobe=1.5",
        "source=0&nprobe=true",
    ])
    def test_get_garbage_mode_nprobe_is_400(self, ann_fuzz_server, query):
        status, payload = _request(
            ann_fuzz_server, "GET", f"/query?{query}"
        )
        _assert_client_error(status, payload, expect=(400,))

    @pytest.mark.parametrize("nprobe", [0, -1, 9, 10**9, -(10**9)])
    def test_get_out_of_range_nprobe_is_400(self, ann_fuzz_server, nprobe):
        status, payload = _request(
            ann_fuzz_server, "GET",
            f"/query?source=0&mode=ann&nprobe={nprobe}",
        )
        _assert_client_error(status, payload, expect=(400,))
        assert "nprobe" in payload["error"]

    @pytest.mark.parametrize("mode", [True, 1, 1.0, [], {}, "warp", "Exact"])
    def test_post_bad_mode_is_400(self, ann_fuzz_server, mode):
        status, payload = _post_json(
            ann_fuzz_server, "/query",
            {"queries": [{"source": 0, "k": 1}], "mode": mode},
        )
        _assert_client_error(status, payload, expect=(400,))

    @pytest.mark.parametrize("nprobe", [
        True, False, 2.5, "3", "banana", [], {}, 0, -1, 99, 10**12,
    ])
    def test_post_bad_nprobe_is_400(self, ann_fuzz_server, nprobe):
        status, payload = _post_json(
            ann_fuzz_server, "/query",
            {"queries": [{"source": 0, "k": 1}], "mode": "ann",
             "nprobe": nprobe},
        )
        _assert_client_error(status, payload, expect=(400,))

    def test_ann_mode_on_exact_only_server_is_400(self, fuzz_server):
        status, payload = _request(
            fuzz_server, "GET", "/query?source=0&mode=ann"
        )
        _assert_client_error(status, payload, expect=(400,))
        assert "no ANN tier" in payload["error"]

    def test_server_healthy_and_correct_after_barrage(self, ann_fuzz_server):
        _assert_healthy(ann_fuzz_server)
        # And a well-formed ann query still answers.
        status, payload = _request(
            ann_fuzz_server, "GET", "/query?source=0&k=3&mode=ann&nprobe=8"
        )
        assert status == 200
        assert len(payload["targets"]) == 3
