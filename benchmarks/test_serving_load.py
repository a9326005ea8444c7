"""Sustained serving load: sharded scatter-gather + hot swap under fire.

Drives the full front-door stack — admission control, sharded engine,
HTTP server — with a mixed workload and swaps the artifact out from
under it mid-run:

* closed-loop arm — GET threads on persistent connections, each next
  query issued the moment the previous answer lands,
* open-loop arm — POST batches fired on a fixed schedule regardless of
  how fast the server drains them (arrival times independent of
  service times),
* two hot swaps via ``POST /admin/reload`` while both arms run.

Asserted invariants (the rest is reporting):

* >= 10k queries answered, **zero** failures — the only tolerated
  non-200 is a 429 admission rejection, which both arms count
  separately (and the sizing here should produce none),
* both swaps complete and flip the fingerprint, with zero failed
  in-flight queries,
* queue-depth, scatter/shard, and hedge metrics all populated,
* a ``BENCH_serving_load.json`` conforming to the BENCH schema.
"""

import http.client
import json
import threading
import time

import numpy as np

from repro.observability import MetricsRegistry, write_bench_json
from repro.serving import (
    FrontDoor,
    AlignmentServer,
    QueryEngine,
    ShardedIndex,
    export_artifact,
    load_artifact,
)

from conftest import BASE_SEED, print_section

N_SOURCE = 300
N_TARGET = 1200
DIMS = (32, 16)
WEIGHTS = [0.6, 0.4]
SHARDS = 2
QUERY_K = 5

GET_THREADS = 3
GETS_PER_THREAD = 2000
POST_BATCHES = 140
POST_BATCH_SIZE = 32
POST_INTERVAL_S = 0.004
TOTAL = GET_THREADS * GETS_PER_THREAD + POST_BATCHES * POST_BATCH_SIZE
SWAP_TRIGGERS = (TOTAL // 4, TOTAL // 2)


def _export(tmp_path, name, seed):
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    path = str(tmp_path / name)
    export_artifact(path, source, target, WEIGHTS, pair_name=name)
    return path


def _build_engine(path, registry):
    artifact = load_artifact(path, mmap=True, registry=registry)
    block = -(-artifact.n_target // SHARDS)
    return QueryEngine.from_artifact(
        artifact, shards=SHARDS, workers=0, target_block_size=block,
        batch_size=16, max_delay_ms=0.5, cache_size=2048,
        registry=registry,
    )


class _Tally:
    """Thread-safe success/rejection/failure counts for both arms."""

    def __init__(self):
        self.lock = threading.Lock()
        self.ok = 0
        self.rejected = 0
        self.failures = []

    def success(self, amount=1):
        with self.lock:
            self.ok += amount

    def reject(self, amount=1):
        with self.lock:
            self.rejected += amount

    def failure(self, detail):
        with self.lock:
            self.failures.append(detail)

    @property
    def answered(self):
        with self.lock:
            return self.ok + self.rejected


def _get_arm(server, tally, thread_id, registry):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        for i in range(GETS_PER_THREAD):
            source = (thread_id * 41 + i) % N_SOURCE
            started = time.perf_counter()
            try:
                conn.request("GET", f"/query?source={source}&k={QUERY_K}")
                response = conn.getresponse()
                payload = json.loads(response.read())
            except Exception as error:
                tally.failure(f"GET transport: {error!r}")
                return
            registry.record_histogram("bench.load.get_latency_s",
                                      time.perf_counter() - started)
            if response.status == 200 and len(payload["targets"]) == QUERY_K:
                tally.success()
            elif response.status == 429:
                tally.reject()
            else:
                tally.failure(f"GET {response.status}: {payload}")
                return
    finally:
        conn.close()


def _post_arm(server, tally, registry):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    epoch = time.perf_counter()
    try:
        for batch_id in range(POST_BATCHES):
            due = epoch + batch_id * POST_INTERVAL_S
            lag = time.perf_counter() - due
            if lag < 0:
                time.sleep(-lag)
            else:
                registry.record_histogram("bench.load.post_sched_lag_s", lag)
            body = json.dumps({"queries": [
                {"source": (batch_id * 7 + j) % N_SOURCE, "k": QUERY_K}
                for j in range(POST_BATCH_SIZE)
            ]}).encode("utf-8")
            try:
                conn.request("POST", "/query", body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
            except Exception as error:
                tally.failure(f"POST transport: {error!r}")
                return
            if response.status == 200:
                assert len(payload["results"]) == POST_BATCH_SIZE
                tally.success(POST_BATCH_SIZE)
            elif response.status == 429:
                tally.reject(POST_BATCH_SIZE)
            else:
                tally.failure(f"POST {response.status}: {payload}")
                return
    finally:
        conn.close()


def _swap_arm(server, tally, artifacts, fingerprints):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
    try:
        for trigger, artifact in zip(SWAP_TRIGGERS, artifacts):
            deadline = time.perf_counter() + 120
            while tally.answered < trigger and not tally.failures:
                if time.perf_counter() > deadline:  # pragma: no cover
                    tally.failure("swap trigger never reached")
                    return
                time.sleep(0.01)
            body = json.dumps({"artifact": artifact}).encode("utf-8")
            conn.request("POST", "/admin/reload", body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                tally.failure(f"reload {response.status}: {payload}")
                return
            fingerprints.append(payload["fingerprint"])
    finally:
        conn.close()


def test_serving_load(tmp_path):
    registry = MetricsRegistry()
    path_a = _export(tmp_path, "artifact_a", BASE_SEED)
    path_b = _export(tmp_path, "artifact_b", BASE_SEED + 1)

    engine = _build_engine(path_a, registry)
    front = FrontDoor(engine, max_pending=256,
                      builder=lambda path: _build_engine(path, registry),
                      drain_timeout_s=60.0, registry=registry)
    tally = _Tally()
    fingerprints = []
    started = time.perf_counter()
    with AlignmentServer(front, registry=registry) as server:
        first_fingerprint = front.fingerprint
        threads = [
            threading.Thread(target=_get_arm,
                             args=(server, tally, i, registry))
            for i in range(GET_THREADS)
        ]
        threads.append(threading.Thread(
            target=_post_arm, args=(server, tally, registry)))
        threads.append(threading.Thread(
            target=_swap_arm,
            args=(server, tally, [path_b, path_a], fingerprints)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started

    # -- invariants ----------------------------------------------------
    assert not tally.failures, tally.failures[:5]
    assert tally.ok + tally.rejected == TOTAL
    assert tally.ok >= 10_000
    assert len(fingerprints) == 2
    assert fingerprints[0] != first_fingerprint  # a → b flipped
    assert fingerprints[1] == first_fingerprint  # b → a flipped back
    assert registry.counter("serving.frontdoor.swaps").value == 2
    assert registry.get("serving.frontdoor.drain_timeouts") is None

    snapshot = registry.snapshot()
    queue_depth = snapshot["serving.frontdoor.queue_depth"]
    assert queue_depth["count"] >= TOTAL // POST_BATCH_SIZE
    assert snapshot["serving.sharded.scatters"]["value"] > 0
    assert snapshot["serving.sharded.shards"]["last"] == SHARDS
    assert snapshot["serving.http.requests"]["value"] > 0

    # -- hedge phase: a forked pool with an aggressive hedge timer -----
    rng = np.random.default_rng(BASE_SEED)
    source = [rng.standard_normal((40, 8))]
    target = [rng.standard_normal((128, 8))]
    with ShardedIndex(source, target, [1.0], shards=2,
                      target_block_size=64, workers=2,
                      hedge_after_s=0.0, registry=registry) as hedged:
        for _ in range(2):
            hedged.top_k(np.arange(10), k=3)
    assert registry.counter("parallel.hedges").value >= 1

    # -- report + BENCH artifact ---------------------------------------
    bench_path = "BENCH_serving_load.json"
    payload = write_bench_json(bench_path, registry, run={
        "command": "serving_load",
        "queries": TOTAL,
        "answered": tally.ok,
        "rejected": tally.rejected,
        "swaps": 2,
        "shards": SHARDS,
        "elapsed_s": elapsed,
        "qps": TOTAL / elapsed,
    })
    assert "serving.frontdoor.queue_depth" in payload["metrics"]

    print_section("serving load (sharded + hot swap)")
    get_latency = snapshot["bench.load.get_latency_s"]
    print(f"queries: {TOTAL} ({tally.ok} ok, {tally.rejected} rejected) "
          f"in {elapsed:.1f}s → {TOTAL / elapsed:.0f} qps")
    print(f"GET p50 {get_latency['p50'] * 1e3:.2f} ms, "
          f"p99 {get_latency['p99'] * 1e3:.2f} ms")
    print(f"swaps: {fingerprints}")
    print(f"hedges fired: {registry.counter('parallel.hedges').value}")
    print(f"BENCH artifact: {bench_path}")
