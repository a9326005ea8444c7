"""End-to-end request observability over a sharded deployment.

Walks the serving tier's whole observability loop:

1. switch on structured JSON logging (one object per line, greppable),
2. serve a 2-shard engine (``QueryEngine.from_artifact(shards=2)``)
   over HTTP and send a query with a caller correlation id — then join
   the response header, the front-door access line, and the per-shard
   worker log lines on that one id,
3. scrape ``GET /metrics?format=prometheus`` like a stock Prometheus
   would,
4. watch the SLO tracker burn its error budget and flip ``/readyz``
   to 503 while ``/healthz`` stays green,
5. trip the slow-query audit with an injected shard delay and read the
   offender back from ``/stats``,
6. export a Chrome trace with the per-shard scoring spans.

The same loop from the command line:

    python -m repro.cli serve --artifact /tmp/artifact --port 8571 \
        --shards 2 --log-level DEBUG --access-log --slow-query-ms 50
    python -m repro.cli status --url http://127.0.0.1:8571

Run:  python examples/observability_quickstart.py
"""

import io
import json
import tempfile
import urllib.request

import numpy as np

from repro.observability import (
    MetricsRegistry,
    SLOTracker,
    Tracer,
    configure_logging,
    export_chrome_trace,
    reset_logging,
    use_tracer,
)
from repro.serving import (
    AlignmentServer,
    HTTPClient,
    QueryEngine,
    export_artifact,
    load_artifact,
)

N_SOURCE, N_TARGET, DIMS = 200, 800, (24, 12)
WEIGHTS = [0.6, 0.4]
SHARDS = 2


def make_artifact() -> str:
    rng = np.random.default_rng(42)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    out = tempfile.mkdtemp(prefix="repro-observability-")
    export_artifact(out, source, target, WEIGHTS, pair_name="demo")
    return out


def build_engine(path: str, registry: MetricsRegistry,
                 **kwargs) -> QueryEngine:
    artifact = load_artifact(path, mmap=True, registry=registry)
    block = -(-artifact.n_target // SHARDS)
    return QueryEngine.from_artifact(
        artifact, shards=SHARDS, workers=0, target_block_size=block,
        registry=registry, **kwargs,
    )


def main() -> None:
    path = make_artifact()
    registry = MetricsRegistry()
    # Low thresholds so the demo trips them quickly: a 3-nines SLO
    # burning twice its budget flips readiness; 25 ms flags a slow query.
    slo = SLOTracker(availability_target=0.999, burn_rate_threshold=2.0)
    engine = build_engine(path, registry, slow_query_ms=25.0)

    # 1. JSON-lines logging into a buffer (a file in production:
    #    serve --log-file serving.jsonl, or REPRO_LOG_FILE=...).
    log_buffer = io.StringIO()
    configure_logging(level="DEBUG", stream=log_buffer)

    tracer = Tracer(enabled=True)
    with use_tracer(tracer), AlignmentServer(
        engine, registry=registry, slo=slo, access_log=True
    ) as server:
        client = HTTPClient(server.url, max_retries=0)

        # 2. one query, one correlation id, three places it shows up.
        request_id = "demo-request-0001"
        request = urllib.request.Request(
            f"{server.url}/query?source=7&k=3",
            headers={"X-Request-Id": request_id},
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
            print("response X-Request-Id:",
                  response.headers["X-Request-Id"])
        print("payload request_id:   ", payload["request_id"])
        print("targets:", payload["targets"])

        correlated = [
            json.loads(line)
            for line in log_buffer.getvalue().splitlines()
            if request_id in line
        ]
        print(f"\nlog lines carrying {request_id}:")
        for entry in correlated:
            extra = (f" shard={entry['shard']}" if "shard" in entry
                     else "")
            print(f"  {entry['level']:7s} {entry['event']}{extra}")

        # 3. a Prometheus scrape of the same registry.
        scrape = urllib.request.urlopen(
            f"{server.url}/metrics?format=prometheus", timeout=10.0
        ).read().decode("utf-8")
        print("\nprometheus scrape (excerpt):")
        for line in scrape.splitlines():
            if (line.startswith("serving_http_requests")
                    or line.endswith("_count")
                    or "_sum" in line):
                print(" ", line)

        # 4. burn the error budget; readiness flips, liveness holds.
        print("\nSLO before burn:", client.stats()["slo"]["burning"])
        for _ in range(20):
            slo.record(0.01, good=False)  # stand-in for a 5xx storm
        print("SLO after burn:  burning =",
              client.stats()["slo"]["burning"])
        print("healthz:", client.healthz()["status"])
        try:
            client.readyz()
        except Exception as error:
            print("readyz: 503 —", getattr(error, "payload", {}).get(
                "status", error))

        # 5. trip the slow-query audit with a delayed shard.
        engine.index.inject_fault("shard_delay", shard=0, delay_s=0.05)
        client.query(11, k=3, request_id="demo-slow-0002")
        worst = client.stats()["engine"]["slow_queries"]["top"][0]
        print(f"\nslow-query audit: {worst['latency_ms']:.1f} ms, "
              f"request_id={worst['request_id']}")

    # 6. the trace: per-shard scoring spans under the scatter.
    trace_path = tempfile.mktemp(suffix=".json", prefix="repro-trace-")
    export_chrome_trace(trace_path, tracer)
    names = sorted({span.name for span in tracer.spans()})
    print("\nspan names recorded:", ", ".join(names))
    print("chrome trace:", trace_path, "(open in chrome://tracing)")
    reset_logging()


if __name__ == "__main__":
    main()
