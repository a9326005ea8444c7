"""Serving throughput benchmark: QPS, latency percentiles, cache effect.

Measures the QueryEngine over a synthetic artifact-sized workload:

* cold pass — every query is a cache miss (one index scan each),
* warm pass — the same queries again, all answered from the LRU cache,
* batch pass — ``query_many`` amortizing the matmul across whole batches.

Asserted invariants (the rest is reporting):

* warm-cache p50 latency at least 5x below the cold p50,
* zero unaligned/error answers on a healthy artifact.
"""

import time

import numpy as np

from repro.observability import MetricsRegistry
from repro.serving import AlignmentIndex, QueryEngine

from conftest import BASE_SEED, print_section

N_SOURCE = 1500
N_TARGET = 3000
DIMS = (48, 24)
WEIGHTS = [0.6, 0.4]
QUERY_K = 5
NUM_QUERIES = 400


def make_index(registry, block_size=512):
    rng = np.random.default_rng(BASE_SEED)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    return AlignmentIndex(source, target, WEIGHTS, target_block_size=block_size,
                          registry=registry)


def percentile_ms(latencies, q):
    return float(np.percentile(np.asarray(latencies), q) * 1e3)


def run_pass(engine, sources):
    latencies = []
    started = time.perf_counter()
    for source in sources:
        result = engine.query(int(source), k=QUERY_K)
        assert result.aligned
        latencies.append(result.latency_s)
    elapsed = time.perf_counter() - started
    return latencies, len(sources) / elapsed


def test_serving_throughput():
    print_section("serving throughput (single-query path)")
    registry = MetricsRegistry()
    engine = QueryEngine(
        make_index(registry), fingerprint="bench", batch_size=32,
        max_delay_ms=0.0, cache_size=8192, registry=registry,
    )
    sources = np.arange(NUM_QUERIES) % N_SOURCE
    with engine:
        cold, cold_qps = run_pass(engine, sources)
        warm, warm_qps = run_pass(engine, sources)

        cold_p50 = percentile_ms(cold, 50)
        warm_p50 = percentile_ms(warm, 50)
        print(f"queries          : {NUM_QUERIES} cold + {NUM_QUERIES} warm")
        print(f"cold  p50 / p99  : {cold_p50:8.3f} / "
              f"{percentile_ms(cold, 99):8.3f} ms   ({cold_qps:8.0f} qps)")
        print(f"warm  p50 / p99  : {warm_p50:8.3f} / "
              f"{percentile_ms(warm, 99):8.3f} ms   ({warm_qps:8.0f} qps)")
        print(f"cache speedup    : {cold_p50 / warm_p50:.1f}x at p50")

        stats = engine.stats()
        assert stats["cache"]["hits"] == NUM_QUERIES
        assert stats["unaligned"] == 0
        assert warm_p50 * 5 <= cold_p50, (
            f"warm-cache p50 {warm_p50:.4f} ms not 5x below cold "
            f"{cold_p50:.4f} ms"
        )

    print_section("serving throughput (batched path)")
    registry = MetricsRegistry()
    engine = QueryEngine(
        make_index(registry), fingerprint="bench", batch_size=64,
        cache_size=0, registry=registry,
    )
    with engine:
        started = time.perf_counter()
        results = engine.query_many([(int(s), QUERY_K) for s in sources])
        elapsed = time.perf_counter() - started
        assert len(results) == NUM_QUERIES
        print(f"batch qps        : {NUM_QUERIES / elapsed:8.0f} "
              f"(batch_size=64, cache off)")


def test_lazy_verification_overhead():
    """``verify="lazy"`` must cost < 5% p50 vs ``verify="off"``.

    The lazy verifier hashes the artifact on a background thread once;
    steady state (measured here, after the thread finishes) is a single
    attribute read per scored batch.  Passes are interleaved A/B/A/B and
    the best p50 of each mode compared, so machine drift does not decide
    the verdict.
    """
    import tempfile

    from repro.serving import QueryEngine, export_artifact, load_artifact

    print_section('verify="lazy" overhead vs verify="off"')
    rng = np.random.default_rng(BASE_SEED)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/artifact"
        export_artifact(path, source, target, WEIGHTS, pair_name="bench")

        engines = {}
        for mode in ("off", "lazy"):
            registry = MetricsRegistry()
            artifact = load_artifact(path, verify=mode, registry=registry)
            engines[mode] = QueryEngine.from_artifact(
                artifact, target_block_size=512, batch_size=32,
                max_delay_ms=0.0, cache_size=0, registry=registry,
            ).start()
        # Steady state: wait until the background hash pass is done, so
        # the measurement sees only the per-batch attribute read.
        engines["lazy"].verifier.ensure(timeout=60.0)

        sources = np.arange(NUM_QUERIES) % N_SOURCE
        p50 = {"off": [], "lazy": []}
        try:
            for mode in ("off", "lazy"):  # warmup, unmeasured
                run_pass(engines[mode], sources[:50])
            for round_index in range(4):
                # Alternate which mode goes first so cache/thermal drift
                # within a round cancels instead of biasing one side.
                order = (
                    ("off", "lazy") if round_index % 2 == 0
                    else ("lazy", "off")
                )
                for mode in order:
                    latencies, _ = run_pass(engines[mode], sources)
                    p50[mode].append(percentile_ms(latencies, 50))
        finally:
            for engine in engines.values():
                engine.close()

    best_off = min(p50["off"])
    best_lazy = min(p50["lazy"])
    overhead = best_lazy / best_off - 1.0
    print(f"p50 off          : {best_off:8.3f} ms  (runs: "
          f"{[f'{v:.3f}' for v in p50['off']]})")
    print(f"p50 lazy         : {best_lazy:8.3f} ms  (runs: "
          f"{[f'{v:.3f}' for v in p50['lazy']]})")
    print(f"overhead         : {overhead * 1e2:+.2f}%")
    assert best_lazy <= best_off * 1.05, (
        f'verify="lazy" p50 {best_lazy:.3f} ms is more than 5% above '
        f'verify="off" p50 {best_off:.3f} ms'
    )
