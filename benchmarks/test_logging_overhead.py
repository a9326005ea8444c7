"""Structured-logging overhead guardrail + slow-query sampler smoke.

The logging layer's contract mirrors the profiler's: **near-zero cost
when nothing fires**.  At the production configuration (INFO to a
file), the serving hot path pays one ``isEnabledFor`` check per
gated DEBUG event and emits nothing, so:

* logging-enabled serving p50 must be within 5% of logging-off p50,
  measured A/B-interleaved (arms alternate round by round, so clock
  drift and cache warmth hit both equally; the assert compares
  min-of-round medians, the same noise-shaking used by the profiler
  overhead bound);
* the slow-query sampler must actually fire: a query slowed by an
  injected shard delay past the audit threshold lands in the engine's
  slow-query ring with its request id, and the WARNING line reaches
  the configured log file.
"""

import json
import statistics
import time

import numpy as np

from repro.observability import (
    MetricsRegistry,
    configure_logging,
    reset_logging,
    write_bench_json,
)
from repro.serving import QueryEngine, export_artifact, load_artifact

from conftest import BASE_SEED, print_section

N_SOURCE = 200
N_TARGET = 800
DIMS = (16,)
WEIGHTS = [1.0]
SHARDS = 2
QUERY_K = 5

ROUNDS_PER_ARM = 4
QUERIES_PER_ROUND = 150
OVERHEAD_CEILING = 1.05  # logging-on p50 within 5% of logging-off


def _export(tmp_path, name):
    rng = np.random.default_rng(BASE_SEED + 7)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    path = str(tmp_path / name)
    export_artifact(path, source, target, WEIGHTS, pair_name=name)
    return path


def _build_engine(path, registry, **kwargs):
    artifact = load_artifact(path, mmap=True, registry=registry)
    block = -(-artifact.n_target // SHARDS)
    return QueryEngine.from_artifact(
        artifact, shards=SHARDS, workers=0, target_block_size=block,
        batch_size=16, max_delay_ms=0.0, cache_size=0,
        registry=registry, **kwargs,
    )


def _round_p50_ms(engine, offset):
    latencies = []
    for i in range(QUERIES_PER_ROUND):
        source = (offset + i * 7) % N_SOURCE
        started = time.perf_counter()
        engine.query(source, k=QUERY_K)
        latencies.append((time.perf_counter() - started) * 1e3)
    return statistics.median(latencies)


def test_logging_on_p50_within_5_percent_of_off(tmp_path):
    registry = MetricsRegistry()
    engine = _build_engine(_export(tmp_path, "overhead"), registry)
    log_path = str(tmp_path / "serving.jsonl")
    arms = {"off": [], "on": []}
    try:
        engine.start()
        _round_p50_ms(engine, offset=0)  # warm up caches and mmaps
        # Interleave: off, on, off, on, ... so drift hits both arms.
        for round_index in range(2 * ROUNDS_PER_ARM):
            arm = "off" if round_index % 2 == 0 else "on"
            if arm == "on":
                configure_logging(level="INFO", path=log_path)
            else:
                reset_logging()
            arms[arm].append(
                _round_p50_ms(engine, offset=round_index * 31)
            )
    finally:
        reset_logging()
        engine.close()
    off_p50 = min(arms["off"])
    on_p50 = min(arms["on"])
    payload = write_bench_json("BENCH_logging_overhead.json", registry, run={
        "command": "logging_overhead",
        "rounds_per_arm": ROUNDS_PER_ARM,
        "queries_per_round": QUERIES_PER_ROUND,
        "p50_ms_logging_off": off_p50,
        "p50_ms_logging_on": on_p50,
        "overhead": on_p50 / off_p50,
    })
    assert payload["run"]["overhead"] == on_p50 / off_p50

    print_section("structured logging overhead (serving p50)")
    print(f"logging off p50: {off_p50:.3f} ms  (min of "
          f"{ROUNDS_PER_ARM} round medians)")
    print(f"logging on  p50: {on_p50:.3f} ms")
    print(f"overhead: {on_p50 / off_p50:.4f}x (ceiling "
          f"{OVERHEAD_CEILING}x)")
    assert on_p50 <= off_p50 * OVERHEAD_CEILING, (
        f"structured logging costs {on_p50 / off_p50:.3f}x on the "
        f"serving hot path (p50 {off_p50:.3f} -> {on_p50:.3f} ms); "
        f"the guardrail is {OVERHEAD_CEILING}x"
    )


def test_slow_query_sampler_fires_on_delayed_shard(tmp_path):
    registry = MetricsRegistry()
    engine = _build_engine(
        _export(tmp_path, "slowlog"), registry, slow_query_ms=5.0
    )
    log_path = str(tmp_path / "slow.jsonl")
    configure_logging(level="INFO", path=log_path)
    try:
        engine.start()
        engine.query(1, k=QUERY_K)  # healthy baseline: not audited
        assert engine.slow_queries.total == 0
        engine.index.inject_fault("shard_delay", shard=0, delay_s=0.05)
        engine.query(2, k=QUERY_K, request_id="bench-slow-0001")
    finally:
        reset_logging()
        engine.close()

    assert engine.slow_queries.total >= 1
    (worst, *_) = engine.slow_queries.recent()
    print_section("slow-query sampler (injected shard delay)")
    print(f"audited: {engine.slow_queries.total}, worst: "
          f"{worst['latency_ms']:.1f} ms, request_id: "
          f"{worst['request_id']}")
    assert worst["request_id"] == "bench-slow-0001"
    assert worst["latency_ms"] >= 5.0
    stats = engine.stats()
    assert stats["slow_queries"]["total"] >= 1
    assert stats["slow_queries"]["top"][0]["request_id"] == (
        "bench-slow-0001"
    )
    with open(log_path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    slow_lines = [entry for entry in events
                  if entry["event"] == "serving.slow_query"]
    assert slow_lines and slow_lines[0]["level"] == "WARNING"
    assert slow_lines[0]["request_id"] == "bench-slow-0001"
