"""Chaos benchmark: the serving tier under sustained seeded faults.

Drives the full fault-tolerant stack — sharded scatter-gather, per-shard
circuit breakers, deadline propagation, crash-loop-protected hot swap —
with the :class:`~repro.resilience.chaos.ChaosEngine` harness at scale:

* >= 5,000 verified queries under >= 200 injected faults (shard kills,
  shard delays, doomed hot swaps of a corrupted artifact),
* the chaos invariant on every response: bitwise-correct, a typed
  4xx/5xx, or explicitly degraded with accurate coverage — **zero**
  silently-wrong answers tolerated,
* bounded recovery: full coverage restored after the fault storm stops,
* a ``BENCH_chaos.json`` conforming to the BENCH schema.

Skips below 4 CPUs — with fewer cores the forked shard scorers and the
breakers' probe timing merely timeshare, and the run's latencies say
nothing.
"""

import os

import numpy as np
import pytest

from repro.observability import MetricsRegistry, write_bench_json
from repro.resilience.chaos import ChaosEngine
from repro.serving import (
    FrontDoor,
    QueryEngine,
    export_artifact,
    load_artifact,
)

from conftest import BASE_SEED, print_section

MIN_CPUS = 4
N_SOURCE = 200
N_TARGET = 600
DIMS = (24, 12)
WEIGHTS = [0.6, 0.4]
SHARDS = 3
ROUNDS = 320
QUERIES_PER_ROUND = 16
NUM_FAULTS = 220
MIN_QUERIES = 5_000

needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < MIN_CPUS,
    reason=f"chaos run needs >= {MIN_CPUS} CPUs, have {os.cpu_count()}",
)


def _export(tmp_path, name):
    rng = np.random.default_rng(BASE_SEED)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    path = str(tmp_path / name)
    export_artifact(path, source, target, WEIGHTS, pair_name=name)
    return path


@needs_cores
def test_chaos_invariant_at_scale(tmp_path):
    registry = MetricsRegistry()
    path = _export(tmp_path, "chaos.artifact")
    artifact = load_artifact(path, verify="eager", registry=registry)

    # A deliberately corrupted sibling: every swap_fail/artifact_corrupt
    # fault hot-swaps it and must be rejected by the validation layer.
    bad_path = _export(tmp_path, "bad.artifact")
    victim = os.path.join(bad_path, "target_layer_0.npy")
    with open(victim, "rb+") as handle:
        handle.seek(-16, os.SEEK_END)
        position = handle.tell()
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))

    block = -(-N_TARGET // SHARDS)

    def build_engine(artifact_path):
        loaded = load_artifact(
            artifact_path, verify="eager", registry=registry
        )
        return QueryEngine.from_artifact(
            loaded, shards=SHARDS, workers=0, target_block_size=block,
            max_delay_ms=0.0, cache_size=0,
            breaker_kwargs={"failure_threshold": 2,
                            "reset_timeout_s": 0.05},
            registry=registry,
        )

    engine = build_engine(path)
    front = FrontDoor(
        engine, max_pending=256, builder=build_engine,
        reload_backoff_s=0.01, registry=registry,
    )
    try:
        chaos = ChaosEngine(
            front, artifact, seed=BASE_SEED, deadline_ms=250,
            bad_artifact_path=bad_path, registry=registry,
        )
        report = chaos.run(
            rounds=ROUNDS,
            queries_per_round=QUERIES_PER_ROUND,
            num_faults=NUM_FAULTS,
            k_max=8,
            max_recovery_s=30.0,
        )
    finally:
        front.close()

    print_section("chaos: serving tier under seeded faults")
    print(f"queries          : {report.queries}")
    print(f"faults           : {sum(report.faults.values())} "
          f"{dict(sorted(report.faults.items()))}")
    print(f"correct          : {report.correct}")
    print(f"degraded (ok)    : {report.degraded_ok}")
    print(f"typed errors     : "
          f"{ {s: c for s, c in sorted(report.typed_errors.items())} }")
    print(f"violations       : {len(report.violations)}")
    print(f"recovery rounds  : {report.recovery_rounds}")
    print(f"recovered        : {report.recovered}")

    # -- the chaos invariant, at scale ---------------------------------
    assert report.queries >= MIN_QUERIES
    assert sum(report.faults.values()) >= 200
    # Correlation contract first: if the invariant ever breaks, every
    # violation record must name the request id that greps to the
    # offending query's front-door and shard log lines.
    for violation in report.violations:
        assert violation.get("request_id"), violation
    assert report.violations == [], report.payload()
    assert report.recovered, "tier did not return to full coverage"
    assert report.degraded_ok > 0, "no fault ever degraded an answer"
    assert report.correct > 0

    bench_path = "BENCH_chaos.json"
    payload = write_bench_json(bench_path, registry, run={
        "command": "chaos",
        "seed": BASE_SEED,
        "queries": report.queries,
        "faults": sum(report.faults.values()),
        "correct": report.correct,
        "degraded_ok": report.degraded_ok,
        "typed_errors": sum(report.typed_errors.values()),
        "violations": len(report.violations),
        "recovered": report.recovered,
        "recovery_rounds": report.recovery_rounds,
        "shards": SHARDS,
    })
    assert "resilience.chaos.runs" in payload["metrics"]
    print(f"BENCH written    : {bench_path}")
