"""Chaos quickstart: break the serving tier on purpose, watch it degrade.

Walks the failure model end to end:

1. export a crash-safe artifact (staged write, ``_COMMITTED`` marker,
   atomic rename) plus a deliberately corrupted sibling,
2. serve it sharded (``QueryEngine.from_artifact(shards=3)``) behind a
   :class:`FrontDoor`, with a circuit breaker per shard,
3. miss a deadline — the budget expires, the work is shed, and the
   caller gets a typed :class:`DeadlineExceededError` (HTTP 504), not a
   late answer,
4. kill a shard — the answer *degrades* (survivor merge, explicit
   ``degraded``/``coverage``) instead of failing, and the breaker's
   half-open probe restores full coverage once the shard heals,
5. hot-swap the corrupted artifact — validation rejects it loudly,
   naming the damaged file, while the old engine keeps serving,
6. run the seeded :class:`ChaosEngine` for a few hundred queries under
   dozens of faults and verify the invariant: every response is
   bitwise-correct, a typed error, or explicitly degraded with accurate
   coverage — never silently wrong.

Run:  python examples/chaos_quickstart.py
"""

import os
import tempfile
import time

import numpy as np

from repro.observability import MetricsRegistry
from repro.resilience import ArtifactValidationError, DeadlineExceededError
from repro.resilience.chaos import ChaosEngine
from repro.serving import (
    FrontDoor,
    QueryEngine,
    export_artifact,
    load_artifact,
)

N_SOURCE, N_TARGET, DIMS = 120, 360, (16, 8)
WEIGHTS = [0.6, 0.4]
SHARDS = 3
BLOCK = N_TARGET // SHARDS


def make_artifact(name: str) -> str:
    rng = np.random.default_rng(7)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    out = tempfile.mkdtemp(prefix=f"repro-{name}-")
    export_artifact(out, source, target, WEIGHTS, pair_name=name)
    return out


def corrupt(path: str, filename: str) -> None:
    """Flip one byte near the end of ``filename`` in place."""
    victim = os.path.join(path, filename)
    with open(victim, "rb+") as handle:
        handle.seek(-8, os.SEEK_END)
        position = handle.tell()
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


def main() -> None:
    good = make_artifact("good")
    bad = make_artifact("bad")
    corrupt(bad, "target_layer_0.npy")

    registry = MetricsRegistry()
    artifact = load_artifact(good, verify="eager", registry=registry)

    def build(path: str) -> QueryEngine:
        return QueryEngine.from_artifact(
            load_artifact(path, verify="eager", registry=registry),
            shards=SHARDS, workers=0, target_block_size=BLOCK,
            max_delay_ms=0.0, cache_size=0,
            breaker_kwargs={"failure_threshold": 1,
                            "reset_timeout_s": 0.05},
            registry=registry,
        )

    front = FrontDoor(build(good), max_pending=64, builder=build,
                      reload_backoff_s=0.05, registry=registry)
    try:
        # -- 1. deadlines shed, they don't linger ----------------------
        result = front.query(3, k=5, deadline_s=time.monotonic() + 1.0)
        print(f"healthy answer   : targets={result.targets} "
              f"coverage={result.coverage:.2f}")
        try:
            front.query(3, k=5, deadline_s=time.monotonic() - 0.01)
        except DeadlineExceededError as error:
            print(f"expired deadline : DeadlineExceededError "
                  f"(HTTP 504) — {error}")

        # -- 2. a killed shard degrades the answer ---------------------
        front.index.inject_fault("shard_kill", shard=1)
        degraded = front.query(3, k=5)
        assert degraded.degraded and degraded.coverage < 1.0
        print(f"shard 1 killed   : degraded={degraded.degraded} "
              f"coverage={degraded.coverage:.2f} "
              f"shards_down={degraded.shards_down}")

        # breaker: open → half-open probe → closed once the shard heals
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            healed = front.query(3, k=5)
            if not healed.degraded:
                break
            time.sleep(0.02)
        assert healed.targets == result.targets
        print(f"breaker recovered: coverage={healed.coverage:.2f}, "
              f"answer identical to pre-fault")

        # -- 3. a corrupt hot swap fails loudly, old engine serves -----
        try:
            front.reload(bad)
        except ArtifactValidationError as error:
            print(f"corrupt swap     : rejected — {error}")
        still = front.query(3, k=5)
        assert still.targets == result.targets
        print("old engine       : still serving, bit-identical")

        # -- 4. the chaos harness does all of this at scale ------------
        chaos = ChaosEngine(front, artifact, seed=42, deadline_ms=250,
                            bad_artifact_path=bad, registry=registry)
        report = chaos.run(rounds=40, queries_per_round=8,
                           num_faults=30, k_max=5, max_recovery_s=10.0)
        print(f"chaos run        : {report.queries} queries under "
              f"{sum(report.faults.values())} faults "
              f"{dict(sorted(report.faults.items()))}")
        print(f"                   correct={report.correct} "
              f"degraded_ok={report.degraded_ok} "
              f"typed_errors={sum(report.typed_errors.values())}")
        print(f"                   violations={len(report.violations)} "
              f"recovered={report.recovered}")
        assert report.ok, report.payload()
        print("invariant held   : no response was silently wrong")
    finally:
        front.close()


if __name__ == "__main__":
    main()
