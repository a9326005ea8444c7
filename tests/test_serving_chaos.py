"""The chaos harness and the degraded-answer contract, end to end.

These tests run the seeded :class:`~repro.resilience.chaos.ChaosEngine`
against a real sharded serving stack (inline workers for speed) and pin
the chaos invariant: every response is bitwise-correct, a typed error,
or explicitly degraded with accurate coverage — and the tier recovers
to full coverage once the faults stop.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.resilience.chaos import ChaosEngine, ChaosReport
from repro.serving import (
    AlignmentIndex,
    FrontDoor,
    QueryEngine,
    export_artifact,
    load_artifact,
)

BLOCK = 16
N_SOURCE = 24
N_TARGET = 65
DIMS = (8, 4)


def make_artifact(tmp_path, seed=0, name="chaos"):
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    path = str(tmp_path / f"{name}.artifact")
    export_artifact(path, source, target, [0.6, 0.4],
                    config={"seed": seed, "name": name})
    return load_artifact(path, verify="eager")


@pytest.fixture
def stack(tmp_path):
    """FrontDoor over a 3-shard inline engine with fast breakers."""
    registry = MetricsRegistry()
    artifact = make_artifact(tmp_path)
    engine = QueryEngine.from_artifact(
        artifact, shards=3, workers=0, target_block_size=BLOCK,
        max_delay_ms=0.0, cache_size=0,
        breaker_kwargs={"failure_threshold": 1, "reset_timeout_s": 0.05},
        registry=registry,
    )
    front = FrontDoor(engine, max_pending=64, registry=registry)
    try:
        yield front, artifact, registry
    finally:
        front.close()


class TestChaosRun:
    def test_invariant_holds_under_shard_faults(self, stack, tmp_path):
        front, artifact, registry = stack
        chaos = ChaosEngine(
            front, artifact, seed=7,
            bad_artifact_path=str(tmp_path / "no-such.artifact"),
            registry=registry,
        )
        report = chaos.run(rounds=30, queries_per_round=4, num_faults=12)
        assert report.ok, report.payload()
        assert report.queries >= 120
        assert sum(report.faults.values()) == 12
        # Faults actually landed: some answers were degraded (or typed
        # errors surfaced while every shard was down).
        assert report.degraded_ok + sum(report.typed_errors.values()) > 0
        assert report.correct > 0
        assert report.violations == []
        assert report.recovered

    def test_same_seed_same_fault_plan(self, stack, tmp_path):
        front, artifact, _ = stack
        chaos = ChaosEngine(
            front, artifact, seed=123,
            bad_artifact_path=str(tmp_path / "missing"),
        )
        plan_a = [
            (f.kind, f.step, f.shard)
            for f in chaos.plan_faults(50, 10).pending()
        ]
        plan_b = [
            (f.kind, f.step, f.shard)
            for f in chaos.plan_faults(50, 10).pending()
        ]
        assert plan_a == plan_b
        other = ChaosEngine(
            front, artifact, seed=124,
            bad_artifact_path=str(tmp_path / "missing"),
        )
        plan_c = [
            (f.kind, f.step, f.shard)
            for f in other.plan_faults(50, 10).pending()
        ]
        assert plan_a != plan_c

    def test_failed_swap_keeps_old_engine_serving(self, stack, tmp_path):
        front, artifact, registry = stack
        chaos = ChaosEngine(
            front, artifact, seed=3,
            bad_artifact_path=str(tmp_path / "not-an-artifact"),
            registry=registry,
        )
        report = chaos.run(
            rounds=6, queries_per_round=3, num_faults=3,
            kinds=("swap_fail", "artifact_corrupt"),
        )
        assert report.ok, report.payload()
        assert front.fingerprint == artifact.fingerprint
        assert registry.counter("resilience.chaos.swaps_rejected").value == 3

    def test_report_payload_shape(self):
        report = ChaosReport(seed=9)
        report.queries = 5
        report.correct = 5
        report.recovered = True
        payload = report.payload()
        assert payload["ok"] is True
        assert payload["seed"] == 9
        assert payload["num_violations"] == 0
        report.violations.append({"kind": "wrong_answer"})
        assert report.ok is False


class TestViolationCorrelation:
    def test_every_violation_kind_carries_a_request_id(self, stack):
        """A violation record must grep straight to its log lines.

        Forces each checker branch with doctored results (the real tier
        never produces one — the invariant tests above pin that) and
        requires the correlation id on every violation shape.
        """
        front, artifact, _ = stack
        chaos = ChaosEngine(front, artifact, seed=1)
        report = ChaosReport(seed=1)
        real = front.query(3, k=2, request_id="chaos-corr-0001")
        assert real.request_id == "chaos-corr-0001"

        wrong = SimpleNamespace(
            degraded=False, coverage=1.0, shards_down=(),
            targets=tuple(reversed(real.targets)), scores=real.scores,
            request_id="chaos-corr-0001",
        )
        chaos._check(3, 2, wrong, report)
        undeclared = SimpleNamespace(
            degraded=False, coverage=0.5, shards_down=(),
            targets=real.targets, scores=real.scores,
            request_id="chaos-corr-0002",
        )
        chaos._check(3, 2, undeclared, report)
        inaccurate = SimpleNamespace(
            degraded=True, coverage=0.123, shards_down=(0,),
            targets=real.targets, scores=real.scores,
            request_id="chaos-corr-0003",
        )
        chaos._check(3, 2, inaccurate, report)

        kinds = [violation["kind"] for violation in report.violations]
        assert kinds == [
            "wrong_answer", "undeclared_degradation",
            "inaccurate_coverage",
        ]
        ids = [violation["request_id"] for violation in report.violations]
        assert ids == [
            "chaos-corr-0001", "chaos-corr-0002", "chaos-corr-0003",
        ]

    def test_chaos_run_violations_would_be_correlated(self, stack,
                                                      tmp_path):
        """The violation-free invariant run stamps ids on its queries."""
        front, artifact, registry = stack
        chaos = ChaosEngine(
            front, artifact, seed=5,
            bad_artifact_path=str(tmp_path / "missing"),
            registry=registry,
        )
        report = chaos.run(rounds=5, queries_per_round=3, num_faults=2)
        assert report.ok, report.payload()
        for violation in report.violations:  # ok => empty; belt-and-braces
            assert violation.get("request_id")


class TestDegradedContract:
    def test_degraded_answer_matches_survivor_oracle(self, stack):
        front, artifact, _ = stack
        chaos = ChaosEngine(front, artifact, seed=0)
        front.index.inject_fault("shard_kill", shard=1)
        result = front.query(2, k=4)
        assert result.degraded
        assert result.shards_down == (1,)
        start, stop = front.index.plan[1]
        expected_coverage = (N_TARGET - (stop - start)) / N_TARGET
        assert result.coverage == pytest.approx(expected_coverage, abs=1e-12)
        targets, scores = chaos.expected(2, 4, shards_down=(1,))
        assert result.targets == targets
        assert result.scores == scores

    def test_degraded_answers_are_never_cached(self, tmp_path):
        registry = MetricsRegistry()
        artifact = make_artifact(tmp_path, name="cachetest")
        engine = QueryEngine.from_artifact(
            artifact, shards=3, workers=0, target_block_size=BLOCK,
            max_delay_ms=0.0, cache_size=1024,
            breaker_kwargs={"failure_threshold": 1,
                            "reset_timeout_s": 0.01},
            registry=registry,
        )
        reference = AlignmentIndex.from_artifact(
            artifact, target_block_size=BLOCK
        )
        with engine:
            engine.index.inject_fault("shard_kill", shard=0)
            degraded = engine.query(0, k=3)
            assert degraded.degraded
            # Let the breaker's reset window pass, then re-ask: the
            # answer must be the *full* one, not the cached partial.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                time.sleep(0.02)
                healed = engine.query(0, k=3)
                if not healed.degraded:
                    break
            assert not healed.degraded
            assert not healed.cached or healed.coverage == 1.0
            expected_t, expected_s = reference.top_k(
                np.array([0], dtype=np.int64), k=3
            )
            assert healed.targets == tuple(int(t) for t in expected_t[0])
            assert healed.scores == tuple(float(s) for s in expected_s[0])

    def test_recovery_restores_full_coverage_and_readiness(self, stack):
        front, artifact, _ = stack
        front.index.inject_fault("shard_kill", shard=2)
        assert front.query(1, k=2).degraded
        health = front.health()
        assert health["healthy"]       # liveness survives a dead shard
        assert health["degraded"]
        assert not health["ready"]     # readiness does not
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            time.sleep(0.02)
            if not front.query(1, k=2).degraded:
                break
        health = front.health()
        assert not health["degraded"]
        assert health["ready"]
        assert health["coverage"] == 1.0
