"""Deterministic chaos harness for the serving tier.

:class:`ChaosEngine` drives a seeded query load against a
:class:`~repro.serving.frontdoor.FrontDoor` while injecting serving
faults from a :class:`~repro.resilience.faults.FaultInjector` plan —
shard kills, shard delays, corrupted artifacts, failed hot swaps,
dropped client connections — and checks the **chaos invariant** on
every single response:

    every answer is (a) bitwise-correct, (b) a *typed* 4xx/5xx error
    from the documented taxonomy, or (c) explicitly degraded with
    accurate ``coverage``/``shards_down`` and bitwise-correct content
    for the surviving shards.  Never silently wrong.

Correctness is judged against an independent reference: the harness
builds one single-process :class:`~repro.serving.index.AlignmentIndex`
per shard range and re-implements the canonical merge (descending
score, ascending id) in plain numpy, so a bug in the serving scatter
path cannot hide inside its own oracle.

Everything is seeded — the fault plan, the query stream, the shard
victims — so a failing run replays exactly from its seed.  This module
is imported explicitly (``from repro.resilience.chaos import
ChaosEngine``), not via ``repro.resilience``: it depends on
``repro.serving``, which depends back on the resilience taxonomy.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import MetricsRegistry, get_registry, mint_request_id
from ..serving.index import AlignmentIndex
from ..serving.server import status_for_error
from .errors import DeadlineExceededError
from .faults import SERVING_FAULT_KINDS, Fault, FaultInjector

__all__ = ["ChaosEngine", "ChaosReport"]


@dataclass
class ChaosReport:
    """Outcome tally of one chaos run; ``ok`` is the headline invariant."""

    seed: int
    rounds: int = 0
    queries: int = 0
    correct: int = 0
    degraded_ok: int = 0
    typed_errors: Dict[int, int] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    recovered: bool = False
    recovery_rounds: int = 0

    @property
    def ok(self) -> bool:
        """True when no response was ever silently wrong and the tier
        recovered to full coverage after the faults stopped."""
        return not self.violations and self.recovered

    def payload(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "queries": self.queries,
            "correct": self.correct,
            "degraded_ok": self.degraded_ok,
            "typed_errors": {
                str(status): count
                for status, count in sorted(self.typed_errors.items())
            },
            "faults": dict(sorted(self.faults.items())),
            "violations": self.violations[:20],
            "num_violations": len(self.violations),
            "recovered": self.recovered,
            "recovery_rounds": self.recovery_rounds,
            "ok": self.ok,
        }


class ChaosEngine:
    """Seeded fault-injecting load driver with response verification.

    Parameters
    ----------
    frontdoor:
        The tier under test — a
        :class:`~repro.serving.frontdoor.FrontDoor`, ideally over a
        sharded engine from
        ``QueryEngine.from_artifact(artifact, shards=N)`` (shard faults
        need ``index.inject_fault``; without it those faults are
        skipped).
    artifact:
        The :class:`~repro.serving.artifact.AlignmentArtifact` being
        served; source of the independent reference indexes.
    seed:
        Seeds the query stream, the fault plan, and victim selection.
    deadline_ms:
        When > 0, every Nth query (seeded coin flip) carries this
        latency budget, exercising the deadline path under chaos.
    server_url:
        ``http://host:port`` of a live
        :class:`~repro.serving.server.AlignmentServer` over the same
        front door; enables ``client_disconnect`` faults (a raw socket
        that hangs up mid-request).
    bad_artifact_path:
        A path that is *not* a valid artifact (missing, or deliberately
        corrupted by the test); enables ``artifact_corrupt`` /
        ``swap_fail`` faults, which each attempt a hot swap of it and
        require the swap to fail loudly while the old engine keeps
        serving.
    """

    def __init__(
        self,
        frontdoor,
        artifact,
        seed: int = 0,
        deadline_ms: int = 0,
        server_url: Optional[str] = None,
        bad_artifact_path: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.frontdoor = frontdoor
        self.artifact = artifact
        self.seed = int(seed)
        self.deadline_ms = int(deadline_ms)
        self.server_url = server_url
        self.bad_artifact_path = bad_artifact_path
        self.registry = registry
        index = frontdoor.index
        self.n_source = int(index.n_source)
        self.n_target = int(index.n_target)
        self.plan: List[Tuple[int, int]] = list(
            getattr(index, "plan", [(0, self.n_target)])
        )
        block_size = int(getattr(index, "block_size", 512))
        # Independent per-shard oracles: same kernel, different driver.
        self._shard_refs = [
            AlignmentIndex(
                artifact.source_embeddings,
                [layer[start:stop] for layer in artifact.target_embeddings],
                artifact.layer_weights,
                target_block_size=block_size,
            )
            for start, stop in self.plan
        ]

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # -- oracle ---------------------------------------------------------
    def expected(
        self, source: int, k: int, shards_down: Sequence[int] = ()
    ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Reference answer over the surviving shards, post-processed
        exactly like :class:`~repro.serving.engine.QueryResult` content
        (canonical merge, ``k`` clamp, non-finite entries dropped)."""
        down = set(shards_down)
        survivors = [
            shard for shard in range(len(self.plan)) if shard not in down
        ]
        k = min(k, self.n_target)
        sources = np.array([source], dtype=np.int64)
        candidates_t: List[np.ndarray] = []
        candidates_s: List[np.ndarray] = []
        for shard in survivors:
            start, _ = self.plan[shard]
            targets, scores = self._shard_refs[shard].top_k(sources, k=k)
            candidates_t.append(targets[0] + start)
            candidates_s.append(scores[0])
        all_t = np.concatenate(candidates_t)
        all_s = np.concatenate(candidates_s)
        order = np.lexsort((all_t, -all_s))[: min(k, all_t.size)]
        top_t, top_s = all_t[order], all_s[order]
        finite = np.isfinite(top_s)
        return (
            tuple(int(t) for t in top_t[finite]),
            tuple(float(s) for s in top_s[finite]),
        )

    # -- fault plan -----------------------------------------------------
    def plan_faults(
        self, rounds: int, num_faults: int, kinds: Optional[Sequence[str]] = None
    ) -> FaultInjector:
        """A seeded fault schedule: ``num_faults`` faults over ``rounds``.

        Only kinds the harness can actually deliver are planned:
        shard faults need ``index.inject_fault``, disconnects need
        ``server_url``, swap faults need ``bad_artifact_path``.
        """
        available = []
        if hasattr(self.frontdoor.index, "inject_fault"):
            available += ["shard_kill", "shard_delay"]
        if self.server_url is not None:
            available.append("client_disconnect")
        if self.bad_artifact_path is not None:
            available += ["artifact_corrupt", "swap_fail"]
        if kinds is not None:
            unknown = set(kinds) - set(SERVING_FAULT_KINDS)
            if unknown:
                raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
            available = [kind for kind in available if kind in kinds]
        if not available:
            raise ValueError(
                "no deliverable fault kinds: need a sharded index, a "
                "server_url, or a bad_artifact_path"
            )
        rng = random.Random(self.seed ^ 0x5EED)
        faults = [
            Fault(
                rng.choice(available),
                step=rng.randrange(rounds),
                shard=rng.randrange(max(1, len(self.plan))),
                delay_s=0.05 + 0.05 * rng.random(),
            )
            for _ in range(num_faults)
        ]
        return FaultInjector(faults, registry=self.registry)

    # -- fault delivery -------------------------------------------------
    def _deliver(self, fault: Fault, report: ChaosReport) -> None:
        report.faults[fault.kind] = report.faults.get(fault.kind, 0) + 1
        if fault.kind in ("shard_kill", "shard_delay"):
            shard = (fault.shard or 0) % max(1, len(self.plan))
            self.frontdoor.index.inject_fault(
                fault.kind, shard=shard, delay_s=fault.delay_s
            )
        elif fault.kind == "client_disconnect":
            self._drop_connection()
        elif fault.kind in ("artifact_corrupt", "swap_fail"):
            self._bad_swap(fault.kind, report)

    def _drop_connection(self) -> None:
        """Open a connection to the server and hang up mid-request."""
        from urllib.parse import urlsplit

        parsed = urlsplit(self.server_url)
        with socket.create_connection(
            (parsed.hostname, parsed.port), timeout=2.0
        ) as sock:
            sock.sendall(b"GET /query?source=0&k=1 HTTP/1.1\r\n")
            # No terminating blank line, no read: just vanish.

    def _bad_swap(self, kind: str, report: ChaosReport) -> None:
        """Attempt a doomed hot swap; it must fail without taking the
        serving engine down (verified by the queries that follow)."""
        request_id = mint_request_id()
        before = self.frontdoor.fingerprint
        try:
            self.frontdoor.reload(self.bad_artifact_path)
        except Exception as error:
            # The *required* outcome: the swap fails loudly and the old
            # engine keeps serving.  Taxonomy is asserted by the artifact
            # tests; here we record the rejection and verify liveness.
            self._registry().increment("resilience.chaos.swaps_rejected")
            self._registry().emit(
                "resilience.chaos.swap_rejected",
                {"kind": kind, "error": str(error)},
            )
        else:
            report.violations.append({
                "kind": kind,
                "request_id": request_id,
                "error": "reload of a bad artifact unexpectedly succeeded",
            })
            return
        if self.frontdoor.fingerprint != before:
            report.violations.append({
                "kind": kind,
                "request_id": request_id,
                "error": "failed reload still swapped the engine",
            })

    # -- verification ---------------------------------------------------
    def _check(
        self,
        source: int,
        k: int,
        result,
        report: ChaosReport,
        request_id: Optional[str] = None,
    ) -> None:
        request_id = request_id or getattr(result, "request_id", "") or None
        down = tuple(result.shards_down)
        if result.degraded:
            covered = sum(
                stop - start
                for shard, (start, stop) in enumerate(self.plan)
                if shard not in set(down)
            )
            if not down or abs(result.coverage - covered / self.n_target) > 1e-12:
                report.violations.append({
                    "kind": "inaccurate_coverage",
                    "request_id": request_id,
                    "source": source, "k": k,
                    "coverage": result.coverage,
                    "shards_down": list(down),
                })
                return
        elif down or result.coverage != 1.0:
            report.violations.append({
                "kind": "undeclared_degradation",
                "request_id": request_id,
                "source": source, "k": k,
                "coverage": result.coverage,
                "shards_down": list(down),
            })
            return
        expected_t, expected_s = self.expected(source, k, shards_down=down)
        if result.targets != expected_t or result.scores != expected_s:
            report.violations.append({
                "kind": "wrong_answer",
                "request_id": request_id,
                "source": source, "k": k,
                "degraded": result.degraded,
                "got": [list(result.targets), list(result.scores)],
                "want": [list(expected_t), list(expected_s)],
            })
            return
        if result.degraded:
            report.degraded_ok += 1
        else:
            report.correct += 1

    def _query_once(
        self, rng: random.Random, k_max: int, report: ChaosReport
    ) -> None:
        source = rng.randrange(self.n_source)
        k = 1 + rng.randrange(k_max)
        # One correlation id per query: a violation's request_id greps
        # straight to the front-door and shard log lines that served it.
        request_id = mint_request_id()
        deadline_s = None
        if self.deadline_ms and rng.random() < 0.5:
            deadline_s = time.monotonic() + self.deadline_ms / 1e3
        report.queries += 1
        try:
            result = self.frontdoor.query(
                source, k, deadline_s=deadline_s, request_id=request_id
            )
        except DeadlineExceededError as error:
            status = status_for_error(error)
            report.typed_errors[status] = (
                report.typed_errors.get(status, 0) + 1
            )
            return
        except Exception as error:
            status = status_for_error(error)
            if 400 <= status < 600 and status != 500:
                report.typed_errors[status] = (
                    report.typed_errors.get(status, 0) + 1
                )
            else:
                report.violations.append({
                    "kind": "untyped_error",
                    "request_id": request_id,
                    "source": source, "k": k,
                    "error": f"{type(error).__name__}: {error}",
                })
            return
        self._check(source, k, result, report, request_id=request_id)

    # -- the run --------------------------------------------------------
    def run(
        self,
        rounds: int = 200,
        queries_per_round: int = 4,
        num_faults: int = 10,
        k_max: int = 5,
        kinds: Optional[Sequence[str]] = None,
        max_recovery_s: float = 10.0,
        injector: Optional[FaultInjector] = None,
    ) -> ChaosReport:
        """Drive the tier and verify every response; returns the report.

        ``rounds`` query rounds run with faults from the seeded plan
        (``injector`` overrides it) firing between rounds; afterwards a
        recovery phase queries without faults until full coverage
        returns (bounded by ``max_recovery_s`` — exceeding it fails the
        report's ``recovered`` flag, the "bounded recovery" half of the
        chaos invariant).
        """
        report = ChaosReport(seed=self.seed)
        registry = self._registry()
        if injector is None:
            injector = self.plan_faults(rounds, num_faults, kinds=kinds)
        rng = random.Random(self.seed)
        for round_index in range(rounds):
            report.rounds += 1
            for fault in injector.serving_faults_at(round_index):
                self._deliver(fault, report)
            for _ in range(queries_per_round):
                self._query_once(rng, k_max, report)
        # Recovery: no new faults; breakers must probe their shards back
        # closed and answers must return to full coverage.
        recovery_deadline = time.monotonic() + max_recovery_s
        while time.monotonic() < recovery_deadline:
            report.recovery_rounds += 1
            healthy = True
            for _ in range(queries_per_round):
                before = len(report.violations)
                source = rng.randrange(self.n_source)
                k = 1 + rng.randrange(k_max)
                request_id = mint_request_id()
                report.queries += 1
                try:
                    result = self.frontdoor.query(
                        source, k, request_id=request_id
                    )
                except Exception as error:
                    status = status_for_error(error)
                    report.typed_errors[status] = (
                        report.typed_errors.get(status, 0) + 1
                    )
                    healthy = False
                    continue
                self._check(source, k, result, report, request_id=request_id)
                if result.degraded or len(report.violations) > before:
                    healthy = False
            if healthy:
                health = getattr(self.frontdoor, "health", None)
                if health is None or not health().get("degraded", False):
                    report.recovered = True
                    break
            time.sleep(0.02)  # give open breakers time to probe
        registry.emit("resilience.chaos.report", report.payload())
        registry.increment("resilience.chaos.runs")
        if report.violations:
            registry.increment(
                "resilience.chaos.violations", len(report.violations)
            )
        return report
