"""The benchmark's four workloads; ``run.py`` runs each in a fresh process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --out DIR [--toy]

prints one JSON record as its only line of standard output.  The record
holds the end-to-end metrics (always measured with tracing off), the
per-layer metrics (traced runs only), every correctness gate with its
outcome, and the attempted/failed counts.

Workloads (all closed loop, one caller, at most one connection):

* ``train-eager`` / ``train-compiled`` — GAlign on an Allmovie-Imdb-like
  pair: ``GAlignTrainer.train`` → ``AlignmentRefiner.refine`` →
  ``evaluate_alignment``, repeated for the run's seconds.  Eager
  autograd dominates the first; the float32 tape replay the second.
* ``serve-lone`` — one keep-alive HTTP connection querying
  ``AlignmentServer(FrontDoor(QueryEngine))`` one request at a time:
  the HTTP, front-door and microbatch-window layers dominate.
* ``serve-batch`` — ``QueryEngine.query_many`` over every source in
  chunks, exact then ANN: the index and the ANN prober dominate.

A traced run splits its seconds in two: the first half is measured with
tracing off (the end-to-end numbers and the tracing overhead's base),
the second half with every layer wrapped by :class:`spans.SpanRecorder`.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

from harness import ROOT, load_spec, metric_specs, percentile, supported_percentile  # noqa: E402
from spans import NO_SPANS, SpanRecorder  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.autograd import Adam  # noqa: E402
from repro.autograd.tape import Tape  # noqa: E402
from repro.autograd.tensor import Tensor  # noqa: E402
from repro.core import GAlignConfig  # noqa: E402
from repro.core import refine as refine_module  # noqa: E402
from repro.core import trainer as trainer_module  # noqa: E402
from repro.core import training_loop  # noqa: E402
from repro.core.augment import GraphAugmenter  # noqa: E402
from repro.core.model import MultiOrderGCN  # noqa: E402
from repro.core.refine import AlignmentRefiner  # noqa: E402
from repro.core.trainer import GAlignTrainer  # noqa: E402
from repro.graphs.datasets import allmovie_imdb_like  # noqa: E402
from repro.metrics import evaluate_alignment  # noqa: E402
from repro.observability import (  # noqa: E402
    MetricsRegistry,
    current_request_id,
    use_registry,
    validate_chrome_trace,
)
from repro.resilience import RecoveryManager  # noqa: E402
from repro.serving import (  # noqa: E402
    AlignmentIndex,
    AlignmentServer,
    AnnIndex,
    FrontDoor,
    QueryEngine,
    export_artifact,
    load_artifact,
)

WORKLOADS = ("train-eager", "train-compiled", "serve-lone", "serve-batch")

#: Answers per query in both serving workloads.
K = 10
#: Share of serve-lone queries drawn from the hot set (cache hits).
HOT_SHARE = 0.3
#: serve-lone cache capacity: holds the hot set between its reuses, so
#: the hit ratio does not drift with how many queries a run completes.
LONE_CACHE = 512
#: Artifact geometry: layers × dims, uniform layer weights θ(l).
LAYERS, DIM, COMPONENTS = 3, 64, 64
WEIGHTS = [1.0 / LAYERS] * LAYERS


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``toy`` the self-test."""

    train_scale: float
    train_overrides: dict
    warmup_epochs: int
    map_floor: float
    auc_floor: float
    lone_nodes: int
    hot: int
    warm_http: int
    batch_sources: int
    batch_targets: int
    clusters: int
    chunk: int
    setups: int
    lone_setups: int


SIZES = {
    # 601/571 nodes, GAlignConfig defaults; serving sizes per workload doc.
    "full": Size(
        train_scale=0.1, train_overrides={}, warmup_epochs=3,
        map_floor=0.85, auc_floor=0.99,
        lone_nodes=2000, hot=64, warm_http=20,
        batch_sources=2000, batch_targets=20000, clusters=64, chunk=256,
        setups=3, lone_setups=9,
    ),
    "toy": Size(
        train_scale=0.02,
        train_overrides={
            "epochs": 5, "embedding_dim": 16, "refinement_iterations": 2,
        },
        warmup_epochs=2, map_floor=0.0, auc_floor=0.0,
        lone_nodes=200, hot=16, warm_http=3,
        batch_sources=200, batch_targets=1000, clusters=8, chunk=64,
        setups=2, lone_setups=2,
    ),
}


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    out_dir: str
    gates: List[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    details: dict = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None

    @property
    def window(self) -> float:
        """Seconds each measured phase runs (a traced run has two)."""
        return self.seconds / 2 if self.trace else self.seconds

    @property
    def work_dir(self) -> str:
        return os.path.join(self.out_dir, f"{self.workload}.work")

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append({"name": name, "ok": bool(ok), "detail": detail})


def collected(step: Callable[[], object]) -> object:
    """``step()`` after a full collection, so that a step never pays for
    its predecessor's cyclic garbage and peak RSS does not depend on how
    many steps ran before."""
    gc.collect()
    return step()


def repeat_for(seconds: float, step: Callable[[], object]) -> list:
    """Closed loop: call ``step`` until ``seconds`` have passed (at least
    once)."""
    results: list = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results.append(collected(step))
    return results


def latency_summary(samples_ms: List[float]) -> dict:
    """A step's latency: p10, p50 and p90, the sample count behind them
    and the highest percentile that count supports (the percentile rule).
    p10 is the end-to-end metric: other tenants of the machine slow
    stretches of a run by up to a third, which moves the upper
    percentiles most; the minimum would be steadier still but catches
    rare outliers, such as a serve-lone request that escapes the
    keep-alive stall."""
    return {
        "p10_ms": percentile(samples_ms, 10),
        "p50_ms": percentile(samples_ms, 50),
        "p90_ms": percentile(samples_ms, 90),
        "samples": len(samples_ms),
        "highest_supported_percentile": supported_percentile(len(samples_ms)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
@dataclass
class AlignJob:
    """One train → refine → evaluate pass and its timestamps."""

    start: float
    epoch_ends: List[float]
    train_end: float
    refine_end: float
    end: float
    losses: List[float]
    map: float
    auc: float
    recoveries: int
    refine_iterations: int

    @property
    def setup_s(self) -> float:
        """``train()`` entry to the epoch-0 ``trainer.epoch`` event."""
        return self.epoch_ends[0] - self.start

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def epoch_ms(self) -> List[float]:
        """Wall time of epochs 1.. (event to event); epoch 0 is set-up."""
        ends = self.epoch_ends
        return [(b - a) * 1e3 for a, b in zip(ends, ends[1:])]


def epoch_clock(registry: MetricsRegistry) -> List[float]:
    """A list that gets the time of every ``trainer.epoch`` event."""
    epoch_ends: List[float] = []

    def on_event(event: str, _payload: dict) -> None:
        if event == "trainer.epoch":
            epoch_ends.append(time.perf_counter())

    registry.add_hook(on_event)
    return epoch_ends


def train_setup_s(pair, config: GAlignConfig) -> float:
    """Set-up time of a one-epoch ``train()``: entry to the epoch-0 event."""
    registry = MetricsRegistry()
    epoch_ends = epoch_clock(registry)
    with use_registry(registry):
        trainer = GAlignTrainer(
            replace(config, epochs=1), np.random.default_rng(config.seed),
            registry=registry,
        )
        start = time.perf_counter()
        trainer.train(pair)
    return epoch_ends[0] - start


def align_job(pair, config: GAlignConfig, spans) -> AlignJob:
    registry = MetricsRegistry()
    epoch_ends = epoch_clock(registry)
    with use_registry(registry):
        trainer = GAlignTrainer(
            config, np.random.default_rng(config.seed), registry=registry
        )
        start = time.perf_counter()
        model, log = trainer.train(pair)
        train_end = time.perf_counter()
        scores, refinement = AlignmentRefiner(
            config, registry=registry
        ).refine(pair, model)
        refine_end = time.perf_counter()
        with spans.span("eval"):
            report = evaluate_alignment(scores, pair.groundtruth)
        end = time.perf_counter()
    recoveries = registry.snapshot("resilience").get(
        "resilience.recoveries", {}
    ).get("value", 0)
    return AlignJob(
        start=start, epoch_ends=epoch_ends, train_end=train_end,
        refine_end=refine_end, end=end, losses=list(log.total),
        map=report.map, auc=report.auc, recoveries=int(recoveries),
        refine_iterations=len(refinement.quality),
    )


#: Layers wrapped in a traced training run: span name → lookup sites.
#: Module globals are patched where the caller looks them up.
TRAIN_SITES = {
    "graphs.setup": [
        (trainer_module, "propagation_matrix"),
        (GraphAugmenter, "augment"),
    ],
    "core.forward": [
        (MultiOrderGCN, "forward"),
        (trainer_module, "consistency_loss"),
        (trainer_module, "adaptivity_loss"),
        (trainer_module, "combined_loss"),
    ],
    "tape.loss": [(training_loop.CompiledLoss, "__call__")],
    "tape.replay": [(Tape, "replay")],
    "autograd.backward": [(Tensor, "backward")],
    "optim.clip": [(training_loop, "clip_grad_norm")],
    "optim.step": [(Adam, "step")],
    "recovery": [(RecoveryManager, "check"), (RecoveryManager, "commit")],
    "recovery.recover": [(RecoveryManager, "recover")],
    "refine.embed": [
        (refine_module, "weighted_propagation_matrix"),
        (MultiOrderGCN, "embed"),
    ],
    "refine.align": [
        (refine_module, "layerwise_alignment_matrices"),
        (refine_module, "aggregate_alignment"),
        (refine_module, "alignment_quality"),
        (refine_module, "find_stable_nodes"),
    ],
}

#: Per-epoch layer metrics and the top-level spans they sum.
EPOCH_LAYERS = {
    "core.forward_ms": "core.forward",
    "autograd.backward_ms": "autograd.backward",
    "optim.clip_ms": "optim.clip",
    "optim.step_ms": "optim.step",
    "recovery.ms": "recovery",
}


def install_sites(recorder: SpanRecorder, sites: dict) -> None:
    for name, owners in sites.items():
        for owner, attr in owners:
            recorder.wrap(owner, attr, name)


def train_layers(recorder: SpanRecorder, jobs: List[AlignJob]) -> dict:
    """Per-layer metrics of the traced jobs (medians over epochs 1..)."""
    top_level = [
        name for name in TRAIN_SITES if name != "recovery.recover"
    ] + ["eval"]
    per_epoch: Dict[str, List[float]] = {
        key: [] for key in (*EPOCH_LAYERS, "tape.replay_ms", "other_ms")
    }
    covered_total = wall_total = 0.0
    for job in jobs:
        for a, b in zip(job.epoch_ends, job.epoch_ends[1:]):
            for key, name in EPOCH_LAYERS.items():
                per_epoch[key].append(
                    recorder.total_ms(name, a, b, top_level=True)
                )
            per_epoch["tape.replay_ms"].append(
                recorder.total_ms("tape.replay", a, b)
            )
            covered = recorder.total_ms(top_level, a, b, top_level=True)
            wall = (b - a) * 1e3
            per_epoch["other_ms"].append(wall - covered)
            covered_total += covered
            wall_total += wall
    capture = []
    for job in jobs:
        first = recorder.named("tape.loss", job.start, job.epoch_ends[0])
        capture.append(first[0].duration * 1e3 if first else 0.0)
    layers = {key: median(values) for key, values in per_epoch.items()}
    layers["train.epoch_other_ms"] = layers.pop("other_ms")
    layers.update({
        "train.coverage": covered_total / wall_total if wall_total else 0.0,
        "graphs.setup_ms": median(
            recorder.total_ms("graphs.setup", j.start, j.epoch_ends[0])
            for j in jobs
        ),
        "tape.capture_ms": median(capture),
        "recovery.rollbacks": float(sum(
            len(recorder.named("recovery.recover", j.start, j.end))
            for j in jobs
        )),
        "refine.embed_ms": median(
            recorder.total_ms("refine.embed", j.train_end, j.refine_end,
                              top_level=True)
            for j in jobs
        ),
        "refine.align_ms": median(
            recorder.total_ms("refine.align", j.train_end, j.refine_end,
                              top_level=True)
            for j in jobs
        ),
        "refine.iterations": median(j.refine_iterations for j in jobs),
        "eval.ms": median(
            recorder.total_ms("eval", j.refine_end, j.end) for j in jobs
        ),
    })
    return layers


def train_workload(run: Run, compiled: bool) -> Tuple[dict, Optional[dict]]:
    size = run.size
    pair = allmovie_imdb_like(
        np.random.default_rng(run.seed), scale=size.train_scale
    )
    config = GAlignConfig(
        seed=run.seed, compile=compiled, **size.train_overrides
    )
    align_job(pair, replace(config, epochs=size.warmup_epochs), NO_SPANS)
    setups = [
        collected(lambda: train_setup_s(pair, config))
        for _ in range(size.setups)
    ]

    untraced = repeat_for(
        run.window, lambda: align_job(pair, config, NO_SPANS)
    )
    traced: List[AlignJob] = []
    if run.trace:
        with run.recorder:
            install_sites(run.recorder, TRAIN_SITES)
            traced = repeat_for(
                run.window, lambda: align_job(pair, config, run.recorder)
            )

    jobs = untraced + traced
    run.attempted = sum(len(j.losses) + j.recoveries for j in jobs)
    run.failed = sum(j.recoveries for j in jobs)
    run.gate(
        "losses finite",
        all(np.all(np.isfinite(j.losses)) for j in jobs),
    )
    run.gate(
        f"MAP >= {size.map_floor} and AUC >= {size.auc_floor}",
        all(j.map >= size.map_floor and j.auc >= size.auc_floor
            for j in jobs),
        f"lowest MAP {min(j.map for j in jobs):.4f}, "
        f"lowest AUC {min(j.auc for j in jobs):.4f}",
    )
    run.gate(
        "every run reproduces the first run's losses, MAP and AUC bitwise"
        + (" (traced and untraced)" if traced else ""),
        all((j.losses, j.map, j.auc) == (jobs[0].losses, jobs[0].map,
                                         jobs[0].auc) for j in jobs),
    )

    latency = latency_summary(
        [ms for job in untraced for ms in job.epoch_ms()]
    )
    best_align_s = min(j.wall_s for j in untraced)
    end_to_end = {
        "setup_s": median(setups + [j.setup_s for j in untraced]),
        "p10_ms": latency["p10_ms"],
        "best_throughput_per_s": pair.source.num_nodes / best_align_s,
        "quality": median(j.map for j in untraced),
    }
    run.details.update({
        "step": "training epoch (epochs 1.. of every job)",
        **latency,
        "throughput_is": "source nodes aligned per second, fastest job",
        "quality_is": "MAP against the ground truth",
        "jobs": len(untraced),
        "best_align_s": best_align_s,
        "align_s": median(j.wall_s for j in untraced),
        "map": median(j.map for j in untraced),
        "auc": median(j.auc for j in untraced),
        "nodes": [pair.source.num_nodes, pair.target.num_nodes],
        "edges": [pair.source.num_edges, pair.target.num_edges],
    })
    if not traced:
        return end_to_end, None
    layers = train_layers(run.recorder, traced)
    layers["trace.overhead_ratio"] = (
        min(j.wall_s for j in traced) / best_align_s - 1.0
    )
    run.details["traced_jobs"] = len(traced)
    return end_to_end, layers


# ----------------------------------------------------------------------
# Serving inputs and reference answers
# ----------------------------------------------------------------------
def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def planted_embeddings(
    rng: np.random.Generator, n_source: int, n_target: int,
    spread: float = 0.6, noise: float = 0.3,
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Per-layer source/target embeddings of an alignment artifact.

    Every node is a draw from a seeded 64-component Gaussian mixture,
    passed through tanh and L2-normalised per layer.  Source ``i``'s
    counterpart is target ``planted[i]``: a noisy copy of its pre-tanh
    vector, so answers have a ground truth like a trained GAlign export.
    """
    centers = rng.standard_normal((LAYERS, COMPONENTS, DIM))
    source_comp = rng.integers(COMPONENTS, size=n_source)
    target_comp = rng.integers(COMPONENTS, size=n_target)
    planted = rng.permutation(n_target)[:n_source]
    target_comp[planted] = source_comp
    source, target = [], []
    for layer in range(LAYERS):
        source_raw = centers[layer, source_comp] + spread * (
            rng.standard_normal((n_source, DIM))
        )
        target_raw = centers[layer, target_comp] + spread * (
            rng.standard_normal((n_target, DIM))
        )
        target_raw[planted] = source_raw + noise * (
            rng.standard_normal((n_source, DIM))
        )
        source.append(_unit_rows(np.tanh(source_raw)))
        target.append(_unit_rows(np.tanh(target_raw)))
    return source, target, planted


def reference_top_k(source, target, sources: np.ndarray, k: int):
    """Brute-force numpy top-k: θ-weighted full score rows, ordered by
    descending score then ascending target id."""
    scores = sum(
        weight * (s_layer[sources] @ t_layer.T)
        for weight, s_layer, t_layer in zip(WEIGHTS, source, target)
    )
    ids = np.arange(scores.shape[1])
    answers = {}
    for row, node in enumerate(sources):
        order = np.lexsort((ids, -scores[row]))[:k]
        answers[int(node)] = (tuple(int(t) for t in order),
                              tuple(float(s) for s in scores[row, order]))
    return answers


def same_answer(answer: tuple, expected: tuple) -> bool:
    """Identical target ids and scores within 1e-9: the tolerance for
    answers computed in batches of another shape (BLAS may round the
    last bit differently)."""
    return answer[0] == expected[0] and np.allclose(
        answer[1], expected[1], rtol=0.0, atol=1e-9
    )


def check_reference(run: Run, answers: dict, reference: dict) -> None:
    bad = [
        node for node, expected in reference.items()
        if not same_answer(answers[node], expected)
    ]
    run.gate(
        f"exact answers of every 10th source equal brute force "
        f"({len(reference)} sources)",
        not bad, f"mismatched sources {bad[:5]}" if bad else "",
    )


def serving_sites(recorder: SpanRecorder) -> None:
    """Wrap the serving layers; request ids come from the handler thread."""
    recorder.wrap(FrontDoor, "query", "frontdoor.query",
                  rid=current_request_id)
    recorder.wrap(QueryEngine, "query", "engine.query",
                  rid=current_request_id)
    recorder.wrap(
        AlignmentIndex, "top_k", "index.top_k",
        args=lambda _self, sources, *a, **kw: {
            "rows": int(np.size(sources)),
        },
    )
    recorder.wrap(
        AnnIndex, "top_k",
        lambda *a, **kw: "ann.top_k" if kw.get("mode") == "ann" else None,
    )
    recorder.wrap(AlignmentIndex, "__init__", "index.build")
    recorder.wrap(AnnIndex, "__init__", "index.build")


def serving_setup(run: Run, build: Callable,
                  count: int) -> Tuple[object, list]:
    """Set up ``count`` times (traced in a traced run); return the last
    service and the per-setup ``{export_s, load_s, setup_s}`` timings."""
    recorder = run.recorder
    spans = NO_SPANS if recorder is None else recorder
    timings = []
    service = None
    with recorder or nullcontext():
        if recorder is not None:
            serving_sites(recorder)
        for _ in range(count):
            if service is not None:
                service.close()
            gc.collect()
            with spans.span("setup"):
                service, timing = build(spans)
            timings.append(timing)
    return service, timings


def counter_values(registry: MetricsRegistry, names) -> List[int]:
    snapshot = registry.snapshot("serving")
    return [int(snapshot.get(name, {}).get("value", 0)) for name in names]


def setup_layers(recorder: SpanRecorder) -> dict:
    return {
        "artifact.export_ms": median(
            s.duration * 1e3 for s in recorder.named("artifact.export")
        ),
        "artifact.load_ms": median(
            s.duration * 1e3 for s in recorder.named("artifact.load")
        ),
        "index.build_ms": median(
            s.duration * 1e3 for s in recorder.named("index.build")
        ),
    }


def export_and_load(run: Run, source, target, spans, registry,
                    **export_kwargs):
    path = os.path.join(run.work_dir, "artifact")
    started = time.perf_counter()
    with spans.span("artifact.export"):
        export_artifact(path, source, target, WEIGHTS, registry=registry,
                        **export_kwargs)
    exported = time.perf_counter()
    with spans.span("artifact.load"):
        artifact = load_artifact(path, verify="eager", registry=registry)
    loaded = time.perf_counter()
    return artifact, started, {
        "export_s": exported - started, "load_s": loaded - exported,
    }


# ----------------------------------------------------------------------
# serve-lone
# ----------------------------------------------------------------------
class LoneService:
    def __init__(self, front: FrontDoor, server: AlignmentServer) -> None:
        self.front = front
        self.server = server

    def close(self) -> None:
        self.server.shutdown()


class KeepAliveCaller:
    """One HTTP/1.1 connection, one request at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def get(self, source: int, rid: str, spans) -> Tuple[int, bytes, float]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30
            )
        with spans.span("client.request", rid=rid):
            started = time.perf_counter()
            try:
                with spans.span("client.send"):
                    self.conn.request(
                        "GET", f"/query?source={source}&k={K}",
                        headers={"X-Request-Id": rid},
                    )
                response = self.conn.getresponse()
                with spans.span("client.body"):
                    body = response.read()
            except (OSError, http.client.HTTPException):
                self.close()
                raise
            return response.status, body, time.perf_counter() - started

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def query_stream(seed: int, n: int, hot: int):
    """Seeded source ids: HOT_SHARE from a fixed hot set, the rest uniform
    over the other sources.  Returns the hot set and an endless iterator."""
    rng = np.random.default_rng([seed, 1])
    hot_set = rng.choice(n, size=hot, replace=False)
    cold = np.setdiff1d(np.arange(n), hot_set)

    def sources():
        while True:
            pool = hot_set if rng.random() < HOT_SHARE else cold
            yield int(pool[rng.integers(len(pool))])

    return hot_set, sources()


def lone_layers(recorder: SpanRecorder, responses: List[dict]) -> dict:
    """Per-request breakdown of the traced window (see bench/README.md)."""
    by_rid: Dict[str, dict] = {}
    top_k = recorder.named("index.top_k")
    for span in recorder.spans:
        if span.rid is not None and span.name in (
            "client.request", "frontdoor.query", "engine.query",
        ):
            by_rid.setdefault(span.rid, {})[span.name] = span
        elif span.name in ("client.send", "client.body"):
            by_rid.setdefault(span.parent.rid, {})[span.name] = span
    http_self, door_self, engine_self, waits = [], [], [], []
    covered = rtt_total = 0.0
    for response in responses:
        parts = by_rid.get(response["rid"], {})
        if not {"client.request", "frontdoor.query", "engine.query"} <= set(
            parts
        ):
            continue
        rtt = parts["client.request"].duration
        door = parts["frontdoor.query"].duration
        engine = parts["engine.query"]
        # One request is in flight, so the scorer-thread top_k call that
        # starts inside this engine.query span is the one answering it.
        answering = [
            s for s in top_k if engine.start <= s.start < engine.end
        ]
        wait = answering[0].start - engine.start if answering else 0.0
        scored = sum(s.duration for s in answering)
        http_self.append((rtt - door) * 1e3)
        door_self.append((door - engine.duration) * 1e3)
        engine_self.append((engine.duration - wait - scored) * 1e3)
        if answering:
            waits.append(wait * 1e3)
        covered += door + sum(
            parts[name].duration for name in ("client.send", "client.body")
            if name in parts
        )
        rtt_total += rtt
    topk_ms = [s.duration * 1e3 for s in top_k]
    rows = [s.args.get("rows", 0) for s in top_k]
    return {
        "http.self_ms": median(http_self),
        "frontdoor.self_ms": median(door_self),
        "engine.wait_ms": median(waits),
        "engine.self_ms": median(engine_self),
        "index.top_k_ms": median(topk_ms),
        "index.rows_per_call": median(rows),
        "serve.coverage": covered / rtt_total if rtt_total else 0.0,
    }


def serve_lone_workload(run: Run) -> Tuple[dict, Optional[dict]]:
    size = run.size
    n = size.lone_nodes
    source, target, planted = planted_embeddings(
        np.random.default_rng(run.seed), n, n
    )
    registry = MetricsRegistry()
    recorder = run.recorder

    def build(spans):
        artifact, started, timing = export_and_load(
            run, source, target, spans, registry
        )
        engine = QueryEngine.from_artifact(
            artifact, cache_size=LONE_CACHE, registry=registry
        )
        front = FrontDoor(engine, registry=registry)
        server = AlignmentServer(front, registry=registry).start()
        timing["setup_s"] = time.perf_counter() - started
        return LoneService(front, server), timing

    with use_registry(registry):
        service, setups = serving_setup(run, build, size.lone_setups)
        caller = KeepAliveCaller(service.server.port)
        try:
            hot_set, stream = query_stream(run.seed, n, size.hot)
            for node in hot_set:
                service.front.query(int(node), K)
            counter = iter(range(1 << 62))
            for _ in range(size.warm_http):
                caller.get(next(stream), f"warm-{next(counter)}", NO_SPANS)

            def window(spans) -> Tuple[List[dict], float]:
                responses: List[dict] = []
                gc.collect()
                started = time.perf_counter()
                while time.perf_counter() - started < run.window:
                    node = next(stream)
                    rid = f"{run.seed}-{next(counter)}"
                    run.attempted += 1
                    try:
                        status, body, rtt = caller.get(node, rid, spans)
                    except (OSError, http.client.HTTPException):
                        run.failed += 1
                        continue
                    if status != 200:
                        run.failed += 1
                    responses.append({
                        "source": node, "rid": rid, "status": status,
                        "rtt_ms": rtt * 1e3,
                        "payload": json.loads(body) if status == 200 else {},
                    })
                return responses, time.perf_counter() - started

            untraced, wall = window(NO_SPANS)
            traced: List[dict] = []
            if recorder is not None:
                blocks = ["serving.index.blocks_scored",
                          "serving.index.blocks_pruned"]
                before = counter_values(registry, blocks)
                with recorder:
                    serving_sites(recorder)
                    traced, traced_wall = window(recorder)
                after = counter_values(registry, blocks)
            answers = {
                result.source: (result.targets, result.scores)
                for result in service.front.engine.query_many(
                    [(node, K) for node in range(n)]
                )
            }
        finally:
            caller.close()
            service.close()
            shutil.rmtree(run.work_dir, ignore_errors=True)

    responses = untraced + traced
    run.gate(
        f"every response is a 200 ({len(responses)} responses)",
        run.attempted > 0 and all(r["status"] == 200 for r in responses)
        and len(responses) == run.attempted,
    )
    run.gate(
        "every response echoes its X-Request-Id",
        all(r["payload"].get("request_id") == r["rid"] for r in responses),
    )
    served = {
        r["rid"]: (tuple(r["payload"].get("targets", ())),
                   tuple(r["payload"].get("scores", ())))
        for r in responses
    }
    mismatched = [
        r["source"] for r in responses
        if not same_answer(served[r["rid"]], answers[r["source"]])
    ]
    run.gate(
        "every HTTP answer matches the in-process answer",
        not mismatched, f"sources {mismatched[:5]}" if mismatched else "",
    )
    first: Dict[int, tuple] = {}
    for r in responses:
        first.setdefault(r["source"], served[r["rid"]])
    run.gate(
        "a repeated source gets a bitwise-identical answer"
        + (" (traced and untraced)" if traced else ""),
        all(served[r["rid"]] == first[r["source"]] for r in responses),
    )
    check_reference(
        run, answers,
        reference_top_k(source, target, np.arange(0, n, 10), K),
    )

    latency = latency_summary([r["rtt_ms"] for r in untraced])
    end_to_end = {
        "setup_s": median(s["setup_s"] for s in setups),
        "p10_ms": latency["p10_ms"],
        "best_throughput_per_s": len(untraced) / wall,
        "quality": float(np.mean(
            [answers[node][0][0] == planted[node] for node in range(n)]
        )),
    }
    cached = [r["payload"].get("cached", False) for r in untraced]
    run.details.update({
        "step": "HTTP GET /query round trip on one keep-alive connection",
        **latency,
        "throughput_is": "queries answered per second, whole window",
        "export_s": median(s["export_s"] for s in setups),
        "load_s": median(s["load_s"] for s in setups),
        "cache_hit_ratio": float(np.mean(cached)) if cached else 0.0,
        "quality_is": "success@1 against the planted counterparts",
    })
    if recorder is None:
        return end_to_end, None
    layers = lone_layers(recorder, traced)
    layers.update(setup_layers(recorder))
    scored, pruned = (b - a for a, b in zip(before, after))
    layers.update({
        "engine.cache_hit_ratio": float(np.mean(
            [r["payload"].get("cached", False) for r in traced]
        )) if traced else 0.0,
        "index.prune_ratio": pruned / (scored + pruned)
        if scored + pruned else 0.0,
        "trace.overhead_ratio": end_to_end["best_throughput_per_s"]
        / (len(traced) / traced_wall) - 1.0,
    })
    return end_to_end, layers


# ----------------------------------------------------------------------
# serve-batch
# ----------------------------------------------------------------------
@dataclass
class BatchPass:
    """Every source once, exact then ANN, in seeded chunk order."""

    answers: Dict[str, dict]
    calls_ms: Dict[str, List[float]]
    sent: int
    full_calls: int

    def wall_s(self, mode: str) -> float:
        return sum(self.calls_ms[mode]) / 1e3

    def full_calls_ms(self, mode: str) -> List[float]:
        """Calls of a whole chunk; the last call of a pass may be short."""
        return self.calls_ms[mode][:self.full_calls]


def batch_pass(engine: QueryEngine, order: np.ndarray, chunk: int,
               spans) -> BatchPass:
    answers: Dict[str, dict] = {"exact": {}, "ann": {}}
    calls_ms: Dict[str, List[float]] = {"exact": [], "ann": []}
    for mode in ("exact", "ann"):
        for start in range(0, len(order), chunk):
            queries = [(int(node), K) for node in order[start:start + chunk]]
            with spans.span("client.batch", mode=mode):
                started = time.perf_counter()
                results = engine.query_many(queries, mode=mode)
                calls_ms[mode].append((time.perf_counter() - started) * 1e3)
            for result in results:
                answers[mode][result.source] = result
    return BatchPass(answers, calls_ms, sent=2 * len(order),
                     full_calls=len(order) // chunk)


def batch_layers(recorder: SpanRecorder) -> dict:
    batches = recorder.named("client.batch")
    exact_calls = recorder.named("index.top_k")
    ann_calls = recorder.named("ann.top_k")
    inner = exact_calls + ann_calls
    engine_self, covered, wall = [], 0.0, 0.0
    for batch in batches:
        scored = sum(
            s.duration for s in inner if batch.start <= s.start < batch.end
        )
        engine_self.append((batch.duration - scored) * 1e3)
        covered += scored
        wall += batch.duration
    return {
        "engine.self_ms": median(engine_self),
        "index.top_k_ms": median(s.duration * 1e3 for s in exact_calls),
        "index.rows_per_call": median(
            s.args.get("rows", 0) for s in exact_calls
        ),
        "ann.top_k_ms": median(s.duration * 1e3 for s in ann_calls),
        "serve.coverage": covered / wall if wall else 0.0,
    }


def serve_batch_workload(run: Run) -> Tuple[dict, Optional[dict]]:
    size = run.size
    n = size.batch_sources
    source, target, _ = planted_embeddings(
        np.random.default_rng(run.seed), n, size.batch_targets
    )
    registry = MetricsRegistry()
    recorder = run.recorder

    def build(spans):
        artifact, started, timing = export_and_load(
            run, source, target, spans, registry,
            ann_clusters=size.clusters,
        )
        engine = QueryEngine.from_artifact(
            artifact, batch_size=size.chunk, cache_size=1, registry=registry
        )
        timing["setup_s"] = time.perf_counter() - started
        return engine, timing

    order_rng = np.random.default_rng([run.seed, 2])
    counters = [
        "serving.index.blocks_scored", "serving.index.blocks_pruned",
        "serving.ann.candidates_rescored", "serving.ann.queries",
    ]
    with use_registry(registry):
        engine, setups = serving_setup(run, build, size.setups)
        n_clusters = engine.index.n_clusters
        try:
            warm = [(node, K) for node in range(min(100, n))]
            engine.query_many(warm)
            engine.query_many(warm, mode="ann")
            untraced = repeat_for(
                run.window,
                lambda: batch_pass(
                    engine, order_rng.permutation(n), size.chunk, NO_SPANS
                ),
            )
            traced: List[BatchPass] = []
            if recorder is not None:
                before = counter_values(registry, counters)
                with recorder:
                    serving_sites(recorder)
                    traced = repeat_for(
                        run.window,
                        lambda: batch_pass(
                            engine, order_rng.permutation(n), size.chunk,
                            recorder,
                        ),
                    )
                after = counter_values(registry, counters)
            # Same sources, same call shape, no cache: BLAS may round the
            # last bit differently for another batch shape.
            probe = np.arange(min(32, n))
            probe_exact = engine.index.top_k(probe, K)
            probe_all = engine.index.top_k(
                probe, K, mode="ann", nprobe=n_clusters
            )
        finally:
            engine.close()
            shutil.rmtree(run.work_dir, ignore_errors=True)

    passes = untraced + traced
    first = passes[0].answers
    results = [
        result for p in passes for mode in ("exact", "ann")
        for result in p.answers[mode].values()
    ]
    run.attempted = sum(p.sent for p in passes)
    run.failed = run.attempted - sum(
        1 for r in results
        if r.aligned and not r.degraded and len(r.targets) == K
    )
    run.gate(
        f"every query answered with {K} aligned, non-degraded targets",
        run.failed == 0 and len(results) == run.attempted,
    )

    def answer(result) -> tuple:
        return result.targets, result.scores

    exact = {node: answer(r) for node, r in first["exact"].items()}
    check_reference(
        run, exact,
        reference_top_k(source, target, np.arange(0, n, 10), K),
    )
    run.gate(
        f"nprobe = n_clusters ({n_clusters}) equals exact bitwise "
        f"on {probe.size} sources",
        all(np.array_equal(a, e) for a, e in zip(probe_all, probe_exact)),
    )
    run.gate(
        "every pass repeats the first pass's answers bitwise"
        + (" (traced and untraced)" if traced else ""),
        all(
            answer(r) == answer(first[mode][r.source])
            for p in passes for mode in ("exact", "ann")
            for r in p.answers[mode].values()
        ),
    )

    latency = latency_summary(
        [ms for p in untraced for ms in p.full_calls_ms("exact")]
    )
    recall = float(np.mean([
        len(set(first["ann"][node].targets) & set(first["exact"][node].targets))
        / K
        for node in range(n)
    ]))
    best_ann_s = min(p.wall_s("ann") for p in untraced)
    end_to_end = {
        "setup_s": median(s["setup_s"] for s in setups),
        "p10_ms": latency["p10_ms"],
        "best_throughput_per_s": n / best_ann_s,
        "quality": recall,
    }
    run.details.update({
        "step": f"exact query_many call of {size.chunk} queries",
        **latency,
        "passes": len(untraced),
        "exact_throughput_per_s": n / min(
            p.wall_s("exact") for p in untraced
        ),
        "throughput_is": "ANN queries per second, fastest pass",
        "quality_is": "ANN recall@10 against the exact answers",
        "export_s": median(s["export_s"] for s in setups),
        "load_s": median(s["load_s"] for s in setups),
    })
    if recorder is None:
        return end_to_end, None
    layers = batch_layers(recorder)
    layers.update(setup_layers(recorder))
    scored, pruned, candidates, ann_asked = (
        b - a for a, b in zip(before, after)
    )
    layers.update({
        "index.prune_ratio": pruned / (scored + pruned)
        if scored + pruned else 0.0,
        "ann.candidates_per_query": candidates / ann_asked
        if ann_asked else 0.0,
        "engine.cache_hit_ratio": float(np.mean(
            [r.cached for p in traced for m in ("exact", "ann")
             for r in p.answers[m].values()]
        )),
        "trace.overhead_ratio": min(p.wall_s("ann") for p in traced)
        / best_ann_s - 1.0,
    })
    return end_to_end, layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
RUNNERS = {
    "train-eager": lambda run: train_workload(run, compiled=False),
    "train-compiled": lambda run: train_workload(run, compiled=True),
    "serve-lone": serve_lone_workload,
    "serve-batch": serve_batch_workload,
}


def complete(values: dict, specs: Dict[str, dict]) -> dict:
    """Every declared metric, in spec order; a layer this workload does
    not exercise reads 0.  An undeclared name is a bug, not a result."""
    unknown = set(values) - set(specs)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {name: float(values.get(name, 0.0)) for name in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    source_dir = os.path.join(ROOT, "src")
    if not os.path.abspath(repro.__file__).startswith(source_dir + os.sep):
        raise SystemExit(f"repro was not imported from {source_dir}")
    spec = load_spec()
    os.makedirs(args.out, exist_ok=True)
    run = Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), size=SIZES["toy" if args.toy else "full"],
        out_dir=args.out,
        recorder=SpanRecorder() if args.trace else None,
    )
    end_to_end, layers = RUNNERS[args.workload](run)
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "toy": args.toy,
        "end_to_end": complete(end_to_end, metric_specs(spec, trace=False)),
    }
    if layers is not None:
        record["per_layer"] = complete(layers, metric_specs(spec, trace=True))
        trace_path = os.path.join(args.out, f"{run.workload}.trace.json")
        payload = run.recorder.chrome_trace()
        try:
            validate_chrome_trace(payload)
            valid = True
            detail = os.path.basename(trace_path)
        except ValueError as error:
            valid, detail = False, str(error)
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        run.gate("trace passes validate_chrome_trace", valid, detail)
    record.update({
        "correct": all(gate["ok"] for gate in run.gates),
        "attempted": run.attempted,
        "failed": run.failed,
        "gates": run.gates,
        "details": run.details,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
