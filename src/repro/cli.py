"""Command-line interface for the GAlign reproduction.

Subcommands
-----------
``align``
    Align a pair saved on disk (edge lists + attributes + optional ground
    truth, the format of :mod:`repro.graphs.io`) with any method, print
    metrics, and optionally write the predicted anchors.
``generate``
    Synthesize an alignment pair (Table II stand-ins or noisy copies of a
    generated network) into a directory for later ``align`` runs.
``stats``
    Print statistics of a saved pair (the Table II view of a dataset).
``compare``
    Run the full method roster (GAlign + the five paper baselines) on a
    saved pair and print a Table III-style comparison.  ``--workers N``
    fans the (method, repeat) grid out over a process pool with results
    identical to the serial run.
``tune``
    Grid-search GAlign hyper-parameters on a saved pair
    (``--grid field=v1,v2,...``, repeatable) and print the ranked
    configurations; ``--workers N`` evaluates candidates in parallel.
``export-artifact``
    Train (or load) a GAlign model on a saved pair and freeze its
    multi-order embeddings into a ``repro.artifact/v1`` serving artifact.
``serve``
    Serve an artifact over the JSON HTTP API (``/healthz``, ``/stats``,
    ``/query``, ``/admin/reload``) until interrupted.  ``--shards N``
    scores scatter-gather over a worker pool (bit-identical answers);
    ``--max-pending`` bounds in-flight queries (429 beyond it).
``reload``
    Hot-swap the artifact of a running ``serve`` instance with zero
    failed in-flight queries.
``status``
    One-screen operational snapshot of a running ``serve`` instance:
    health/coverage, request and error counts, latency percentiles,
    circuit-breaker states, SLO error budget, and the top slow queries.
``query``
    Answer alignment queries from an artifact in-process, or against a
    running ``serve`` instance via ``--url``; ``--timeout-ms`` puts a
    latency budget on every request (expired work is shed, not computed).
``verify-artifact``
    Rehash every byte of an artifact against its manifest digests; exit
    1 naming the corrupt file and byte offset on any damage.
``profile``
    Run a self-contained synthetic train → refine → query workload under
    the span tracer and per-op autograd profiler; emits a Chrome trace
    (``--trace-out``), a span-tree flame summary, and the per-op table.

Examples
--------
::

    python -m repro.cli generate --dataset douban --scale 0.05 --out /tmp/pair
    python -m repro.cli align --pair /tmp/pair --method galign --epochs 40
    python -m repro.cli stats --pair /tmp/pair
    python -m repro.cli export-artifact --pair /tmp/pair --out /tmp/artifact
    python -m repro.cli serve --artifact /tmp/artifact --port 8080
    python -m repro.cli query --artifact /tmp/artifact --source 3 --k 5
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from .base import AlignmentMethod
from .baselines import (
    BigAlign,
    CENALP,
    DeepLink,
    FINAL,
    IONE,
    NetAlign,
    PALE,
    REGAL,
    IsoRank,
)
from .core import GAlign, GAlignConfig, load_model, save_model
from .graphs import (
    douban_like,
    flickr_myspace_like,
    allmovie_imdb_like,
    generators,
    noisy_copy_pair,
    pair_statistics,
)
from .graphs.io import load_alignment_pair, save_alignment_pair, save_groundtruth
from .metrics import evaluate_alignment, top1_matching
from .observability import (
    MetricsRegistry,
    OpProfiler,
    Tracer,
    configure_logging,
    configure_logging_from_env,
    export_chrome_trace,
    format_op_table,
    format_span_tree,
    use_registry,
    use_tracer,
    write_bench_json,
)
from .resilience import validate_pair

__all__ = ["main", "build_parser"]

_DATASETS = {
    "douban": douban_like,
    "flickr": flickr_myspace_like,
    "allmovie": allmovie_imdb_like,
}


def _build_method(args: argparse.Namespace) -> AlignmentMethod:
    name = args.method.lower()
    if name == "galign":
        config = GAlignConfig(
            epochs=args.epochs,
            embedding_dim=args.dim,
            num_layers=args.layers,
            refinement_iterations=args.refinement_iterations,
            seed=args.seed,
            compile=getattr(args, "compile", False),
            compile_dtype=getattr(args, "compile_dtype", "float32"),
        )
        return GAlign(config)
    simple = {
        "regal": REGAL,
        "isorank": IsoRank,
        "final": FINAL,
        "bigalign": BigAlign,
        "netalign": NetAlign,
    }
    if name in simple:
        return simple[name]()
    if name == "pale":
        return PALE(dim=args.dim)
    if name == "ione":
        return IONE(dim=args.dim)
    if name == "cenalp":
        return CENALP(dim=args.dim)
    if name == "deeplink":
        return DeepLink(dim=args.dim)
    raise SystemExit(f"unknown method {args.method!r}")


def _cmd_align(args: argparse.Namespace) -> int:
    pair = load_alignment_pair(args.pair)
    # Fail fast on malformed inputs (NaN attributes, empty graphs, ...)
    # with an actionable GraphValidationError before any method runs.
    validate_pair(pair)
    rng = np.random.default_rng(args.seed)
    method = _build_method(args)

    wants_checkpointing = args.save_model or args.load_model or args.resume
    if wants_checkpointing and not isinstance(method, GAlign):
        raise SystemExit(
            "--save-model/--load-model/--resume only apply to the galign "
            f"method, not {args.method!r}"
        )
    if args.load_model and args.resume:
        raise SystemExit(
            "--load-model (skip training) and --resume (continue training) "
            "are mutually exclusive"
        )
    if args.load_model:
        # The checkpoint is self-describing: its stored config (layer
        # count, dims, refinement settings) replaces the CLI model flags.
        model, stored_config = load_model(args.load_model)
        method = GAlign(stored_config, pretrained_model=model)
        print(f"model    : loaded from {args.load_model}")
    if args.resume:
        resume_path = (
            args.resume if args.resume.endswith(".npz")
            else args.resume + ".npz"
        )
        method.checkpoint_path = resume_path
        method.checkpoint_every = args.checkpoint_every
        if os.path.exists(resume_path):
            method.resume_from = resume_path
            print(f"resume   : continuing from {resume_path}")

    supervision: Optional[Dict[int, int]] = None
    if method.requires_supervision and pair.groundtruth and args.supervision > 0:
        supervision, _ = pair.split_groundtruth(args.supervision, rng)

    # A fresh registry per invocation: every instrumented component below
    # (trainer, refiner, streaming) resolves the process registry at call
    # time, so the export contains exactly this run.  The tracer stays a
    # no-op unless --trace-out asks for spans.
    registry = MetricsRegistry()
    tracer = Tracer(enabled=bool(args.trace_out))
    with use_registry(registry), use_tracer(tracer):
        result = method.align(pair, supervision=supervision, rng=rng)
    if args.save_model:
        save_model(method.model, args.save_model)
        print(f"model    : saved to {args.save_model}")
    print(f"method   : {method.name}")
    print(f"pair     : {pair}")
    print(f"time     : {result.elapsed_seconds:.2f}s")
    if pair.groundtruth:
        report = evaluate_alignment(result.scores, pair.groundtruth)
        print(f"metrics  : {report}")
    if args.out:
        anchors = top1_matching(result.scores)
        save_groundtruth(anchors, args.out)
        print(f"anchors  : written to {args.out}")
    if args.metrics_out:
        run = {
            "command": "align",
            "method": method.name,
            "pair": pair.name,
            "seed": args.seed,
            "elapsed_seconds": result.elapsed_seconds,
        }
        write_bench_json(args.metrics_out, registry, run=run)
        print(f"bench    : written to {args.metrics_out}")
    if args.trace_out:
        payload = export_chrome_trace(args.trace_out, tracer)
        print(f"trace    : written to {args.trace_out} "
              f"({len(payload['traceEvents'])} events)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.dataset in _DATASETS:
        pair = _DATASETS[args.dataset](rng, scale=args.scale)
    elif args.dataset == "ba":
        graph = generators.barabasi_albert(
            args.nodes, m=2, rng=rng, feature_dim=args.features,
            feature_kind="degree",
        )
        pair = noisy_copy_pair(
            graph, rng,
            structure_noise_ratio=args.structure_noise,
            attribute_noise_ratio=args.attribute_noise,
            name="ba-noisy-copy",
        )
    else:
        raise SystemExit(
            f"unknown dataset {args.dataset!r} "
            f"(choose from {sorted(_DATASETS)} or 'ba')"
        )
    save_alignment_pair(pair, args.out)
    print(f"wrote {pair} to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .eval import ExperimentRunner, format_comparison_table
    from .eval.experiments import all_method_specs

    pair = load_alignment_pair(args.pair)
    validate_pair(pair)
    if not pair.groundtruth:
        raise SystemExit("compare needs ground truth (groundtruth.txt)")
    registry = MetricsRegistry()
    runner = ExperimentRunner(
        supervision_ratio=args.supervision,
        repeats=args.repeats,
        seed=args.seed,
        registry=registry,
        continue_on_error=args.keep_going,
        workers=args.workers,
    )
    with use_registry(registry):
        results = runner.run_pair(pair, all_method_specs())
    print(format_comparison_table({pair.name: results}))
    if args.metrics_out:
        run = {"command": "compare", **runner.run_manifest()}
        write_bench_json(args.metrics_out, registry, run=run)
        print(f"bench: written to {args.metrics_out}")
    return 0


def _parse_grid(specs: List[str]) -> Dict[str, List]:
    """Parse repeated ``--grid field=v1,v2,...`` options into a param grid."""
    import dataclasses

    valid = sorted(f.name for f in dataclasses.fields(GAlignConfig))
    grid: Dict[str, List] = {}

    def parse_value(token: str):
        for cast in (int, float):
            try:
                return cast(token)
            except ValueError:
                continue
        return token

    for spec in specs:
        name, _, values = spec.partition("=")
        name = name.strip()
        if not values:
            raise SystemExit(
                f"--grid {spec!r}: expected field=v1,v2,... "
            )
        if name not in valid:
            raise SystemExit(
                f"--grid {spec!r}: {name!r} is not a GAlignConfig field "
                f"(choose from {', '.join(valid)})"
            )
        if name in grid:
            raise SystemExit(f"--grid {spec!r}: {name!r} given twice")
        grid[name] = [parse_value(token.strip())
                      for token in values.split(",") if token.strip()]
        if not grid[name]:
            raise SystemExit(f"--grid {spec!r}: no values")
    return grid


def _cmd_tune(args: argparse.Namespace) -> int:
    from .eval import grid_search

    pair = load_alignment_pair(args.pair)
    validate_pair(pair)
    if not pair.groundtruth:
        raise SystemExit("tune needs ground truth (groundtruth.txt)")
    param_grid = _parse_grid(args.grid)
    base_config = GAlignConfig(
        epochs=args.epochs,
        embedding_dim=args.dim,
        num_layers=args.layers,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        results = grid_search(
            pair,
            param_grid,
            base_config=base_config,
            metric=args.metric,
            seed=args.seed,
            workers=args.workers,
        )
    shown = results[: args.top] if args.top else results
    print(f"pair     : {pair}")
    print(f"grid     : {sum(1 for _ in results)} candidates, "
          f"metric {args.metric}")
    for position, result in enumerate(shown, start=1):
        print(f"  #{position}  {result}")
    if args.metrics_out:
        best = results[0]
        run = {
            "command": "tune",
            "pair": pair.name,
            "metric": args.metric,
            "grid": {name: list(values)
                     for name, values in param_grid.items()},
            "best_overrides": best.overrides,
            "best_value": best.metric_value,
        }
        write_bench_json(args.metrics_out, registry, run=run)
        print(f"bench    : written to {args.metrics_out}")
    return 0


def _cmd_export_artifact(args: argparse.Namespace) -> int:
    from .core import GAlignTrainer
    from .serving import export_artifact, load_artifact

    pair = load_alignment_pair(args.pair)
    validate_pair(pair)
    registry = MetricsRegistry()
    with use_registry(registry):
        if args.load_model:
            model, config = load_model(args.load_model)
            print(f"model    : loaded from {args.load_model}")
        else:
            config = GAlignConfig(
                epochs=args.epochs,
                embedding_dim=args.dim,
                num_layers=args.layers,
                seed=args.seed,
            )
            trainer = GAlignTrainer(
                config, np.random.default_rng(args.seed)
            )
            model, _ = trainer.train(pair)
            print(f"model    : trained for {args.epochs} epochs")
        export_artifact(
            args.out,
            model.embed(pair.source),
            model.embed(pair.target),
            config.resolved_layer_weights(),
            config=config,
            pair_name=pair.name,
            ann_clusters=args.ann_clusters or None,
            ann_quantize=not args.no_quantize,
            ann_seed=args.seed,
            ann_quant_rows=args.quant_rows,
            registry=registry,
        )
    # Re-load (memory-mapped) so the export is validated before we report
    # success — a serve that fails later would be a worse failure mode.
    artifact = load_artifact(args.out, registry=registry)
    print(f"artifact : {args.out}")
    print(f"schema   : {artifact.manifest['schema']}")
    print(f"finger   : {artifact.fingerprint}")
    print(f"layers   : {artifact.num_layers} "
          f"(weights {artifact.layer_weights})")
    print(f"nodes    : {artifact.n_source} source, "
          f"{artifact.n_target} target")
    if artifact.ann_params:
        quantized = "int8" if artifact.ann_params.get("quantize") else "float"
        print(f"ann      : {artifact.ann_params['n_clusters']} clusters, "
              f"{quantized} inverted lists")
    if args.metrics_out:
        run = {"command": "export-artifact", "pair": pair.name,
               "artifact": args.out, "fingerprint": artifact.fingerprint}
        write_bench_json(args.metrics_out, registry, run=run)
        print(f"bench    : written to {args.metrics_out}")
    return 0


def _build_engine(
    args: argparse.Namespace,
    registry: MetricsRegistry,
    path: Optional[str] = None,
):
    """Build ``(artifact, engine)`` for ``path`` (default ``--artifact``).

    The engine comes from ``QueryEngine.from_artifact(shards=N)``:
    ``--shards N`` (N >= 2, serve only) scores scatter-gather on a
    sharded index — answers are bit-identical either way — and a v2
    artifact (exported with ``--ann-clusters``) additionally wires the
    ANN tier; ``--mode`` / ``--nprobe`` set the engine-default exactness
    knobs (per-request overrides ride the HTTP API).
    """
    from .serving import QueryEngine, load_artifact

    artifact = load_artifact(
        path or args.artifact,
        verify=getattr(args, "verify", None),
        registry=registry,
    )
    hedge_ms = getattr(args, "hedge_ms", 0.0)
    return artifact, QueryEngine.from_artifact(
        artifact,
        shards=getattr(args, "shards", 1),
        workers=getattr(args, "shard_workers", None),
        hedge_after_s=hedge_ms / 1e3 if hedge_ms else None,
        breaker_kwargs={
            "failure_threshold": getattr(args, "breaker_threshold", 3),
            "reset_timeout_s": getattr(args, "breaker_reset", 0.5),
        },
        target_block_size=args.block_size,
        prune=not args.no_prune,
        batch_size=args.batch_size,
        max_delay_ms=args.max_delay_ms,
        cache_size=args.cache_size,
        default_mode=getattr(args, "mode", "exact"),
        default_nprobe=getattr(args, "nprobe", 0) or None,
        slow_query_ms=getattr(args, "slow_query_ms", 250.0),
        registry=registry,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from .serving import AlignmentServer, FrontDoor

    # Structured JSON logging: explicit flags win, otherwise the
    # REPRO_LOG_LEVEL/REPRO_LOG_FILE environment hooks apply (how CI
    # captures serving logs as artifacts without touching the command).
    if args.log_level or args.log_file:
        configure_logging(
            level=args.log_level or "INFO", path=args.log_file or None
        )
    else:
        configure_logging_from_env()
    registry = MetricsRegistry()
    tracer = Tracer(enabled=bool(args.trace_out))
    artifact, engine = _build_engine(args, registry)

    def builder(path: str):
        # POST /admin/reload rebuilds with the same CLI engine options
        # (shards, block size, cache) over the new artifact directory.
        _, fresh = _build_engine(args, registry, path=path)
        return fresh

    front = FrontDoor(
        engine,
        max_pending=args.max_pending,
        builder=builder,
        drain_timeout_s=args.drain_timeout,
        registry=registry,
    )
    server = AlignmentServer(
        front, host=args.host, port=args.port, registry=registry,
        access_log=args.access_log,
    )
    with use_registry(registry), use_tracer(tracer):
        server.start()
        print(f"artifact : {args.artifact} ({artifact.fingerprint})")
        print(f"serving  : {server.url}")
        if getattr(artifact, "ann_params", None):
            print(f"ann      : {artifact.ann_params['n_clusters']} "
                  f"clusters (default mode {args.mode}, "
                  f"nprobe {args.nprobe or 'auto'})")
        if args.shards > 1:
            print(f"shards   : {engine.index.num_shards} "
                  f"(workers {engine.index._pool.workers or 'inline'})")
        print("routes   : /healthz /stats /metrics /query /admin/reload  "
              "(Ctrl-C to stop)")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("\nshutting down ...")
        finally:
            server.shutdown()
    if args.metrics_out:
        run = {
            "command": "serve",
            "artifact": args.artifact,
            "fingerprint": artifact.fingerprint,
        }
        write_bench_json(args.metrics_out, registry, run=run)
        print(f"bench    : written to {args.metrics_out}")
    if args.trace_out:
        payload = export_chrome_trace(args.trace_out, tracer)
        print(f"trace    : written to {args.trace_out} "
              f"({len(payload['traceEvents'])} events)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    if bool(args.artifact) == bool(args.url):
        raise SystemExit(
            "query needs exactly one of --artifact (in-process) or "
            "--url (remote serve instance)"
        )
    if args.metrics_out and args.url:
        raise SystemExit(
            "--metrics-out needs --artifact (in-process queries); a remote "
            "serve instance exposes its metrics at GET /metrics instead"
        )
    queries = [(source, args.k) for source in args.source]
    timeout_ms = max(0, args.timeout_ms)
    nprobe = args.nprobe or None
    if args.url:
        from .serving import HTTPClient

        payloads = HTTPClient(args.url).query_many(
            queries, deadline_ms=timeout_ms, mode=args.mode, nprobe=nprobe
        )
    else:
        from .serving import InProcessClient

        registry = MetricsRegistry()
        with use_registry(registry):
            _, engine = _build_engine(args, registry)
            with engine:
                payloads = InProcessClient(engine).query_many(
                    queries, deadline_ms=timeout_ms,
                    mode=args.mode, nprobe=nprobe,
                )
    for payload in payloads:
        print(json.dumps(payload, sort_keys=True))
    if args.metrics_out:
        run = {
            "command": "query",
            "artifact": args.artifact,
            "queries": len(queries),
            "k": args.k,
        }
        write_bench_json(args.metrics_out, registry, run=run)
        print(f"bench: written to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_reload(args: argparse.Namespace) -> int:
    from .serving import HTTPClient

    payload = HTTPClient(args.url).reload(args.artifact)
    print(f"reloaded : {args.artifact}")
    print(f"finger   : {payload.get('fingerprint')}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """One-screen operational snapshot of a running serve instance."""
    from .serving import HTTPClient

    client = HTTPClient(args.url)
    health = client.healthz()
    stats = client.stats()
    engine = stats.get("engine", {})
    metrics = stats.get("metrics", {})

    def metric_value(name: str) -> int:
        entry = metrics.get(name, {})
        return int(entry.get("value", entry.get("count", 0)) or 0)

    print(f"server   : {args.url}")
    print(f"finger   : {health.get('fingerprint', '?')}")
    state = "healthy" if health.get("healthy", True) else "UNHEALTHY"
    if health.get("degraded"):
        state += (
            f" (degraded, coverage {float(health.get('coverage', 0)):.1%},"
            f" shards down {health.get('shards_down', [])})"
        )
    print(f"status   : {state}")
    requests = metric_value("serving.http.requests")
    errors = metric_value("serving.http.errors")
    print(f"requests : {requests} http ({errors} errors), "
          f"{engine.get('queries', 0)} engine queries, "
          f"{metric_value('serving.frontdoor.rejected')} rejected, "
          f"{engine.get('deadline_shed', 0)} deadline-shed")
    latency = engine.get("latency_ms") or {}
    if latency.get("count"):
        print(f"latency  : p50 {latency.get('p50', 0):.2f}ms  "
              f"p99 {latency.get('p99', 0):.2f}ms  "
              f"max {latency.get('max', 0):.2f}ms  "
              f"({latency['count']} sampled)")
    cache = engine.get("cache") or {}
    if cache:
        print(f"cache    : {cache.get('size', 0)}/{cache.get('capacity', 0)} "
              f"entries, hit rate {float(cache.get('hit_rate') or 0):.1%}")
    breakers = health.get("shards") or []
    if breakers:
        states = ", ".join(
            f"shard[{index}]={snap.get('state', '?')}"
            for index, snap in enumerate(breakers)
        )
        print(f"breakers : {states}")
    slo = stats.get("slo") or {}
    if slo:
        budget = float(slo.get("error_budget_remaining", 1.0))
        burn = float(slo.get("burn_rate", 0.0))
        p99 = slo.get("p99_ms")
        p99_text = f"{p99:.2f}ms" if p99 is not None else "n/a"
        burning = "BURNING" if slo.get("burning") else "ok"
        print(f"slo      : availability "
              f"{float(slo.get('availability', 1.0)):.4%} "
              f"(target {float(slo.get('availability_target', 0)):.4%}), "
              f"budget {budget:.1%} left, burn rate {burn:.2f} [{burning}]")
        print(f"slo p99  : {p99_text} "
              f"(target {float(slo.get('p99_target_ms', 0)):.0f}ms, "
              f"met: {slo.get('p99_met', True)})")
    slow = engine.get("slow_queries") or {}
    top = slow.get("top") or []
    print(f"slow     : {slow.get('total', 0)} audited over "
          f"{float(slow.get('threshold_ms', 0)):.0f}ms")
    for entry in top:
        descriptor = entry.get("descriptor") or {}
        print(f"  {float(entry.get('latency_ms', 0)):8.2f}ms  "
              f"request_id={entry.get('request_id')}  "
              f"source={descriptor.get('source')} k={descriptor.get('k')} "
              f"degraded={entry.get('degraded', False)}")
    return 0


def _cmd_verify_artifact(args: argparse.Namespace) -> int:
    """Integrity-check an artifact: every byte of every array rehashed.

    Exit 0 with a per-array report when the artifact is intact; exit 1
    with the validation error (naming the corrupt file and byte offset)
    when it is not — usable as a pre-deploy gate.
    """
    from .resilience import ArtifactValidationError
    from .serving import verify_artifact

    registry = MetricsRegistry()
    with use_registry(registry):
        try:
            report = verify_artifact(args.artifact, registry=registry)
        except ArtifactValidationError as error:
            print(f"artifact : {args.artifact}")
            print("status   : CORRUPT")
            print(f"error    : {error}")
            return 1
    print(f"artifact : {report['path']}")
    print(f"finger   : {report['fingerprint']}")
    print(f"layers   : {report['num_layers']}")
    print(f"nodes    : {report['n_source']} source, "
          f"{report['n_target']} target")
    print(f"bytes    : {report['bytes']}")
    print(f"committed: {report['committed']}")
    for name, entry in sorted(report["arrays"].items()):
        print(f"array    : {name} ({entry['bytes']} bytes, "
              f"{entry['chunks']} chunk(s)) {entry['status']}")
    print("status   : ok")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile a self-contained train → refine → query workload.

    Generates a synthetic pair (no files needed), runs GAlign training
    under the per-op autograd profiler, refines, answers a burst of
    serving queries, then emits the Chrome trace, the span tree, and the
    per-op table.  The op-table coverage line reports how much of the
    traced forward+backward wall time the profiled ops account for.
    """
    from .core import AlignmentRefiner, GAlignTrainer
    from .serving import AlignmentIndex, QueryEngine

    rng = np.random.default_rng(args.seed)
    graph = generators.barabasi_albert(
        args.nodes, m=3, rng=rng, feature_dim=args.features,
        feature_kind="degree",
    )
    pair = noisy_copy_pair(
        graph, rng, structure_noise_ratio=0.05, name="profile-ba"
    )
    config = GAlignConfig(
        epochs=args.epochs,
        embedding_dim=args.dim,
        num_layers=args.layers,
        refinement_iterations=args.refinement_iterations,
        seed=args.seed,
        compile=args.compile,
        compile_dtype=args.compile_dtype,
    )
    registry = MetricsRegistry()
    tracer = Tracer()
    profiler = OpProfiler(tracer=tracer)
    with use_registry(registry), use_tracer(tracer):
        # The profiler observes training only: refinement and serving run
        # unobserved, so op-table coverage is measured against exactly
        # the forward/backward spans the ops were recorded under.
        with tracer.span("profile.train", epochs=config.epochs), \
                profiler.enabled():
            trainer = GAlignTrainer(config, np.random.default_rng(args.seed))
            model, _ = trainer.train(pair)
        with tracer.span(
            "profile.refine", iterations=config.refinement_iterations
        ):
            refiner = AlignmentRefiner(config, registry=registry)
            refiner.refine(pair, model)
        with tracer.span("profile.query", queries=args.queries):
            index = AlignmentIndex(
                model.embed(pair.source),
                model.embed(pair.target),
                config.resolved_layer_weights(),
                registry=registry,
            )
            with QueryEngine(
                index, fingerprint="profile", registry=registry
            ) as engine:
                for source in range(min(args.queries, pair.source.num_nodes)):
                    engine.query(source, k=args.k)
    print(format_span_tree(tracer, title="span tree"))
    print()
    print(format_op_table(profiler, title="per-op profile", limit=args.top))
    print()
    payload = export_chrome_trace(args.trace_out, tracer)
    print(f"trace    : written to {args.trace_out} "
          f"({len(payload['traceEvents'])} events)")
    traced = sum(
        span.duration for span in tracer.spans()
        if span.name in ("trainer.forward", "trainer.backward")
    )
    if traced:
        print(f"coverage : per-op table accounts for "
              f"{profiler.total_time() / traced:.1%} of traced "
              f"forward+backward time")
    if args.metrics_out:
        run = {
            "command": "profile",
            "nodes": args.nodes,
            "epochs": args.epochs,
            "seed": args.seed,
        }
        write_bench_json(args.metrics_out, registry, run=run)
        print(f"bench    : written to {args.metrics_out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    pair = load_alignment_pair(args.pair)
    summary = pair_statistics(pair)
    print(f"pair    : {summary['name']}")
    print(f"source  : {summary['source']}")
    print(f"target  : {summary['target']}")
    print(f"anchors : {summary['anchors']} "
          f"(source coverage {summary['anchor_coverage_source']:.1%}, "
          f"target coverage {summary['anchor_coverage_target']:.1%})")
    print(f"size ratio (target/source): {summary['size_ratio']:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GAlign network alignment (ICDE 2020 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    align = commands.add_parser("align", help="align a saved pair")
    align.add_argument("--pair", required=True, help="pair directory")
    align.add_argument("--method", default="galign",
                       help="galign | regal | isorank | final | pale | cenalp | "
                            "bigalign | ione | netalign | deeplink")
    align.add_argument("--epochs", type=int, default=50)
    align.add_argument("--dim", type=int, default=64)
    align.add_argument("--layers", type=int, default=2)
    align.add_argument("--refinement-iterations", type=int, default=10)
    align.add_argument("--supervision", type=float, default=0.1,
                       help="anchor fraction for supervised methods")
    align.add_argument("--seed", type=int, default=0)
    align.add_argument("--compile", action="store_true",
                       help="capture the training graph into a tape and "
                            "replay fused kernels each epoch (galign only)")
    align.add_argument("--compile-dtype", default="float32",
                       choices=("float32", "float64"),
                       help="tape replay precision: float32 is the fast "
                            "policy, float64 matches eager bitwise")
    align.add_argument("--out", help="write predicted anchors to this file")
    align.add_argument("--metrics-out",
                       help="write run metrics as a BENCH_*.json artifact")
    align.add_argument("--trace-out",
                       help="write a Chrome trace (chrome://tracing / "
                            "Perfetto) of the run's spans to this file")
    align.add_argument("--save-model",
                       help="write the trained model to this .npz checkpoint "
                            "(galign only)")
    align.add_argument("--load-model",
                       help="skip training and align with this .npz model "
                            "checkpoint (galign only)")
    align.add_argument("--resume",
                       help="v2 training-checkpoint path: training writes "
                            "checkpoints here and, if the file exists, "
                            "resumes from it (kill-safe; galign only)")
    align.add_argument("--checkpoint-every", type=int, default=1,
                       help="epochs between --resume checkpoint writes")
    align.set_defaults(handler=_cmd_align)

    generate = commands.add_parser("generate", help="synthesize a pair")
    generate.add_argument("--dataset", default="ba",
                          help="douban | flickr | allmovie | ba")
    generate.add_argument("--scale", type=float, default=0.1)
    generate.add_argument("--nodes", type=int, default=200)
    generate.add_argument("--features", type=int, default=16)
    generate.add_argument("--structure-noise", type=float, default=0.1)
    generate.add_argument("--attribute-noise", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    stats = commands.add_parser("stats", help="describe a saved pair")
    stats.add_argument("--pair", required=True, help="pair directory")
    stats.set_defaults(handler=_cmd_stats)

    compare = commands.add_parser(
        "compare", help="run the Table III roster on a saved pair"
    )
    compare.add_argument("--pair", required=True, help="pair directory")
    compare.add_argument("--supervision", type=float, default=0.1)
    compare.add_argument("--repeats", type=int, default=1)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--metrics-out",
                        help="write run metrics + manifest as BENCH_*.json")
    compare.add_argument("--keep-going", action="store_true",
                         help="record failing methods and continue the "
                              "roster instead of aborting the sweep")
    compare.add_argument("--workers", type=int, default=None,
                         help="process-pool width for the (method, repeat) "
                              "fan-out; 0 = serial, default reads "
                              "REPRO_WORKERS (results are identical)")
    compare.set_defaults(handler=_cmd_compare)

    tune = commands.add_parser(
        "tune", help="grid-search GAlign hyper-parameters on a saved pair"
    )
    tune.add_argument("--pair", required=True, help="pair directory")
    tune.add_argument("--grid", action="append", required=True,
                      help="field=v1,v2,... candidate values for one "
                           "GAlignConfig field (repeatable; the search "
                           "covers the Cartesian product)")
    tune.add_argument("--metric", default="Success@1",
                      help="ranking metric: Success@1 | Success@10 | "
                           "MAP | AUC")
    tune.add_argument("--epochs", type=int, default=50,
                      help="base config epochs (overridden by --grid)")
    tune.add_argument("--dim", type=int, default=64)
    tune.add_argument("--layers", type=int, default=2)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--top", type=int, default=0,
                      help="show only the N best configurations (0 = all)")
    tune.add_argument("--workers", type=int, default=None,
                      help="process-pool width for candidate evaluation; "
                           "0 = serial, default reads REPRO_WORKERS "
                           "(results are identical)")
    tune.add_argument("--metrics-out",
                      help="write run metrics + best config as BENCH_*.json")
    tune.set_defaults(handler=_cmd_tune)

    def add_engine_options(command: argparse.ArgumentParser) -> None:
        command.add_argument("--block-size", type=int, default=512,
                            help="targets scored per index block "
                                 "(pruning granularity)")
        command.add_argument("--no-prune", action="store_true",
                            help="disable norm-based candidate pruning "
                                 "(always score every target block)")
        command.add_argument("--batch-size", type=int, default=32,
                            help="max queries coalesced into one matmul")
        command.add_argument("--max-delay-ms", type=float, default=2.0,
                            help="longest a query waits for batch-mates")
        command.add_argument("--cache-size", type=int, default=4096,
                            help="LRU result-cache entries (0 disables)")
        command.add_argument("--verify", default=None,
                            choices=("eager", "lazy", "off"),
                            help="artifact integrity checking: eager "
                                 "(hash before serving), lazy (background "
                                 "thread; corruption fails queries once "
                                 "found), off")
        command.add_argument("--mode", default="exact",
                            choices=("exact", "ann"),
                            help="default query mode: exact top-k, or the "
                                 "ANN tier of a --ann-clusters artifact "
                                 "(per-request mode= overrides this)")
        command.add_argument("--nprobe", type=int, default=0,
                            help="default inverted lists probed per ANN "
                                 "query (0 = ~sqrt(n_clusters); "
                                 "n_clusters reproduces exact answers "
                                 "bitwise)")

    export = commands.add_parser(
        "export-artifact",
        help="freeze a trained model's embeddings into a serving artifact",
    )
    export.add_argument("--pair", required=True, help="pair directory")
    export.add_argument("--out", required=True, help="artifact directory")
    export.add_argument("--epochs", type=int, default=50)
    export.add_argument("--dim", type=int, default=64)
    export.add_argument("--layers", type=int, default=2)
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--load-model",
                        help="export from this .npz model checkpoint "
                             "instead of training")
    export.add_argument("--ann-clusters", type=int, default=0,
                        help="also train the IVF+int8 ANN tier with this "
                             "many k-means clusters and export as "
                             "repro.artifact/v2 (0 = v1, exact only)")
    export.add_argument("--no-quantize", action="store_true",
                        help="keep the ANN inverted lists unquantized "
                             "(float probe scan instead of int8)")
    export.add_argument("--quant-rows", type=int, default=None,
                        help="rows per int8 quantization block "
                             "(default 512)")
    export.add_argument("--metrics-out",
                        help="write run metrics as a BENCH_*.json artifact")
    export.set_defaults(handler=_cmd_export_artifact)

    serve = commands.add_parser(
        "serve", help="serve an artifact over the JSON HTTP API"
    )
    serve.add_argument("--artifact", required=True,
                       help="artifact directory from export-artifact")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8571,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--metrics-out",
                       help="write the registry as BENCH_*.json at shutdown")
    serve.add_argument("--trace-out",
                       help="write serving spans as a Chrome trace at "
                            "shutdown")
    serve.add_argument("--shards", type=int, default=1,
                       help="split the target matrix into N scatter-gather "
                            "shards (answers are bit-identical to --shards 1)")
    serve.add_argument("--shard-workers", type=int, default=None,
                       help="process-pool width for shard scoring; 0 = "
                            "inline, default reads REPRO_WORKERS")
    serve.add_argument("--hedge-ms", type=float, default=0.0,
                       help="duplicate a shard task still pending after "
                            "this many ms (0 disables; needs >= 2 workers)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="in-flight query bound; excess requests get "
                            "HTTP 429 instead of queueing unboundedly")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds a hot reload waits for in-flight "
                            "queries on the old artifact before closing it")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures that open a shard's "
                            "circuit breaker (sharded serving only)")
    serve.add_argument("--breaker-reset", type=float, default=0.5,
                       help="seconds before an open shard breaker lets a "
                            "probe through (doubles per re-trip)")
    serve.add_argument("--log-level", default=None,
                       help="enable structured JSON logging at this level "
                            "(DEBUG | INFO | WARNING | ERROR); default "
                            "reads REPRO_LOG_LEVEL/REPRO_LOG_FILE")
    serve.add_argument("--log-file", default=None,
                       help="append JSON log lines to this file instead of "
                            "stderr")
    serve.add_argument("--access-log", action="store_true",
                       help="also emit per-connection access-log lines as "
                            "structured DEBUG events")
    serve.add_argument("--slow-query-ms", type=float, default=250.0,
                       help="latency threshold for the slow-query audit "
                            "log (degraded answers are always audited)")
    add_engine_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    reload_cmd = commands.add_parser(
        "reload",
        help="hot-swap the artifact of a running serve instance",
    )
    reload_cmd.add_argument("--url", required=True,
                            help="base URL of the serve instance")
    reload_cmd.add_argument("--artifact", required=True,
                            help="artifact directory path on the *server's* "
                                 "filesystem")
    reload_cmd.set_defaults(handler=_cmd_reload)

    status = commands.add_parser(
        "status",
        help="operational snapshot of a running serve instance "
             "(health, rates, breakers, SLO budget, slow queries)",
    )
    status.add_argument("--url", required=True,
                        help="base URL of the serve instance")
    status.set_defaults(handler=_cmd_status)

    query = commands.add_parser(
        "query", help="answer alignment queries from an artifact or server"
    )
    query.add_argument("--artifact",
                       help="artifact directory (answer in-process)")
    query.add_argument("--url",
                       help="base URL of a running serve instance "
                            "(e.g. http://127.0.0.1:8571)")
    query.add_argument("--source", type=int, action="append", required=True,
                       help="source node id (repeatable)")
    query.add_argument("--k", type=int, default=1,
                       help="number of aligned targets per query")
    query.add_argument("--timeout-ms", type=int, default=0,
                       help="per-request latency budget; expired work is "
                            "shed at every stage and answers HTTP 504 / "
                            "DeadlineExceededError (0 = no deadline)")
    query.add_argument("--metrics-out",
                       help="write query-side metrics as BENCH_*.json "
                            "(in-process --artifact mode only)")
    add_engine_options(query)
    query.set_defaults(handler=_cmd_query)

    verify = commands.add_parser(
        "verify-artifact",
        help="rehash every byte of an artifact; exit 1 naming the "
             "corrupt file and offset if anything is damaged",
    )
    verify.add_argument("--artifact", required=True,
                        help="artifact directory to check")
    verify.set_defaults(handler=_cmd_verify_artifact)

    profile = commands.add_parser(
        "profile",
        help="profile a synthetic train/refine/query workload "
             "(Chrome trace + per-op table)",
    )
    # Defaults are sized so per-op compute dominates Python glue and the
    # op table covers well over 80% of forward+backward span time.
    profile.add_argument("--nodes", type=int, default=300,
                         help="synthetic network size")
    profile.add_argument("--features", type=int, default=64)
    profile.add_argument("--epochs", type=int, default=6)
    profile.add_argument("--dim", type=int, default=64)
    profile.add_argument("--layers", type=int, default=2)
    profile.add_argument("--refinement-iterations", type=int, default=3)
    profile.add_argument("--queries", type=int, default=32,
                         help="serving queries to answer after refinement")
    profile.add_argument("--k", type=int, default=5)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--compile", action="store_true",
                         help="train compiled (tape replay with fused "
                              "kernels) instead of eager")
    profile.add_argument("--compile-dtype", default="float32",
                         choices=("float32", "float64"),
                         help="tape replay precision for --compile")
    profile.add_argument("--top", type=int, default=0,
                         help="show only the N busiest ops (0 = all)")
    profile.add_argument("--trace-out", default="trace.json",
                         help="Chrome trace output path")
    profile.add_argument("--metrics-out",
                         help="write run metrics as a BENCH_*.json artifact")
    profile.set_defaults(handler=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
