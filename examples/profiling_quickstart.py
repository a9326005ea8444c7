"""Profiling quickstart: span tracing + per-op autograd profiling.

Answers "where does the time go?" for a GAlign run, in three layers:

1. **spans** — wall-clock tree of the pipeline phases (epochs,
   forward/backward/step, refinement iterations),
2. **per-op profile** — every autograd op's call count, time, and
   FLOP throughput, with backward passes attributed to the op that
   created the node,
3. **histograms** — epoch-latency percentiles from the metrics registry.

The tracer and profiler cost nothing until switched on: a disabled
tracer's ``span()`` is a shared no-op, and the profiler observes the
autograd ops only inside ``profiler.enabled()`` (it attaches to the op
dispatch seam on entry and detaches on exit).  The same report is available from the command line:

    python -m repro.cli profile                    # synthetic workload
    python -m repro.cli align --pair /tmp/pair --trace-out trace.json

Run:  python examples/profiling_quickstart.py
"""

import tempfile

import numpy as np

from repro.core import GAlignConfig, GAlignTrainer
from repro.core.refine import AlignmentRefiner
from repro.eval import format_metrics_table
from repro.graphs import generators, noisy_copy_pair
from repro.observability import (
    MetricsRegistry,
    OpProfiler,
    Tracer,
    export_chrome_trace,
    format_op_table,
    format_span_tree,
    use_registry,
    use_tracer,
)


def main() -> None:
    rng = np.random.default_rng(11)
    graph = generators.barabasi_albert(
        150, m=2, rng=rng, feature_dim=24, feature_kind="degree"
    )
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    config = GAlignConfig(
        epochs=10, embedding_dim=32, num_augmentations=1,
        refinement_iterations=2, seed=0,
    )

    registry = MetricsRegistry()
    tracer = Tracer()
    profiler = OpProfiler(tracer=tracer)

    with use_registry(registry), use_tracer(tracer):
        # Profile the training phase: every Tensor op is recorded while
        # the context is open, nothing before or after.
        with tracer.span("train", epochs=config.epochs):
            with profiler.enabled():
                model, _ = GAlignTrainer(
                    config, np.random.default_rng(0)
                ).train(pair)
        # Refinement runs traced but unprofiled — spans only.
        with tracer.span("refine"):
            AlignmentRefiner(config).refine(pair, model)

    # 1. Where did the wall time go?  Aggregated flame-style tree.
    print(format_span_tree(tracer, title="span tree"))
    print()

    # 2. Which ops did the work?  Time, FLOPs, and GFLOP/s per op,
    #    forward and backward accounted separately.
    print(format_op_table(profiler, title="per-op profile", limit=8))
    gflops = profiler.total_flops() / 1e9
    seconds = profiler.total_time()
    print(f"\ntotal: {gflops:.2f} GFLOP in {seconds:.3f}s of op time "
          f"({gflops / seconds:.2f} GFLOP/s)")
    print()

    # 3. Latency distributions land in the registry as histograms.
    epochs = registry.histogram("trainer.epoch_time").snapshot()
    print(f"epoch latency: count={epochs['count']} "
          f"p50={epochs['p50'] * 1e3:.1f}ms p99={epochs['p99'] * 1e3:.1f}ms")
    print()
    print(format_metrics_table(registry, prefix="refine"))

    # Export the span tree for chrome://tracing or ui.perfetto.dev.
    path = tempfile.mktemp(prefix="repro-trace-", suffix=".json")
    payload = export_chrome_trace(path, tracer)
    print(f"\nwrote {len(payload['traceEvents'])} trace events -> {path}")


if __name__ == "__main__":
    main()
