"""Profiler/tracer overhead bounds and op-table coverage.

The observability layer's contract is *zero cost when off*: outside
``profiler.enabled()`` no observer is attached to the op-dispatch seam
(:mod:`repro.autograd.dispatch`), so each primitive pays one attribute
check, and a disabled tracer's ``span()`` returns a shared no-op.
This benchmark pins the contract down with numbers:

* profiled-off training must be within 2% of a baseline run (identical
  code path — the assert is on min-of-N wall times to shake scheduler
  noise);
* profiled-on training must stay under a 35% overhead ceiling — per-op
  wrappers cost microseconds, acceptable for profiling runs, and a
  regression here means a hot-path accident;
* the per-op table must account for at least 80% of the wall time spent
  inside the traced forward/backward spans, in eager and in compiled
  (tape replay) training, and never for more than 100% (the acceptance
  bar for ``repro profile``);
* serving latency histograms must be populated (p50/p99) under
  concurrent HTTP load.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.autograd import dispatch
from repro.core import GAlignConfig, GAlignTrainer
from repro.graphs import generators, noisy_copy_pair
from repro.observability import (
    MetricsRegistry,
    OpProfiler,
    Tracer,
    format_op_table,
    format_span_tree,
    use_registry,
    use_tracer,
)

from conftest import BASE_SEED, print_section

#: Big enough that per-op compute dominates Python glue, small enough to
#: keep the benchmark in seconds.
NODES = 300
FEATURES = 64
DIM = 64
EPOCHS = 5
TIMING_ROUNDS = 3


def _workload(compile=False):
    rng = np.random.default_rng(BASE_SEED)
    graph = generators.barabasi_albert(
        NODES, 3, rng, feature_dim=FEATURES, feature_kind="degree"
    )
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    config = GAlignConfig(
        epochs=EPOCHS, embedding_dim=DIM, num_layers=2,
        num_augmentations=1, refinement_iterations=1, seed=0,
        compile=compile,
    )
    return pair, config


def _train_once(pair, config, profiler=None, tracer=None):
    registry = MetricsRegistry()
    scoped_tracer = tracer if tracer is not None else Tracer(enabled=False)
    started = time.perf_counter()
    with use_registry(registry), use_tracer(scoped_tracer):
        if profiler is not None:
            with profiler.enabled():
                GAlignTrainer(config, np.random.default_rng(0)).train(pair)
        else:
            GAlignTrainer(config, np.random.default_rng(0)).train(pair)
    return time.perf_counter() - started


def _min_time(pair, config, **kwargs):
    return min(_train_once(pair, config, **kwargs)
               for _ in range(TIMING_ROUNDS))


def test_profiler_off_is_zero_cost():
    pair, config = _workload()
    _train_once(pair, config)  # warm-up: caches, allocator, imports
    # Interleave the rounds so drift (thermal, allocator growth) hits
    # both series equally instead of biasing whichever ran second.
    baseline_times, off_times = [], []
    for _ in range(TIMING_ROUNDS):
        baseline_times.append(_train_once(pair, config))
        off_times.append(_train_once(pair, config))
    baseline, off = min(baseline_times), min(off_times)

    # The structural half of the claim: no observer survives outside the
    # context, so "off" *is* the baseline.
    with OpProfiler().enabled():
        pass
    assert dispatch.observers() == ()

    overhead = off / baseline - 1.0
    print_section("profiler-off overhead")
    print(f"baseline {baseline:.3f}s  off {off:.3f}s  "
          f"overhead {overhead:+.2%} (bound <+2%)")
    # One-sided: "off" being faster is scheduler noise, not a regression.
    assert overhead < 0.02, (
        f"profiled-off run is {overhead:+.2%} slower than baseline; the "
        "disabled path must be the original code"
    )


def test_profiler_on_overhead_is_bounded():
    pair, config = _workload()
    _train_once(pair, config)  # warm-up
    baseline_times, profiled_times = [], []
    for _ in range(TIMING_ROUNDS):
        baseline_times.append(_train_once(pair, config))
        profiled_times.append(
            _train_once(pair, config, profiler=OpProfiler(trace_ops=False))
        )
    baseline, profiled = min(baseline_times), min(profiled_times)
    overhead = profiled / baseline - 1.0
    print_section("profiler-on overhead")
    print(f"baseline {baseline:.3f}s  profiled {profiled:.3f}s  "
          f"overhead {overhead:+.2%} (bound 35%)")
    assert overhead < 0.35, (
        f"profiling overhead {overhead:+.2%} exceeds the 35% budget"
    )


@pytest.mark.parametrize("compile", [False, True],
                         ids=["eager", "compiled"])
def test_op_table_covers_traced_forward_backward_time(compile):
    pair, config = _workload(compile=compile)
    tracer = Tracer()
    profiler = OpProfiler(tracer=tracer, trace_ops=False)
    registry = MetricsRegistry()
    with use_registry(registry), use_tracer(tracer):
        with profiler.enabled():
            GAlignTrainer(config, np.random.default_rng(0)).train(pair)
    traced = sum(
        span.duration for span in tracer.spans()
        if span.name in ("trainer.forward", "trainer.backward")
    )
    accounted = profiler.total_time()
    coverage = accounted / traced
    print_section("op-table coverage")
    print(format_span_tree(tracer, title="span tree"))
    print(format_op_table(profiler, title="per-op profile", limit=10))
    print(f"coverage: {coverage:.1%} of {traced:.3f}s traced "
          f"forward+backward time (bound >=80%)")
    assert 0.80 <= coverage <= 1.0, (
        f"per-op table accounts for {coverage:.1%} of traced "
        "forward+backward wall time"
    )


def test_serving_latency_histogram_under_concurrent_load():
    from repro.serving import AlignmentIndex, AlignmentServer, QueryEngine

    pair, config = _workload()
    registry = MetricsRegistry()
    with use_registry(registry):
        model, _ = GAlignTrainer(config, np.random.default_rng(0)).train(pair)
    index = AlignmentIndex(
        model.embed(pair.source), model.embed(pair.target),
        config.resolved_layer_weights(), registry=registry,
    )
    engine = QueryEngine(index, fingerprint="bench", registry=registry)
    threads, per_thread = 4, 25
    errors = []
    with AlignmentServer(engine, port=0, registry=registry) as server:
        barrier = threading.Barrier(threads)

        def worker(offset):
            barrier.wait()
            try:
                for i in range(per_thread):
                    source = (offset * per_thread + i) % index.n_source
                    urllib.request.urlopen(
                        f"{server.url}/query?source={source}&k=5",
                        timeout=10,
                    ).read()
            except Exception as error:  # surfaced via the assert below
                errors.append(error)

        workers = [
            threading.Thread(target=worker, args=(t,))
            for t in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        with urllib.request.urlopen(
            f"{server.url}/metrics", timeout=10
        ) as response:
            payload = json.loads(response.read())
    assert not errors
    hist = payload["metrics"]["serving.query_latency"]
    print_section("serving latency histogram (concurrent load)")
    print(f"count {hist['count']}  p50 {hist['p50'] * 1e3:.3f}ms  "
          f"p99 {hist['p99'] * 1e3:.3f}ms")
    assert hist["count"] == threads * per_thread
    assert 0.0 < hist["p50"] <= hist["p99"]
    assert payload["metrics"]["serving.batch.size"]["count"] >= 1
