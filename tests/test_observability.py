"""Tests for the observability subsystem: registry, histograms, hooks, export,
and the instrumentation threaded through trainer/refiner/streaming/runner."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GAlign,
    GAlignConfig,
    GAlignTrainer,
    StreamingAligner,
)
from repro.eval import ExperimentRunner, MethodSpec, format_metrics_table
from repro.graphs import generators, noisy_copy_pair
from repro.observability import (
    BENCH_SCHEMA,
    MetricsRegistry,
    Timer,
    bench_payload,
    get_registry,
    load_bench_json,
    set_registry,
    use_registry,
    validate_bench_payload,
    write_bench_json,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def tiny_pair():
    rng = np.random.default_rng(11)
    graph = generators.barabasi_albert(30, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


def tiny_config(**kwargs):
    defaults = dict(epochs=3, embedding_dim=8, refinement_iterations=2,
                    num_augmentations=1, seed=0)
    defaults.update(kwargs)
    return GAlignConfig(**defaults)


class TestCounter:
    def test_increments(self, registry):
        assert registry.increment("a.b") == 1
        assert registry.increment("a.b", 4) == 5
        assert registry.counter("a.b").value == 5

    def test_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.increment("a.b", -1)

    def test_snapshot(self, registry):
        registry.increment("a.b", 2)
        assert registry.snapshot()["a.b"] == {"kind": "counter", "value": 2}


class TestGauge:
    def test_running_stats(self, registry):
        for value in (3.0, 1.0, 2.0):
            registry.observe("g", value)
        gauge = registry.gauge("g")
        assert gauge.last == 2.0
        assert gauge.minimum == 1.0
        assert gauge.maximum == 3.0
        assert gauge.mean == pytest.approx(2.0)
        assert gauge.count == 3

    def test_empty_snapshot_has_null_extrema(self, registry):
        # An empty gauge must never export min/max that read like a real
        # observation of zero.
        snapshot = registry.gauge("g").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] is None and snapshot["max"] is None
        assert validate_bench_payload(bench_payload(registry))

    def test_extrema_appear_after_first_observation(self, registry):
        registry.observe("g", 4.0)
        snapshot = registry.gauge("g").snapshot()
        assert snapshot["min"] == 4.0 and snapshot["max"] == 4.0


class TestHistogram:
    def test_single_observation_quantiles_are_exact(self, registry):
        registry.record_histogram("h", 0.125)
        hist = registry.histogram("h")
        assert hist.count == 1
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.125)

    def test_quantiles_track_the_distribution(self, registry):
        hist = registry.histogram("h")
        for value in np.linspace(0.001, 1.0, 1000):
            hist.observe(float(value))
        snapshot = hist.snapshot()
        # Estimates are bucketed, so allow one bucket's relative width.
        assert snapshot["p50"] == pytest.approx(0.5, rel=0.6)
        assert snapshot["p90"] == pytest.approx(0.9, rel=0.6)
        assert snapshot["p50"] < snapshot["p90"] <= snapshot["p99"]
        assert snapshot["min"] == pytest.approx(0.001)
        assert snapshot["max"] == pytest.approx(1.0)
        assert snapshot["p99"] <= snapshot["max"]

    def test_quantiles_clamped_to_observed_range(self, registry):
        hist = registry.histogram("h")
        hist.observe(3.0)
        hist.observe(3.5)
        assert 3.0 <= hist.quantile(0.5) <= 3.5
        assert hist.quantile(1.0) == 3.5

    def test_out_of_range_values_land_in_edge_buckets(self, registry):
        hist = registry.histogram("h")
        hist.observe(0.0)        # underflow bucket (< lower bound)
        hist.observe(5e4)        # overflow bucket (>= upper bound)
        assert hist.count == 2
        assert hist.bucket_counts[0] == 1
        assert hist.bucket_counts[-1] == 1
        snapshot = hist.snapshot()
        assert snapshot["min"] == 0.0 and snapshot["max"] == 5e4

    def test_rejects_negative_and_non_finite(self, registry):
        hist = registry.histogram("h")
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                hist.observe(bad)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.floats(0.0, 5e4, allow_nan=False, allow_infinity=False),
                st.integers(1, 20),
            ),
            min_size=1, max_size=8,
        )
    )
    def test_counted_observe_matches_repeated_observes(self, values):
        counted, repeated = MetricsRegistry(), MetricsRegistry()
        for value, count in values:
            counted.record_histogram("h", value, count=count)
            for _ in range(count):
                repeated.record_histogram("h", value)
        a, b = counted.histogram("h"), repeated.histogram("h")
        assert a.count == b.count
        assert a.bucket_counts == b.bucket_counts
        assert a.minimum == b.minimum and a.maximum == b.maximum
        assert a.total == pytest.approx(b.total)

    def test_counted_observe_rejects_a_non_positive_count(self, registry):
        with pytest.raises(ValueError, match="count"):
            registry.histogram("h").observe(1.0, count=0)
        assert registry.histogram("h").count == 0

    def test_empty_snapshot_is_all_null(self, registry):
        snapshot = registry.histogram("h").snapshot()
        assert snapshot["count"] == 0
        for field in ("min", "max", "p50", "p90", "p99"):
            assert snapshot[field] is None
        assert validate_bench_payload(bench_payload(registry))

    def test_invalid_quantile_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h").quantile(1.5)

    def test_kind_clash_raises(self, registry):
        registry.record_histogram("h", 1.0)
        with pytest.raises(TypeError):
            registry.counter("h")
        registry.increment("c")
        with pytest.raises(TypeError):
            registry.histogram("c")

    def test_histogram_exports_in_bench_payload(self, registry, tmp_path):
        registry.record_histogram("serving.query_latency", 0.002)
        path = str(tmp_path / "BENCH_hist.json")
        write_bench_json(path, registry)
        loaded = load_bench_json(path)
        stats = loaded["metrics"]["serving.query_latency"]
        assert stats["kind"] == "histogram"
        assert stats["p50"] == pytest.approx(0.002)


class TestThreadSafety:
    def test_counter_hammer_loses_no_updates(self, registry):
        import threading

        threads, increments = 8, 2000
        counter = registry.counter("hammer")
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(increments):
                counter.increment()

        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert counter.value == threads * increments

    def test_gauge_and_histogram_hammer(self, registry):
        import threading

        threads, observations = 6, 1000
        barrier = threading.Barrier(threads)

        def worker(offset):
            barrier.wait()
            for i in range(observations):
                registry.observe("hammer.gauge", offset + i)
                registry.record_histogram("hammer.hist", 1e-3 * (i + 1))

        workers = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert registry.gauge("hammer.gauge").count == threads * observations
        hist = registry.histogram("hammer.hist")
        assert hist.count == threads * observations
        assert sum(hist.bucket_counts) == hist.count

    def test_concurrent_metric_creation_is_single_instance(self, registry):
        import threading

        created = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            created.append(registry.counter("race"))

        workers = [threading.Thread(target=worker) for _ in range(8)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert all(metric is created[0] for metric in created)


class TestTimer:
    def test_standalone_timer_measures(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed > 0.0

    def test_timed_records_into_registry(self, registry):
        with registry.timed("t"):
            pass
        stat = registry.histogram("t")
        assert stat.count == 1
        assert stat.total >= 0.0

    def test_records_even_when_body_raises(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timed("t"):
                raise RuntimeError("boom")
        assert registry.histogram("t").count == 1

    def test_negative_duration_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("t").observe(-1.0)


class TestRegistry:
    def test_kind_clash_raises(self, registry):
        registry.increment("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        registry.observe("g", 1.0)
        with pytest.raises(TypeError):
            registry.histogram("g")
        registry.record_histogram("t", 0.1)
        with pytest.raises(TypeError):
            registry.gauge("t")

    def test_invalid_names_rejected(self, registry):
        for bad in ("", "a..b", ".a", "a."):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_names_prefix_filter(self, registry):
        for name in ("trainer.epochs", "trainer.loss.total", "refine.quality"):
            registry.observe(name, 1.0)
        registry.increment("trainer.epochs2")
        assert registry.names("trainer") == [
            "trainer.epochs", "trainer.epochs2", "trainer.loss.total"
        ]
        # prefix match is per dotted segment, not per substring
        assert "trainer.epochs2" not in registry.names("trainer.epochs")

    def test_contains_and_reset(self, registry):
        registry.increment("a")
        assert "a" in registry and len(registry) == 1
        registry.reset()
        assert "a" not in registry and len(registry) == 0

    def test_hooks_receive_events(self, registry):
        seen = []
        hook = lambda event, payload: seen.append((event, payload))
        registry.add_hook(hook)
        registry.emit("trainer.epoch", {"epoch": 0})
        registry.remove_hook(hook)
        registry.emit("trainer.epoch", {"epoch": 1})
        assert seen == [("trainer.epoch", {"epoch": 0})]

    def test_global_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_use_registry_restores_on_exit(self):
        before = get_registry()
        with use_registry(MetricsRegistry()) as scoped:
            assert get_registry() is scoped
        assert get_registry() is before


class TestBenchExport:
    def test_payload_validates(self, registry):
        registry.increment("a.b")
        registry.observe("c", 1.5)
        registry.record_histogram("d", 0.2)
        payload = bench_payload(registry, run={"seed": 0})
        assert validate_bench_payload(payload) is payload
        assert payload["schema"] == BENCH_SCHEMA

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(schema="nope"),
        lambda p: p.update(run=[1, 2]),
        lambda p: p.update(metrics="not-a-dict"),
        lambda p: p["metrics"].update({"bad..name": {"kind": "counter", "value": 1}}),
        lambda p: p["metrics"].update({"m": {"kind": "histogram"}}),
        lambda p: p["metrics"].update({"m": {"kind": "counter"}}),
        lambda p: p["metrics"].update({"m": {"kind": "counter", "value": "x"}}),
        lambda p: p["metrics"].update({"m": {"kind": "counter", "value": True}}),
    ])
    def test_invalid_payload_rejected(self, registry, mutate):
        registry.increment("ok")
        payload = bench_payload(registry)
        mutate(payload)
        with pytest.raises(ValueError):
            validate_bench_payload(payload)

    def test_write_load_roundtrip(self, registry, tmp_path):
        registry.record_histogram("trainer.epoch_time", 0.5)
        path = str(tmp_path / "BENCH_roundtrip.json")
        written = write_bench_json(path, registry, run={"command": "test"})
        loaded = load_bench_json(path)
        assert loaded == written
        assert loaded["metrics"]["trainer.epoch_time"]["total"] == 0.5

    def test_empty_registry_exports_and_loads(self, registry, tmp_path):
        path = str(tmp_path / "BENCH_empty.json")
        written = write_bench_json(path, registry)
        assert written["metrics"] == {}
        assert load_bench_json(path) == written

    def test_invalid_name_rejected_at_load(self, registry, tmp_path):
        # A payload edited on disk to carry a malformed metric name must
        # fail on re-load, not round-trip silently.
        registry.increment("ok")
        path = str(tmp_path / "BENCH_tampered.json")
        payload = write_bench_json(path, registry)
        payload["metrics"]["bad..name"] = payload["metrics"].pop("ok")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="invalid metric name"):
            load_bench_json(path)

    def test_reexport_is_byte_identical(self, registry, tmp_path):
        registry.increment("a.b", 3)
        registry.record_histogram("t", 0.25)
        registry.record_histogram("h", 0.01)
        first = tmp_path / "BENCH_a.json"
        second = tmp_path / "BENCH_b.json"
        write_bench_json(str(first), registry, run={"seed": 1})
        write_bench_json(str(second), registry, run={"seed": 1})
        assert first.read_bytes() == second.read_bytes()


class TestInstrumentedComponents:
    def test_trainer_records_epoch_metrics(self, tiny_pair):
        registry = MetricsRegistry()
        config = tiny_config()
        trainer = GAlignTrainer(config, np.random.default_rng(0),
                                registry=registry)
        _, log = trainer.train(tiny_pair)
        assert registry.counter("trainer.epochs").value == config.epochs
        assert registry.histogram("trainer.epoch_time").count == config.epochs
        assert registry.histogram("trainer.forward_time").count == config.epochs
        assert registry.histogram("trainer.backward_time").count == config.epochs
        assert registry.histogram("trainer.step_time").count == config.epochs
        # one pre-clip gradient norm per (clean) epoch
        grad_norm = registry.histogram("trainer.grad_norm")
        assert grad_norm.count == config.epochs
        assert grad_norm.minimum > 0.0
        # the log is a view over the registry: same trajectory both ways
        assert registry.gauge("trainer.loss.total").last == log.total[-1]
        assert registry.gauge("trainer.loss.total").count == len(log.total)

    def test_trainer_epoch_hook_fires(self, tiny_pair):
        registry = MetricsRegistry()
        epochs = []
        registry.add_hook(
            lambda event, payload: epochs.append(payload["epoch"])
            if event == "trainer.epoch" else None
        )
        config = tiny_config()
        GAlignTrainer(config, np.random.default_rng(0),
                      registry=registry).train(tiny_pair)
        assert epochs == list(range(config.epochs))

    def test_refiner_records_iteration_metrics(self, tiny_pair):
        registry = MetricsRegistry()
        with use_registry(registry):
            GAlign(tiny_config()).align(tiny_pair)
        iterations = registry.counter("refine.iterations").value
        assert iterations >= 1
        assert registry.histogram("refine.iteration_time").count == \
            iterations
        assert registry.gauge("refine.quality").count == iterations
        assert registry.gauge("refine.stable_nodes").count == iterations
        assert registry.gauge("refine.influence.source_max").last >= 1.0

    def test_streaming_records_block_metrics(self, tiny_pair):
        registry = MetricsRegistry()
        config = tiny_config()
        model, _ = GAlignTrainer(config, np.random.default_rng(0),
                                 registry=registry).train(tiny_pair)
        aligner = StreamingAligner(model, config, block_size=8,
                                   registry=registry)
        aligner.evaluate(tiny_pair)
        assert registry.counter("streaming.rows").value == \
            tiny_pair.source.num_nodes
        assert registry.counter("streaming.blocks").value == \
            -(-tiny_pair.source.num_nodes // 8)
        assert registry.histogram("streaming.block_time").count == \
            registry.counter("streaming.blocks").value

    def test_runner_records_wall_time_and_manifest(self, tiny_pair):
        registry = MetricsRegistry()
        runner = ExperimentRunner(supervision_ratio=0.0, repeats=2, seed=0,
                                  registry=registry)
        specs = [MethodSpec("GAlign", lambda: GAlign(tiny_config()))]
        with use_registry(registry):
            results = runner.run_pair(tiny_pair, specs)
        wall = registry.histogram("runner.method.GAlign.wall")
        assert wall.count == 2
        assert results["GAlign"].time_seconds == pytest.approx(wall.mean)
        assert registry.counter("runner.runs").value == 2

        manifest = runner.run_manifest()
        assert manifest["schema"] == "repro.run/v1"
        assert manifest["config"]["repeats"] == 2
        assert len(manifest["runs"]) == 2
        entry = manifest["runs"][0]
        assert entry["method"] == "GAlign"
        assert entry["pair"] == tiny_pair.name
        assert 0.0 <= entry["map"] <= 1.0
        assert entry["wall_seconds"] > 0.0

    def test_runner_manifest_saves_as_json(self, tiny_pair, tmp_path):
        registry = MetricsRegistry()
        runner = ExperimentRunner(supervision_ratio=0.0, registry=registry)
        specs = [MethodSpec("GAlign", lambda: GAlign(tiny_config()))]
        with use_registry(registry):
            runner.run_pair(tiny_pair, specs)
        path = str(tmp_path / "manifest.json")
        manifest = runner.save_run_manifest(path)
        with open(path) as handle:
            assert json.load(handle) == manifest


class TestOneKindPerQuantity:
    def test_train_refine_serve_records_three_kinds(self, tiny_pair):
        from repro.serving import AlignmentIndex, QueryEngine

        registry = MetricsRegistry()
        config = tiny_config()
        with use_registry(registry):
            galign = GAlign(config)
            galign.align(tiny_pair)
            log = galign.refinement_log
            index = AlignmentIndex(
                log.best_source_embeddings, log.best_target_embeddings,
                config.resolved_layer_weights(), registry=registry,
            )
            with QueryEngine(index, max_delay_ms=1.0,
                             registry=registry) as engine:
                for source in (0, 1, 0):
                    engine.query(source, k=3)
                latency_ms = engine.stats()["latency_ms"]
        snapshot = registry.snapshot()
        assert {stats["kind"] for stats in snapshot.values()} <= \
            {"counter", "gauge", "histogram"}
        assert [name for name in snapshot if name.endswith("_hist")] == []
        for name in ("trainer.epoch_time", "refine.iteration_time",
                     "serving.query_latency", "serving.batch.size"):
            assert snapshot[name]["kind"] == "histogram", name
        assert snapshot["trainer.epoch_time"]["count"] == config.epochs
        assert snapshot["serving.query_latency"]["count"] == 3
        assert set(latency_ms) == {"mean", "max", "count", "p50", "p99"}
        assert latency_ms["count"] == 3


class TestMetricsTable:
    def test_renders_registry_and_snapshot(self, registry):
        registry.increment("runner.runs", 3)
        registry.record_histogram("trainer.epoch_time", 0.25)
        text = format_metrics_table(registry, title="Metrics")
        assert "Metrics" in text
        assert "runner.runs" in text and "trainer.epoch_time" in text
        # same rows from a plain snapshot dict, filtered by prefix
        filtered = format_metrics_table(registry.snapshot(), prefix="trainer")
        assert "trainer.epoch_time" in filtered
        assert "runner.runs" not in filtered

    def test_renders_histograms_and_null_stats(self, registry):
        registry.record_histogram("serving.latency", 0.004)
        registry.gauge("empty.gauge")  # no observations: min/max are None
        text = format_metrics_table(registry)
        assert "P50" in text and "P99" in text
        assert "histogram" in text
        # None stats render as placeholders, never as a fake number
        assert "None" not in text


class TestMetricStateMerge:
    """Cross-process state transfer: state()/merge() and the registry
    dump_state()/merge_state() pair used by repro.parallel workers."""

    def test_counter_merge_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.increment("c", 3)
        b.increment("c", 4)
        a.counter("c").merge(b.counter("c").state())
        assert a.counter("c").value == 7

    def test_gauge_merge_matches_serial(self):
        serial = MetricsRegistry()
        for value in (1.0, 5.0, 2.0, 4.0):
            serial.observe("g", value)
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.observe("g", 1.0)
        parent.observe("g", 5.0)
        worker.observe("g", 2.0)
        worker.observe("g", 4.0)
        parent.gauge("g").merge(worker.gauge("g").state())
        assert parent.gauge("g").snapshot() == serial.gauge("g").snapshot()

    def test_empty_gauge_merge_is_noop(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.observe("g", 2.5)
        before = parent.gauge("g").snapshot()
        parent.gauge("g").merge(worker.gauge("g").state())
        assert parent.gauge("g").snapshot() == before

    def test_timer_merge_accumulates_total(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.record_histogram("t", 0.5)
        worker.record_histogram("t", 1.5)
        parent.histogram("t").merge(worker.histogram("t").state())
        assert parent.histogram("t").count == 2
        assert parent.histogram("t").total == pytest.approx(2.0)
        assert parent.histogram("t").maximum == pytest.approx(1.5)
        assert sum(parent.histogram("t").bucket_counts) == 2

    def test_histogram_merge_is_exact(self):
        serial = MetricsRegistry()
        parent, worker = MetricsRegistry(), MetricsRegistry()
        samples = [0.001, 0.02, 0.3, 4.0, 0.0007]
        for value in samples:
            serial.record_histogram("h", value)
        for value in samples[:2]:
            parent.record_histogram("h", value)
        for value in samples[2:]:
            worker.record_histogram("h", value)
        parent.histogram("h").merge(worker.histogram("h").state())
        assert parent.histogram("h").snapshot() == serial.histogram("h").snapshot()
        assert (parent.histogram("h").bucket_counts
                == serial.histogram("h").bucket_counts)

    def test_histogram_layout_mismatch_rejected(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("h", lower=1e-3, upper=1e2, buckets_per_decade=3)
        worker.record_histogram("h", 0.5)  # default layout
        with pytest.raises(ValueError, match="bucket layout"):
            parent.histogram("h").merge(worker.histogram("h").state())

    def test_registry_roundtrip_matches_serial(self):
        serial = MetricsRegistry()
        parent, worker = MetricsRegistry(), MetricsRegistry()
        for sink in (serial, parent):
            sink.increment("runs", 2)
            sink.observe("quality", 0.8)
        for sink in (serial, worker):
            sink.increment("runs", 5)
            sink.observe("quality", 0.6)
            sink.record_histogram("wall", 0.25)
            sink.record_histogram("latency", 0.004)
        parent.merge_state(worker.dump_state())
        assert parent.snapshot() == serial.snapshot()

    def test_merge_state_rejects_unknown_kind(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown kind"):
            registry.merge_state({"x": {"kind": "sparkline", "value": 1}})

    def test_state_is_picklable(self):
        import pickle

        registry = MetricsRegistry()
        registry.increment("runs")
        registry.record_histogram("latency", 0.01)
        registry.record_histogram("wall", 0.1)
        state = registry.dump_state()
        restored = MetricsRegistry()
        restored.merge_state(pickle.loads(pickle.dumps(state)))
        assert restored.snapshot() == registry.snapshot()
