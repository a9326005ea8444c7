"""Prometheus text exposition: rendering rules and a round-trip parse.

The parser here is deliberately independent of the renderer: it
re-implements the exposition grammar (``# TYPE`` comments, optional
``{labels}``, float values, NaN/±Inf) so the round-trip test catches
format bugs instead of mirroring them.
"""

import math
import re

import numpy as np
import pytest

from repro.observability import MetricsRegistry, to_prometheus_text

SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
TYPE_LINE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r" (?P<kind>counter|gauge|histogram|summary|untyped)$"
)


def parse_exposition(text):
    """``{name: {"kind": ..., "samples": [(labels_dict, value), ...]}}``."""
    assert text.endswith("\n"), "exposition must end with a newline"
    metrics = {}
    declared = {}
    for line in text.splitlines():
        if not line:
            continue
        type_match = TYPE_LINE.match(line)
        if type_match:
            declared[type_match["name"]] = type_match["kind"]
            continue
        assert not line.startswith("#"), f"unexpected comment: {line!r}"
        match = SAMPLE_LINE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        value = float(match["value"])  # accepts NaN / +Inf / -Inf
        labels = {}
        if match["labels"]:
            for pair in match["labels"].split(","):
                key, _, raw = pair.partition("=")
                assert raw.startswith('"') and raw.endswith('"'), pair
                labels[key] = raw[1:-1]
        base = match["name"]
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in declared:
                base = base[: -len(suffix)]
                break
        metrics.setdefault(
            base, {"kind": declared.get(base), "samples": []}
        )["samples"].append((match["name"], labels, value))
    return metrics


def build_registry():
    registry = MetricsRegistry()
    registry.increment("serving.http.requests", 7)
    registry.observe("serving.cache.hit_rate", 0.25)
    registry.observe("serving.cache.hit_rate", 0.75)
    with registry.timed("engine.batch.wall"):
        pass
    for value in (0.5, 1.0, 2.0, 4.0, 250.0):
        registry.record_histogram("serving.query.latency_ms", value)
    return registry


class TestRendering:
    def test_counter(self):
        metrics = parse_exposition(to_prometheus_text(build_registry()))
        counter = metrics["serving_http_requests"]
        assert counter["kind"] == "counter"
        assert counter["samples"] == [
            ("serving_http_requests", {}, 7.0)
        ]

    def test_gauge_is_last_value(self):
        metrics = parse_exposition(to_prometheus_text(build_registry()))
        gauge = metrics["serving_cache_hit_rate"]
        assert gauge["kind"] == "gauge"
        assert gauge["samples"] == [
            ("serving_cache_hit_rate", {}, 0.75)
        ]

    def test_former_timer_exports_histogram(self):
        registry = build_registry()
        metrics = parse_exposition(to_prometheus_text(registry))
        timer = metrics["engine_batch_wall"]
        assert timer["kind"] == "histogram"
        by_name = {name: value for name, _, value in timer["samples"]}
        assert by_name["engine_batch_wall_count"] == 1
        assert by_name["engine_batch_wall_sum"] == \
            registry.histogram("engine.batch.wall").total
        assert "engine_batch_wall_seconds" not in metrics

    def test_prefix_filters(self):
        text = to_prometheus_text(build_registry(), prefix="serving.cache")
        metrics = parse_exposition(text)
        assert set(metrics) == {"serving_cache_hit_rate"}

    def test_dotted_names_are_mangled(self):
        registry = MetricsRegistry()
        registry.increment("a.b-c.d")
        text = to_prometheus_text(registry)
        assert "a_b_c_d 1" in text


class TestHistogramRoundTrip:
    def test_buckets_are_cumulative_and_end_at_inf(self):
        metrics = parse_exposition(to_prometheus_text(build_registry()))
        histogram = metrics["serving_query_latency_ms"]
        assert histogram["kind"] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in histogram["samples"]
            if name.endswith("_bucket")
        ]
        assert buckets[-1][0] == "+Inf"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 5.0

    def test_count_and_sum_match_registry_snapshot(self):
        registry = build_registry()
        metrics = parse_exposition(to_prometheus_text(registry))
        for name, stats in registry.snapshot().items():
            if stats.get("kind") != "histogram":
                continue
            exposed = metrics[name.replace(".", "_").replace("-", "_")]
            by_name = {
                sample_name: value
                for sample_name, _, value in exposed["samples"]
            }
            count_name = name.replace(".", "_") + "_count"
            sum_name = name.replace(".", "_") + "_sum"
            assert by_name[count_name] == stats["count"]
            assert by_name[sum_name] == pytest.approx(stats["total"])
            inf_bucket = next(
                value for sample_name, labels, value in exposed["samples"]
                if labels.get("le") == "+Inf"
            )
            assert inf_bucket == stats["count"]

    def test_all_registry_metrics_are_exposed(self):
        registry = build_registry()
        metrics = parse_exposition(to_prometheus_text(registry))
        for name, stats in registry.snapshot().items():
            exposed = name.replace(".", "_")
            assert exposed in metrics, f"{name} missing from exposition"
            assert metrics[exposed]["kind"] == stats["kind"]

    def test_bucket_counts_honour_le(self):
        # Prometheus ``le`` means "<=": the cumulative count at every
        # exposed edge must equal the observations <= that edge, both
        # at the decade edges themselves and on a random sample.
        registry = MetricsRegistry()
        values = [10.0 ** e for e in range(-6, 4)]
        rng = np.random.default_rng(7)
        values += list(10.0 ** rng.uniform(-7, 4, size=500))
        for value in values:
            registry.record_histogram("h", value)
        metrics = parse_exposition(to_prometheus_text(registry))
        buckets = [
            (float(labels["le"]), count)
            for name, labels, count in metrics["h"]["samples"]
            if name == "h_bucket"
        ]
        assert len(buckets) == len(registry.histogram("h").bucket_counts)
        for le, count in buckets:
            expected = sum(1 for value in values if value <= le)
            assert count == expected, f"le={le!r}"


class TestSpecialValues:
    def test_nan_and_infinities_render_parseable(self):
        registry = MetricsRegistry()
        registry.observe("weird.nan", math.nan)
        registry.observe("weird.posinf", math.inf)
        registry.observe("weird.neginf", -math.inf)
        metrics = parse_exposition(to_prometheus_text(registry))
        (_, _, nan_value) = metrics["weird_nan"]["samples"][0]
        assert math.isnan(nan_value)
        assert metrics["weird_posinf"]["samples"][0][2] == math.inf
        assert metrics["weird_neginf"]["samples"][0][2] == -math.inf

    def test_integral_floats_render_without_exponent(self):
        registry = MetricsRegistry()
        registry.observe("big.round", 1e6)
        text = to_prometheus_text(registry)
        assert "big_round 1000000\n" in text
