"""The percentile rule, metric names, the spec file and span recording."""

import statistics

import pytest

from harness import (
    NAME_RE,
    load_spec,
    percentile,
    quartile_spread,
    supported_percentile,
    valid_name,
)
from spans import NO_SPANS, SpanRecorder


class TestPercentileRule:
    @pytest.mark.parametrize("count, expected", [
        (10_000, 99.9),   # 10 samples beyond p99.9
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (118, 90.0),      # train-eager: 2 runs x 59 epochs
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),       # not even the median has 10 samples beyond it
        (0, None),
    ])
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        assert supported_percentile(count) == expected

    def test_every_supported_percentile_leaves_ten_beyond(self):
        for count in range(20, 3000, 7):
            q = supported_percentile(count)
            assert count * (100 - q) / 100 >= 10 - 1e-9

    def test_percentile_interpolates_linearly(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3
        assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)
        assert percentile([7.0], 99) == 7.0
        values = [float(v) for v in range(101)]
        assert percentile(values, 90) == pytest.approx(90.0)

    def test_percentile_of_nothing_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_quartile_spread_matches_statistics(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert quartile_spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values)
        )
        assert quartile_spread([3.0]) == 0.0


class TestNames:
    @pytest.mark.parametrize("name", [
        "p50_ms", "setup_s", "train-eager", "index.top_k_ms", "9lives",
        "a" * 64,
    ])
    def test_valid(self, name):
        assert valid_name(name)

    @pytest.mark.parametrize("name", [
        "", "p50 ms", "-lead", ".lead", "_lead", "a/b", "é", "a" * 65,
        "q(99)", None, 7,
    ])
    def test_invalid(self, name):
        assert not valid_name(name)

    def test_regex_is_the_documented_alphabet(self):
        assert NAME_RE.pattern == r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"


class TestSpec:
    def test_shape(self):
        spec = load_spec()
        assert set(spec) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        }
        assert spec["paths"] == ["bench"]
        assert 1 <= spec["run_seconds"] <= 60
        assert [w["name"] for w in spec["workloads"]] == [
            "train-eager", "train-compiled", "serve-lone", "serve-batch",
        ]
        for workload in spec["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200

    def test_metrics(self):
        spec = load_spec()
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in spec[section]]
        assert len(names) == len(set(names))
        for metric in spec["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert metric["better"] in ("lower", "higher")
            assert 0 < metric["bound"] <= 0.25
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
        assert 1 <= len(spec["per_layer"]) < 128
        for metric in spec["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}

    def test_invalid_name_is_refused(self, tmp_path):
        path = tmp_path / "BENCHMARK.json"
        path.write_text(
            '{"workloads": [{"name": "bad name", "why": "x"}],'
            ' "end_to_end": [], "per_layer": []}'
        )
        with pytest.raises(ValueError, match="bad name"):
            load_spec(str(path))


class _Layer:
    def work(self, x):
        return x + 1


class _Child(_Layer):
    pass


class TestSpans:
    def test_wrap_records_nested_spans_and_restores(self):
        original = _Layer.__dict__["work"]
        with SpanRecorder() as recorder:
            recorder.wrap(_Layer, "work", "layer.work")
            with recorder.span("outer", rid="r1"):
                assert _Layer().work(1) == 2
            assert _Layer.__dict__["work"] is not original
        assert _Layer.__dict__["work"] is original
        inner, outer = recorder.spans
        assert (inner.name, inner.parent) == ("layer.work", outer)
        assert (outer.name, outer.rid) == ("outer", "r1")
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert recorder.total_ms("layer.work") == pytest.approx(
            inner.duration * 1e3
        )
        events = recorder.chrome_trace()["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "layer.work"]
        assert events[1]["args"]["parent"] == "outer"

    def test_inherited_attribute_is_removed_again(self):
        with SpanRecorder() as recorder:
            recorder.wrap(_Child, "work", "child.work")
            assert "work" in _Child.__dict__
            assert _Child().work(2) == 3
        assert "work" not in _Child.__dict__
        assert [s.name for s in recorder.spans] == ["child.work"]

    def test_restore_on_error(self):
        original = _Layer.__dict__["work"]
        with pytest.raises(RuntimeError):
            with SpanRecorder() as recorder:
                recorder.wrap(_Layer, "work", "layer.work")
                raise RuntimeError("boom")
        assert _Layer.__dict__["work"] is original

    def test_name_callable_can_skip_a_call(self):
        with SpanRecorder() as recorder:
            recorder.wrap(
                _Layer, "work", lambda _self, x: "big" if x > 5 else None
            )
            _Layer().work(1)
            _Layer().work(9)
        assert [s.name for s in recorder.spans] == ["big"]

    def test_untraced_spans_record_nothing(self):
        with NO_SPANS.span("anything", rid="x"):
            pass
