"""The bound logic of ``compare.py``."""

import io
import json

import pytest

from compare import agree_verdict, compare, regression_verdict, worsening
from harness import RESULTS_SCHEMA

LOWER, HIGHER = "lower", "higher"


class TestWorsening:
    def test_direction(self):
        assert worsening(100.0, 110.0, LOWER) == pytest.approx(0.10)
        assert worsening(100.0, 110.0, HIGHER) == pytest.approx(-0.10)
        assert worsening(0.9, 0.8, HIGHER) == pytest.approx(0.1 / 0.9)

    def test_zero_base_is_refused(self):
        with pytest.raises(ValueError):
            worsening(0.0, 1.0, LOWER)


class TestRegressionVerdict:
    base = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_within_bound(self):
        new = [v * 1.05 for v in self.base]
        verdict, change = regression_verdict(self.base, new, LOWER, 0.1)
        assert verdict == "within"
        assert change == pytest.approx(0.05)

    def test_worse_beyond_bound(self):
        new = [v * 1.2 for v in self.base]
        assert regression_verdict(self.base, new, LOWER, 0.1)[0] == "worse"
        # The same move is an improvement when higher is better.
        assert regression_verdict(self.base, new, HIGHER, 0.1)[0] == "better"

    def test_better_needs_more_than_the_base_spread(self):
        # Base spread is 1.5 / 100 = 1.5 %: a 1 % gain is within, 5 % better.
        assert regression_verdict(
            self.base, [v * 0.99 for v in self.base], LOWER, 0.1
        )[0] == "within"
        assert regression_verdict(
            self.base, [v * 0.95 for v in self.base], LOWER, 0.1
        )[0] == "better"

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
        assert regression_verdict(
            self.base, noisy, LOWER, 0.1
        )[0] == "unresolved"
        assert regression_verdict(
            noisy, self.base, LOWER, 0.1
        )[0] == "unresolved"

    def test_wide_spread_still_better_when_every_run_beats_every_run(self):
        noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
        fast = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert regression_verdict(noisy, fast, LOWER, 0.1)[0] == "better"


class TestAgreeVerdict:
    def test_agree_within_bound_either_way(self):
        a = [100.0, 101.0, 99.0]
        assert agree_verdict(a, [v * 1.08 for v in a], 0.1, True)[0] == "agree"
        assert agree_verdict(a, [v * 0.92 for v in a], 0.1, True)[0] == "agree"

    def test_disagree_beyond_bound_either_way(self):
        a = [100.0, 101.0, 99.0]
        assert agree_verdict(a, [v * 1.12 for v in a], 0.1, True)[0] == (
            "disagree"
        )
        assert agree_verdict(a, [v * 0.88 for v in a], 0.1, True)[0] == (
            "disagree"
        )

    def test_spread_beyond_bound_disagrees_unless_exempt(self):
        a = [60.0, 100.0, 140.0, 80.0, 120.0]
        assert agree_verdict(a, a, 0.1, True)[0] == "disagree"
        assert agree_verdict(a, a, 0.1, False)[0] == "agree"


def _spec():
    return {
        "workloads": [{"name": "w1", "why": "."}, {"name": "w2", "why": "."}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "quality", "unit": "ratio", "better": "higher",
             "bound": 0.02},
        ],
        "per_layer": [],
    }


def _write(path, scale, valid=True, quality=0.9):
    records = [
        {
            "workload": workload, "seed": seed, "trace": False,
            "end_to_end": {
                "setup_s": 1.0 + 0.01 * seed,
                "p50_ms": scale * (50.0 + 0.2 * seed),
                "quality": quality,
            },
        }
        for workload in ("w1", "w2") for seed in range(5)
    ]
    path.write_text(json.dumps(
        {"schema": RESULTS_SCHEMA, "valid": valid, "records": records}
    ))
    return str(path)


class TestCompareFiles:
    def test_one_row_per_workload(self, tmp_path):
        a = _write(tmp_path / "a.json", 1.0)
        b = _write(tmp_path / "b.json", 1.03)
        out = io.StringIO()
        assert compare(a, b, agree=False, spec=_spec(), out=out) == 0
        rows = out.getvalue().splitlines()
        assert len(rows) == 3
        assert rows[1].split()[:2] == ["w1", "within"]
        assert rows[2].split()[:2] == ["w2", "within"]

    def test_regression_fails(self, tmp_path):
        a = _write(tmp_path / "a.json", 1.0)
        b = _write(tmp_path / "b.json", 1.3)
        out = io.StringIO()
        assert compare(a, b, agree=False, spec=_spec(), out=out) == 1
        assert "worse" in out.getvalue()

    def test_quality_drop_fails(self, tmp_path):
        a = _write(tmp_path / "a.json", 1.0, quality=0.90)
        b = _write(tmp_path / "b.json", 1.0, quality=0.87)
        assert compare(a, b, agree=False, spec=_spec(),
                       out=io.StringIO()) == 1

    def test_agree_mode(self, tmp_path):
        a = _write(tmp_path / "a.json", 1.0)
        b = _write(tmp_path / "b.json", 1.05)
        c = _write(tmp_path / "c.json", 1.15)
        assert compare(a, b, agree=True, spec=_spec(), out=io.StringIO()) == 0
        out = io.StringIO()
        assert compare(a, c, agree=True, spec=_spec(), out=out) == 1
        assert "disagree" in out.getvalue()

    def test_invalid_set_is_refused(self, tmp_path):
        a = _write(tmp_path / "a.json", 1.0)
        b = _write(tmp_path / "b.json", 1.0, valid=False)
        out = io.StringIO()
        assert compare(a, b, agree=True, spec=_spec(), out=out) == 2
        assert "invalid" in out.getvalue()
