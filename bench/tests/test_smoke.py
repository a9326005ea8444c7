"""Toy-size runs of the whole benchmark, through its command line."""

import json
import os
import shutil
import subprocess
import sys
import time

from harness import BENCH_DIR, RESULTS_SCHEMA, ROOT, load_spec

RUN = os.path.join(BENCH_DIR, "run.py")


def _run(args, cwd, timeout):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "bench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout, check=False,
    )


def test_toy_traced_run_of_every_workload(tmp_path):
    spec = load_spec()
    started = time.perf_counter()
    completed = _run(
        ["--toy", "--seconds", "0.5", "--trace", "1", "--out", str(tmp_path)],
        cwd=ROOT, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stderr
    assert elapsed < 20, f"toy smoke run took {elapsed:.1f} s"

    lines = [line for line in completed.stdout.splitlines()
             if line.startswith("{")]
    workloads = [w["name"] for w in spec["workloads"]]
    assert len(lines) == len(workloads)
    layer_names = [m["name"] for m in spec["per_layer"]]
    for line in lines:
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == layer_names
    assert json.loads(completed.stdout.splitlines()[-1]) == json.loads(
        lines[-1]
    )

    with open(tmp_path / "results.json", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["schema"] == RESULTS_SCHEMA and payload["valid"]
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    for record in payload["records"]:
        assert list(record["end_to_end"]) == e2e_names
        assert all(value > 0 for value in record["end_to_end"].values())
        assert all(gate["ok"] for gate in record["gates"])
    for workload in workloads:
        assert (tmp_path / f"{workload}.trace.json").is_file()
    assert not (tmp_path / "serve-lone.work").exists()


def test_untraced_run_prints_end_to_end_metrics_last(tmp_path):
    spec = load_spec()
    completed = _run(
        ["--toy", "--workload", "serve-lone", "--seed", "7",
         "--seconds", "0.3", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", "baseline"),
    )
    completed = _run(
        ["--workload", "train-eager", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=str(tmp_path), timeout=60,
    )
    assert completed.returncode != 0
    assert not any(line.startswith("{")
                   for line in completed.stdout.splitlines())
