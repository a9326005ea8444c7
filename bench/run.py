"""Run the benchmark: train → align → serve, end to end and per layer.

    python3 bench/run.py [--workload NAME ...] [--seed 20200420]
                         [--seconds S] [--trace 0|1] [--runs N]
                         [--out bench/out] [--toy]

Each workload run gets a fresh process (``bench/workloads.py``) with
BLAS pinned to one thread, no bytecode writes, and a fixed hash seed.
For every run the command prints each metric by name with its unit, the
correctness gates, and, as the last line of its output, the JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.  All records of
the invocation are written to ``<out>/results.json`` (read by
``bench/compare.py``); traced runs also write
``<out>/<workload>.trace.json``.

Exit status: 0 when every run completed and passed its gates, 1 when a
gate failed, 2 when a run could not complete.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402

from harness import BENCH_DIR, RESULTS_SCHEMA, ROOT, load_spec, metric_specs  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "workloads.py")
DEFAULT_SEED = 20200420
#: A run must end within 180 s; the worker gets this long before it is killed.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    # Two shared cores: one BLAS thread keeps runs steady and comparable.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    # Tracked bytecode must not be rewritten; cache striping must not
    # depend on the interpreter's random hash seed.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               out: str, toy: bool) -> dict:
    command = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ] + (["--toy"] if toy else [])
    completed = subprocess.run(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} (seed {seed}) exited with status "
            f"{completed.returncode}"
        )
    return json.loads(lines[-1])


def report(record: dict, spec: dict) -> None:
    """Print one run's metrics with units, its gates and counts."""
    trace = record["trace"]
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  {'traced' if trace else 'untraced'}")
    sections = [("end_to_end", record["end_to_end"])]
    if trace:
        sections.append(("per_layer", record["per_layer"]))
    for section, values in sections:
        specs = metric_specs(spec, trace=section == "per_layer")
        for name, value in values.items():
            print(f"  {name:<26} {value:>14.6g} {specs[name]['unit']}")
    for key, value in record["details"].items():
        print(f"  - {key}: {value}")
    for gate in record["gates"]:
        status = "ok  " if gate["ok"] else "FAIL"
        detail = f"  ({gate['detail']})" if gate["detail"] else ""
        print(f"  [{status}] {gate['name']}{detail}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {str(record['correct']).lower()}")


def contract_line(record: dict, spec: dict) -> str:
    section = "per_layer" if record["trace"] else "end_to_end"
    specs = metric_specs(spec, trace=record["trace"])
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": specs[name]["unit"]}
            for name, value in record[section].items()
        },
    })


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", nargs="+", default=workloads,
                        choices=workloads, metavar="NAME",
                        help=f"any of {', '.join(workloads)} (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, reporting per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ..."
                        " (a set, as compare.py reads it)")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"))
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the harness self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    records = []
    lines = []
    # Round-robin over workloads, so that a slow spell on the shared
    # machine spreads over every workload instead of one.
    for offset in range(args.runs):
        for workload in args.workload:
            try:
                record = run_worker(
                    workload, args.seed + offset, args.seconds, args.trace,
                    out, args.toy,
                )
            except (RuntimeError, subprocess.TimeoutExpired) as error:
                print(f"bench: {error}", file=sys.stderr)
                return 2
            records.append(record)
            report(record, spec)
            lines.append(contract_line(record, spec))
            print(lines[-1], flush=True)
    with open(os.path.join(out, "results.json"), "w",
              encoding="utf-8") as handle:
        json.dump({
            "schema": RESULTS_SCHEMA,
            "valid": all(record["correct"] for record in records),
            "records": records,
        }, handle, indent=1)
        handle.write("\n")
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
