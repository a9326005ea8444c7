"""Compare two result sets of ``bench/run.py`` under the bounds in
``BENCHMARK.json``.

    python3 bench/compare.py BASE.json NEW.json           # regression check
    python3 bench/compare.py SET1.json SET2.json --agree  # same code twice

Each file is a ``results.json`` written by ``run.py``; a set holds one or
more untraced runs per workload (``run.py --runs N``).  For every
(end-to-end metric, workload) pair the medians of the two sets are
compared, and the run-to-run spread of each set is the distance between
its quartiles as a share of its median.  One row is printed per
workload, with a cell per metric and the workload's verdict.

Regression mode, per metric (``change`` is the median's move toward
worse, as a share of the base median):

* ``unresolved`` — either set's spread exceeds the bound, unless every
  run of NEW reads better than every run of BASE (then ``better``);
* ``worse``      — ``change`` exceeds the bound;
* ``better``     — the median improved by more than BASE's spread;
* ``within``     — anything else.

A workload reads as its most severe cell (worse > unresolved > better >
within).  Exit status 1 when any cell is ``worse``.

``--agree`` mode checks that two sets of the same code agree: for every
pair the medians differ by at most the bound, either way, and each set's
spread stays within the bound (``setup_s`` is exempt from the spread
check).  Exit status 1 when any pair disagrees.

A set whose runs failed a correctness gate is invalid: exit status 2.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import statistics  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

from harness import load_results, load_spec, quartile_spread  # noqa: E402

#: Metrics whose run-to-run spread is not held to the bound: set-up time
#: is measured a few times per run and only its median must hold.
SPREAD_EXEMPT = {"setup_s"}

SEVERITY = ("within", "better", "unresolved", "worse")


def end_to_end_values(records: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per untraced run]}}``."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if record["trace"]:
            continue
        per_metric = table.setdefault(record["workload"], {})
        for name, value in record["end_to_end"].items():
            per_metric.setdefault(name, []).append(float(value))
    return table


def worsening(base: float, new: float, better: str) -> float:
    """How far ``new`` moved toward worse, as a share of ``base``
    (negative when it improved)."""
    if base == 0:
        raise ValueError("a metric with a zero median has no relative change")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def regression_verdict(base: List[float], new: List[float], better: str,
                       bound: float) -> Tuple[str, float]:
    """``(verdict, change)`` for one (metric, workload) pair."""
    change = worsening(statistics.median(base), statistics.median(new),
                       better)
    base_spread = quartile_spread(base)
    if max(base_spread, quartile_spread(new)) > bound:
        if better == "lower":
            beats_all = max(new) < min(base)
        else:
            beats_all = min(new) > max(base)
        return ("better" if beats_all else "unresolved"), change
    if change > bound:
        return "worse", change
    if -change > base_spread:
        return "better", change
    return "within", change


def agree_verdict(first: List[float], second: List[float], bound: float,
                  check_spread: bool) -> Tuple[str, float]:
    """``(verdict, difference)``: ``agree`` or ``disagree`` for two sets of
    the same code; ``difference`` is the medians' gap as a share of the
    first median."""
    difference = abs(worsening(statistics.median(first),
                               statistics.median(second), "lower"))
    spreads_ok = not check_spread or max(
        quartile_spread(first), quartile_spread(second)
    ) <= bound
    ok = difference <= bound and spreads_ok
    return ("agree" if ok else "disagree"), difference


def compare(base_path: str, new_path: str, agree: bool, spec: dict,
            out=sys.stdout) -> int:
    sets = []
    for path in (base_path, new_path):
        valid, records = load_results(path)
        if not valid:
            print(f"{path}: invalid set (a correctness gate failed)",
                  file=out)
            return 2
        sets.append(end_to_end_values(records))
    base, new = sets
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in base and w["name"] in new]
    if not workloads:
        print("no workload has untraced runs in both sets", file=out)
        return 2
    failed = False
    print(f"{'workload':<16} {'verdict':<11} "
          + "  ".join(f"{m['name']:>20}" for m in metrics), file=out)
    for workload in workloads:
        cells, verdicts = [], []
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a, b = base[workload][name], new[workload][name]
            if agree:
                verdict, change = agree_verdict(
                    a, b, bound, name not in SPREAD_EXEMPT
                )
            else:
                verdict, change = regression_verdict(
                    a, b, metric["better"], bound
                )
            verdicts.append(verdict)
            cells.append(f"{change:+.3f}/{bound:g} {verdict}")
        if agree:
            row = "disagree" if "disagree" in verdicts else "agree"
            failed |= row == "disagree"
        else:
            row = max(verdicts, key=SEVERITY.index)
            failed |= row == "worse"
        print(f"{workload:<16} {row:<11} "
              + "  ".join(f"{cell:>20}" for cell in cells), file=out)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", help="results.json of the parent / set 1")
    parser.add_argument("new", help="results.json of the change / set 2")
    parser.add_argument("--agree", action="store_true",
                        help="check that two sets of the same code agree")
    args = parser.parse_args(argv)
    return compare(args.base, args.new, args.agree, load_spec())


if __name__ == "__main__":
    sys.exit(main())
