"""Hyper-parameter search over GAlign configurations (paper §VII-E).

A small deterministic grid search that reruns GAlign with candidate
configurations on a validation pair and ranks them by a chosen metric —
the programmatic counterpart of the paper's sensitivity study (layer count,
embedding dimension, layer weights, γ).

Its evaluation loop (:func:`_run_candidates`) can fan candidates out
over a :class:`~repro.parallel.WorkerPool` (``workers >= 1``); the
validation pair travels to workers through shared memory, each candidate
re-derives the exact RNG the serial loop would use, and results come
back in submission order — so parallel search is bit-identical to
``workers=0``.

Ranking is fully deterministic: ties on the target metric are broken by a
canonical serialization of the overrides, never by submission order.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import GAlign, GAlignConfig
from ..graphs import AlignmentPair
from ..metrics import evaluate_alignment
from ..observability import get_registry
from ..parallel import (
    AttachedArrays,
    SharedArrayStore,
    WorkerPool,
    load_pair,
    publish_pair,
    resolve_workers,
)

__all__ = ["TuningResult", "grid_search"]


@dataclass
class TuningResult:
    """One evaluated configuration."""

    overrides: Dict
    config: GAlignConfig
    metric_value: float
    elapsed_seconds: float
    report: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        settings = ", ".join(f"{k}={v}" for k, v in self.overrides.items())
        return f"{self.metric_value:.4f}  [{settings}]  ({self.elapsed_seconds:.1f}s)"


def _overrides_key(overrides: Mapping) -> str:
    """Canonical serialization of an overrides dict, used to break ties.

    Sorting ties on the target metric by this key (instead of leaving
    them in evaluation order) makes the ranking a pure function of the
    candidate set — stable under parallel evaluation, dict ordering, and
    grid enumeration changes.
    """
    return repr(sorted(overrides.items(), key=lambda item: item[0]))


def _evaluate_config(
    config: GAlignConfig,
    pair: AlignmentPair,
    metric: str,
    rng: np.random.Generator,
) -> tuple:
    started = time.perf_counter()
    result = GAlign(config).align(pair, rng=rng)
    elapsed = time.perf_counter() - started
    report = evaluate_alignment(result.scores, pair.groundtruth)
    values = report.as_dict()
    if metric not in values:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(values)}"
        )
    return values[metric], values, elapsed


def _candidate_task(handle: Dict, config: GAlignConfig, metric: str, seed: int):
    """Worker task: evaluate one candidate on the shm-published pair.

    Seeds ``default_rng(seed)`` per candidate exactly as the serial loop
    does, so the evaluation is bit-identical to ``workers=0``.
    """
    with AttachedArrays(handle["manifest"]) as arrays:
        pair = load_pair(handle, arrays)
        return _evaluate_config(
            config, pair, metric, np.random.default_rng(seed)
        )


def _run_candidates(
    pair: AlignmentPair,
    candidates: Sequence[Tuple[Dict, GAlignConfig]],
    metric: str,
    seed: int,
    workers: Optional[int],
) -> List[TuningResult]:
    """Evaluate ``(overrides, config)`` candidates; return results best-first.

    Per-candidate ``default_rng(seed)``, optional process-pool fan-out,
    and the canonical deterministic ranking.
    """
    workers = resolve_workers(workers)
    if workers:
        registry = get_registry()
        with SharedArrayStore(registry=registry) as store:
            handle = publish_pair(store, pair)
            pool = WorkerPool(workers, registry=registry)
            outcomes = pool.map(
                _candidate_task,
                [(handle, config, metric, seed) for _, config in candidates],
                labels=[
                    f"tune[{_overrides_key(overrides)}]"
                    for overrides, _ in candidates
                ],
            )
    else:
        outcomes = [
            _evaluate_config(config, pair, metric, np.random.default_rng(seed))
            for _, config in candidates
        ]
    results = [
        TuningResult(overrides, config, value, elapsed, report)
        for (overrides, config), (value, report, elapsed) in zip(
            candidates, outcomes
        )
    ]
    # Deterministic ranking: best metric first, ties broken by the
    # canonical overrides serialization (sort() is stable, but relying on
    # evaluation order would make tied rankings an accident of history).
    results.sort(key=lambda r: (-r.metric_value, _overrides_key(r.overrides)))
    return results


def grid_search(
    pair: AlignmentPair,
    param_grid: Mapping[str, Sequence],
    base_config: Optional[GAlignConfig] = None,
    metric: str = "Success@1",
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[TuningResult]:
    """Evaluate the full Cartesian product of ``param_grid``.

    Parameters
    ----------
    param_grid:
        Mapping of GAlignConfig field name → candidate values, e.g.
        ``{"num_layers": [1, 2, 3], "gamma": [0.5, 0.8]}``.
    workers:
        Process-pool width for candidate evaluation; 0 = inline,
        ``None`` reads ``REPRO_WORKERS``.  Results are identical for
        every value.

    Returns
    -------
    list of TuningResult, best first (deterministic under ties).
    """
    if not param_grid:
        raise ValueError("param_grid is empty")
    if base_config is None:
        base_config = GAlignConfig()
    names = sorted(param_grid)
    candidates: List[Tuple[Dict, GAlignConfig]] = []
    for combination in itertools.product(*(param_grid[n] for n in names)):
        overrides = dict(zip(names, combination))
        candidates.append((overrides, replace(base_config, **overrides)))
    return _run_candidates(pair, candidates, metric, seed, workers)

