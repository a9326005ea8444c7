"""Matching instantiation from alignment matrices.

The paper uses the top-1 ranking rule (§VI-A) for one-to-one settings;
this module also provides greedy bipartite matching and the optimal
Hungarian assignment for downstream users who need injective alignments.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["top1_matching", "greedy_bipartite_matching", "hungarian_matching"]


def _validate_scores(scores: np.ndarray, caller: str) -> np.ndarray:
    """Reject degenerate score matrices with an actionable ``ValueError``.

    An empty or zero-column matrix used to surface as an opaque numpy
    ``argmax``/``argsort`` or scipy LAP failure; name the offending
    dimension instead.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError(
            f"{caller} needs a 2-D (source x target) score matrix, got "
            f"shape {scores.shape}"
        )
    if scores.shape[0] == 0:
        raise ValueError(
            f"{caller}: score matrix has 0 source rows (shape "
            f"{scores.shape}); there are no nodes to match"
        )
    if scores.shape[1] == 0:
        raise ValueError(
            f"{caller}: score matrix has 0 target columns (shape "
            f"{scores.shape}); there are no candidate targets"
        )
    return scores


def top1_matching(scores: np.ndarray) -> Dict[int, int]:
    """Per-row argmax (the paper's instantiation rule; not injective)."""
    scores = _validate_scores(scores, "top1_matching")
    return {int(v): int(t) for v, t in enumerate(scores.argmax(axis=1))}


def greedy_bipartite_matching(scores: np.ndarray) -> Dict[int, int]:
    """Injective matching by repeatedly taking the globally best free pair.

    O((n·m) log(n·m)) via one sort of all score entries; a standard strong
    heuristic when the Hungarian algorithm is too slow.
    """
    scores = _validate_scores(scores, "greedy_bipartite_matching")
    n, m = scores.shape
    order = np.argsort(scores, axis=None)[::-1]
    used_sources = np.zeros(n, dtype=bool)
    used_targets = np.zeros(m, dtype=bool)
    matching: Dict[int, int] = {}
    limit = min(n, m)
    for flat in order:
        source, target = divmod(int(flat), m)
        if used_sources[source] or used_targets[target]:
            continue
        matching[source] = target
        used_sources[source] = True
        used_targets[target] = True
        if len(matching) == limit:
            break
    return matching


def hungarian_matching(scores: np.ndarray) -> Dict[int, int]:
    """Optimal injective matching maximizing the total score (scipy LAP)."""
    from scipy.optimize import linear_sum_assignment

    scores = _validate_scores(scores, "hungarian_matching")
    rows, cols = linear_sum_assignment(-scores)
    return {int(r): int(c) for r, c in zip(rows, cols)}
