"""Anchor-link instantiation policies (paper §VI-A).

The paper instantiates one-to-one anchors by the top-1 rule
(:func:`repro.metrics.top1_matching`) and notes that "other alignment
settings such as one-to-many can be instantiated as well, but out of the
scope of our paper".  :func:`one_to_many` provides that setting on top of
any alignment matrix: every target within a score threshold or top-k, for
differently sized networks where a source node may match several targets
(§II-B flexibility argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..metrics.matching import _validate_scores

__all__ = ["AnchorLink", "one_to_many"]


@dataclass(frozen=True)
class AnchorLink:
    """One predicted anchor with its alignment score."""

    source: int
    target: int
    score: float


def one_to_many(
    scores: np.ndarray,
    max_targets: int = 5,
    threshold: Optional[float] = None,
    relative_threshold: Optional[float] = None,
) -> Dict[int, List[AnchorLink]]:
    """Up to ``max_targets`` links per source node.

    Selection: targets must score above ``threshold`` (absolute) and/or
    within ``relative_threshold`` of the row maximum; by default only the
    ``max_targets`` cap applies.  Suits size-imbalanced settings where one
    account matches several candidate accounts (§II-B).
    """
    scores = _validate_scores(scores, "one_to_many")
    if max_targets < 1:
        raise ValueError(f"max_targets must be >= 1, got {max_targets}")
    if relative_threshold is not None and not 0.0 <= relative_threshold <= 1.0:
        raise ValueError(
            f"relative_threshold must be in [0, 1], got {relative_threshold}"
        )
    n_source, n_target = scores.shape
    k = min(max_targets, n_target)
    links: Dict[int, List[AnchorLink]] = {}
    top = np.argpartition(scores, -k, axis=1)[:, -k:]
    for source in range(n_source):
        row = scores[source]
        candidates = top[source][np.argsort(row[top[source]])[::-1]]
        row_max = row[candidates[0]]
        selected = []
        for target in candidates:
            value = float(row[target])
            if threshold is not None and value < threshold:
                continue
            if (
                relative_threshold is not None
                and value < row_max * relative_threshold
            ):
                continue
            selected.append(AnchorLink(source, int(target), value))
        links[source] = selected
    return links

