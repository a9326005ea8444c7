"""Set-valued metrics for one-to-many alignment instantiation.

The ranking metrics of :mod:`repro.metrics.ranking` evaluate score
matrices; when the output is instead a *set* of candidate links per source
(the one-to-many setting of paper §II-B / §VI-A), precision/recall over the
link sets is the natural view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

__all__ = ["SetwiseReport", "evaluate_link_sets"]


@dataclass
class SetwiseReport:
    """Precision/recall/F1 over predicted link sets."""

    precision: float
    recall: float
    f1: float
    predicted_links: int
    true_links: int
    #: Fraction of sources with at least one predicted link.
    source_coverage: float

    def __str__(self) -> str:
        return (
            f"P={self.precision:.4f} R={self.recall:.4f} F1={self.f1:.4f} "
            f"({self.predicted_links} predicted / {self.true_links} true)"
        )


def _normalize(predicted: Dict[int, Iterable]) -> Dict[int, Set[int]]:
    normalized: Dict[int, Set[int]] = {}
    for source, candidates in predicted.items():
        targets: Set[int] = set()
        for candidate in candidates:
            # Accept AnchorLink-like objects, (target, score) tuples, ints.
            if hasattr(candidate, "target"):
                targets.add(int(candidate.target))
            elif isinstance(candidate, tuple):
                targets.add(int(candidate[0]))
            else:
                targets.add(int(candidate))
        normalized[source] = targets
    return normalized


def evaluate_link_sets(
    predicted: Dict[int, Iterable],
    groundtruth: Dict[int, int],
) -> SetwiseReport:
    """Score predicted link sets against one-to-one ground truth.

    A prediction (v, v') is correct iff ``groundtruth[v] == v'``.  Recall
    counts how many true anchors appear in their source's predicted set.
    """
    if not groundtruth:
        raise ValueError("groundtruth is empty")
    link_sets = _normalize(predicted)
    total_predicted = sum(len(targets) for targets in link_sets.values())
    hits = sum(
        1
        for source, truth in groundtruth.items()
        if truth in link_sets.get(source, ())
    )
    precision = hits / total_predicted if total_predicted else 0.0
    recall = hits / len(groundtruth)
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    covered = sum(1 for targets in link_sets.values() if targets)
    coverage = covered / len(link_sets) if link_sets else 0.0
    return SetwiseReport(
        precision=precision,
        recall=recall,
        f1=f1,
        predicted_links=total_predicted,
        true_links=len(groundtruth),
        source_coverage=coverage,
    )

