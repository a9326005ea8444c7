"""Alignment evaluation metrics (paper §VII-A, Eq 16-18).

* Success@q (a.k.a. Accuracy@q): fraction of true anchors whose target is
  among the q best-scored candidates of its source row.
* MAP: mean reciprocal rank of the true target (pairwise setting).
* AUC: simplified ranking form for the all-nodes-must-match setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = [
    "anchor_ranks",
    "success_at",
    "auc",
    "EvaluationReport",
    "evaluate_alignment",
]


def anchor_ranks(scores: np.ndarray, groundtruth: Dict[int, int]) -> np.ndarray:
    """1-based rank of each true target within its source's score row.

    Rank 1 means the true anchor has the highest score.  Ties are broken
    pessimistically (tied candidates count as ranked above), so metrics
    never benefit from degenerate constant score rows.
    """
    if not groundtruth:
        raise ValueError("groundtruth is empty")
    ranks = np.empty(len(groundtruth), dtype=np.int64)
    for i, (source, target) in enumerate(sorted(groundtruth.items())):
        row = scores[source]
        true_score = row[target]
        # Pessimistic ties: strictly greater OR (equal and different index
        # earlier in arbitrary order) — count equal-scored others as above.
        above = np.count_nonzero(row > true_score)
        tied = np.count_nonzero(row == true_score) - 1
        ranks[i] = above + tied + 1
    return ranks


def success_at(
    scores: np.ndarray, groundtruth: Dict[int, int], q: int
) -> float:
    """Eq 16: Success@q over the true anchor links."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    ranks = anchor_ranks(scores, groundtruth)
    return float(np.mean(ranks <= q))


def auc(scores: np.ndarray, groundtruth: Dict[int, int]) -> float:
    """Eq 18: AUC = (#negatives + 1 − rank) / #negatives, averaged.

    ``#negatives`` is the number of non-anchor candidates per source row
    (n_target − 1).
    """
    negatives = scores.shape[1] - 1
    if negatives < 1:
        raise ValueError("AUC undefined with a single target candidate")
    ranks = anchor_ranks(scores, groundtruth)
    return float(np.mean((negatives + 1.0 - ranks) / negatives))


@dataclass
class EvaluationReport:
    """The metric bundle reported in the paper's tables."""

    map: float
    auc: float
    success_at_1: float
    success_at_10: float
    num_anchors: int

    @classmethod
    def from_ranks(
        cls, ranks: np.ndarray, n_target: int
    ) -> "EvaluationReport":
        """Eq 16-18 for 1-based anchor ranks among ``n_target`` targets."""
        ranks = np.asarray(ranks)
        negatives = max(1, n_target - 1)
        return cls(
            map=float(np.mean(1.0 / ranks)),
            auc=float(np.mean((negatives + 1.0 - ranks) / negatives)),
            success_at_1=float(np.mean(ranks <= 1)),
            success_at_10=float(np.mean(ranks <= 10)),
            num_anchors=len(ranks),
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "MAP": self.map,
            "AUC": self.auc,
            "Success@1": self.success_at_1,
            "Success@10": self.success_at_10,
        }

    def __str__(self) -> str:
        return (
            f"MAP={self.map:.4f} AUC={self.auc:.4f} "
            f"S@1={self.success_at_1:.4f} S@10={self.success_at_10:.4f}"
        )


def evaluate_alignment(
    scores: np.ndarray, groundtruth: Dict[int, int]
) -> EvaluationReport:
    """Compute MAP / AUC / Success@{1,10} in one pass over ranks."""
    return EvaluationReport.from_ranks(
        anchor_ranks(scores, groundtruth), scores.shape[1]
    )
