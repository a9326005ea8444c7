"""Alignment evaluation metrics and matching rules."""

from .ranking import (
    anchor_ranks,
    success_at,
    auc,
    EvaluationReport,
    evaluate_alignment,
)
from .matching import top1_matching, hungarian_matching
from .setwise import SetwiseReport, evaluate_link_sets

__all__ = [
    "anchor_ranks",
    "success_at",
    "auc",
    "EvaluationReport",
    "evaluate_alignment",
    "top1_matching",
    "hungarian_matching",
    "SetwiseReport",
    "evaluate_link_sets",
]
