"""Alignment instantiation from multi-order embeddings (paper §VI-A).

Layer-wise alignment matrices ``S(l) = H_s(l) H_t(l)ᵀ`` (Eq 11; embeddings
are row-normalized so this is cosine similarity) are fused into the final
matrix ``S = Σ_l θ(l) S(l)`` (Eq 12).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "layerwise_alignment_matrices",
    "aggregate_alignment",
    "alignment_quality",
]


def layerwise_alignment_matrices(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Eq 11 for every layer l in [0, k].

    Both inputs are multi-order lists [H(0)..H(k)] of row-normalized
    embeddings from the *same* weight-shared model, so no reconciliation
    step is needed.
    """
    if len(source_embeddings) != len(target_embeddings):
        raise ValueError(
            f"layer count mismatch: {len(source_embeddings)} vs "
            f"{len(target_embeddings)}"
        )
    matrices = []
    for h_source, h_target in zip(source_embeddings, target_embeddings):
        if h_source.shape[1] != h_target.shape[1]:
            raise ValueError(
                f"embedding dims differ at a layer: {h_source.shape[1]} vs "
                f"{h_target.shape[1]}"
            )
        matrices.append(h_source @ h_target.T)
    return matrices


def aggregate_alignment(
    matrices: Sequence[np.ndarray],
    layer_weights: Sequence[float],
) -> np.ndarray:
    """Eq 12: weighted sum of layer-wise matrices with importances θ(l)."""
    if len(matrices) != len(layer_weights):
        raise ValueError(
            f"{len(matrices)} matrices but {len(layer_weights)} weights"
        )
    if not matrices:
        raise ValueError("no layer-wise matrices to aggregate")
    total = np.zeros_like(matrices[0])
    for matrix, weight in zip(matrices, layer_weights):
        if matrix.shape != total.shape:
            raise ValueError("layer-wise matrices have inconsistent shapes")
        total += weight * matrix
    return total


def alignment_quality(scores: np.ndarray) -> float:
    """g(S) = Σ_v max S(v) — the greedy selection criterion of Alg 2."""
    return float(scores.max(axis=1).sum())
