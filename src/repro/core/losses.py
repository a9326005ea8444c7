"""GAlign loss functions (paper §V-B, §V-C, Eq 7/9/10).

* :func:`consistency_loss` — pull the per-layer embedding Gram matrix toward
  the normalized Laplacian, enforcing structural + attribute consistency
  while avoiding embedding-space collapse (Eq 7).  It is exact and never
  forms the n×n Gram: each layer's term is one
  :func:`~repro.autograd.gram_residual_norm`, O(nnz·d + n·d²) time and
  O(n·d) memory.
* :func:`adaptivity_loss` — match multi-order embeddings of a network and
  its perturbed copy, gated by the σ_< confidence threshold (Eq 9).  Each
  layer's term is one :func:`~repro.autograd.gated_row_distance`.
* :func:`combined_loss` — γ-weighted total (Eq 10).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, gated_row_distance, gram_residual_norm

__all__ = ["consistency_loss", "adaptivity_loss", "combined_loss"]


def consistency_loss(
    propagation: sp.spmatrix,
    embeddings: Sequence[Tensor],
) -> Tensor:
    """Eq 7: Σ_l || C − H(l) H(l)ᵀ ||_F over layers 1..k.

    ``embeddings`` is the full multi-order list [H(0)..H(k)]; H(0) is the
    input attributes and carries no trainable signal, so the sum starts at
    layer 1 as in the paper.

    The target is the normalized Laplacian rather than the adjacency matrix
    — the paper's choice to enrich embeddings with topology while keeping
    the spectrum bounded (avoids collapsing the embedding space).
    """
    if len(embeddings) < 2:
        raise ValueError("need at least one trained layer (k >= 1)")
    total = None
    for hidden in embeddings[1:]:
        term = gram_residual_norm(propagation, hidden)
        total = term if total is None else total + term
    return total


def adaptivity_loss(
    embeddings: Sequence[Tensor],
    augmented_embeddings: Sequence[Tensor],
    correspondence: np.ndarray,
    threshold: float = 1.0,
) -> Tensor:
    """Eq 9: Σ_v Σ_l σ_<( || H(l)(v) − H*(l)(v*) || ).

    Parameters
    ----------
    embeddings, augmented_embeddings:
        Multi-order features of the original network and one augmented copy.
    correspondence:
        ``correspondence[v]`` is the index of node v inside the augmented
        network (the permutation applied during augmentation, Eq 8); it
        must be a permutation, or ``ValueError`` is raised.
    threshold:
        The σ_< gate: per-node embedding distances at or above it are
        masked to zero so uncontrollable perturbations cannot poison the
        model.
    """
    if len(embeddings) != len(augmented_embeddings):
        raise ValueError("layer counts differ between original and augmented")
    correspondence = np.asarray(correspondence, dtype=int)
    total = None
    for original, augmented in zip(embeddings[1:], augmented_embeddings[1:]):
        term = gated_row_distance(original, augmented, correspondence,
                                  threshold)
        total = term if total is None else total + term
    return total


def combined_loss(
    consistency: Tensor,
    adaptivity: Tensor | None,
    gamma: float,
) -> Tensor:
    """Eq 10: J = γ J_c + (1 − γ) Σ J_a.

    ``adaptivity`` may be None when augmentation is disabled (GAlign-1
    ablation); the consistency term is then returned unweighted so the
    learning-rate scale stays comparable.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if adaptivity is None:
        return consistency
    return consistency * gamma + adaptivity * (1.0 - gamma)
