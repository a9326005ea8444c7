"""Normalized Laplacian / GCN propagation matrices (paper Eq 1, Table I).

The GCN propagation operator is ``C = D̂^{-1/2} Â D̂^{-1/2}`` where
``Â = A + I`` and ``D̂`` is the diagonal degree matrix of ``Â``.  The paper's
refinement step (Eq 15) replaces ``D̂`` with ``D̂ Q`` where ``Q`` carries
per-node influence factors; :func:`weighted_propagation_matrix` implements
that generalization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph

__all__ = [
    "propagation_matrix",
    "weighted_propagation_matrix",
]


def propagation_matrix(graph: AttributedGraph) -> sp.csr_matrix:
    """Symmetric normalized propagation matrix ``C = D̂^{-1/2} Â D̂^{-1/2}``.

    Cost is O(e) as analysed in paper §VI-C: Â is sparse and D̂ diagonal.
    """
    a_hat = graph.adjacency_with_self_loops()
    degrees = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    scaling = sp.diags(inv_sqrt)
    return (scaling @ a_hat @ scaling).tocsr()


def weighted_propagation_matrix(
    graph: AttributedGraph,
    influence: np.ndarray,
) -> sp.csr_matrix:
    """Noise-aware propagation matrix of Eq 15: ``D̂_q^{-1/2} Â D̂_q^{-1/2}``.

    ``D̂_q = D̂ Q`` with ``Q = diag(influence)``; stable nodes carry
    influence > 1 after refinement (Eq 14), shrinking their normalization
    denominator and thereby *amplifying* their contribution to neighbours.

    Parameters
    ----------
    influence:
        Positive per-node influence factors α(v), shape ``(n,)``.
    """
    influence = np.asarray(influence, dtype=np.float64).ravel()
    if influence.shape[0] != graph.num_nodes:
        raise ValueError(
            f"influence length {influence.shape[0]} != n={graph.num_nodes}"
        )
    if np.any(influence <= 0.0):
        raise ValueError("influence factors must be strictly positive")
    a_hat = graph.adjacency_with_self_loops()
    degrees = np.asarray(a_hat.sum(axis=1)).ravel()
    weighted = degrees * influence
    inv_sqrt = 1.0 / np.sqrt(np.maximum(weighted, 1e-12))
    scaling = sp.diags(inv_sqrt)
    return (scaling @ a_hat @ scaling).tocsr()
