"""Sampled losses for large-graph training.

The full consistency loss (Eq 7) materializes the n×n Gram matrix
``H(l) H(l)ᵀ`` every epoch — the memory/time bottleneck the paper's
complexity analysis (§VI-C) works around on the alignment side but not
during training.  This module provides the standard estimator that removes
it: compare the propagation matrix and the embedding Gram on a *sampled*
set of node pairs (all edges of a random node batch plus uniformly sampled
negative pairs), giving an O(batch·d) training step.

With the full pair set the sampled loss equals the squared-Frobenius
objective restricted to those pairs; in expectation over uniform sampling
it is proportional to the full loss, so the optimization target is
unchanged.  ``GAlignConfig(trainer="sampled")`` makes
:class:`~repro.core.GAlignTrainer` use it, with ``sample_batch_size`` and
``sample_negatives`` as the batch and negative counts.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor

__all__ = ["sampled_consistency_loss"]


def sampled_consistency_loss(
    propagation: sp.spmatrix,
    embeddings,
    node_batch: np.ndarray,
    num_negatives: int,
    rng: np.random.Generator,
) -> Tensor:
    """Eq 7 restricted to sampled pairs (squared form).

    Pairs = every (u, v) with u in ``node_batch`` and v a neighbour of u in
    the propagation structure (the informative non-zeros of C), plus
    ``num_negatives`` uniform pairs per batch node (the zeros of C that
    keep embeddings from collapsing together).

    Uses the squared Frobenius residual (sum of squared entry errors),
    which shares its minimizer with Eq 7's norm form and is cheaper to
    differentiate.
    """
    csr = propagation.tocsr()
    n = csr.shape[0]
    rows: List[int] = []
    cols: List[int] = []
    for u in node_batch:
        start, stop = csr.indptr[u], csr.indptr[u + 1]
        neighbors = csr.indices[start:stop]
        rows.extend([int(u)] * len(neighbors))
        cols.extend(int(v) for v in neighbors)
        negatives = rng.integers(0, n, size=num_negatives)
        rows.extend([int(u)] * num_negatives)
        cols.extend(int(v) for v in negatives)
    row_index = np.asarray(rows)
    col_index = np.asarray(cols)
    targets = Tensor(np.asarray(csr[row_index, col_index]).ravel())

    total = None
    for hidden in embeddings[1:]:
        left = hidden[row_index]
        right = hidden[col_index]
        predicted = (left * right).sum(axis=1)
        residual = predicted - targets
        term = (residual * residual).sum()
        total = term if total is None else total + term
    return total
