"""Free-function differentiable operations on :class:`~repro.autograd.Tensor`.

These complement the methods on ``Tensor`` with operations that either take
multiple tensors (``concat``, ``stack``), mix sparse and dense operands
(``spmm``, ``gram_residual_norm``), or implement the paper-specific
activations (``threshold_mask`` for the σ_< gate of the adaptivity loss,
Eq 9).  Each graph-building function checks its arguments and makes one
:func:`~repro.autograd.tensor.apply` call; the arithmetic lives in the op
table (:mod:`repro.autograd.optable`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, apply

__all__ = [
    "spmm",
    "concat",
    "stack",
    "row_norms",
    "frobenius_norm",
    "gram_residual_norm",
    "normalize_rows",
    "threshold_mask",
    "softmax",
    "log_softmax",
    "dropout_mask",
]


def spmm(sparse_matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Sparse @ dense product where the sparse operand is a constant.

    The GCN propagation rule (Eq 1) multiplies the fixed normalized Laplacian
    ``C`` with the parameter-dependent matrix ``H W``.  ``C`` never requires
    gradients, so the adjoint only flows into ``dense``:

        d/d(dense) [C @ dense] applied to G  =  C.T @ G
    """
    if not sp.issparse(sparse_matrix):
        raise TypeError("spmm expects a scipy sparse matrix as the left operand")
    return apply("spmm", (dense,), csr=sparse_matrix.tocsr())


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; gradient splits back."""
    return apply("concat", tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    return apply("stack", tensors, axis=axis)


def row_norms(matrix: Tensor, eps: float = 1e-12) -> Tensor:
    """Per-row Euclidean norms of a 2-D tensor, shape ``(n,)``.

    Used by the adaptivity loss: ``||H(v) - H*(v)||`` for every node v at
    once.  ``eps`` keeps the square root differentiable at zero rows.
    """
    squared = (matrix * matrix).sum(axis=1)
    return (squared + eps).sqrt()


def frobenius_norm(matrix: Tensor, eps: float = 1e-12) -> Tensor:
    """Frobenius norm of a matrix as a scalar tensor."""
    squared = (matrix * matrix).sum()
    return (squared + eps).sqrt()


def gram_residual_norm(sparse_matrix: sp.spmatrix, dense: Tensor,
                       eps: float = 1e-12) -> Tensor:
    """``||C − H Hᵀ||_F`` for a constant sparse ``C``, without ``H Hᵀ``.

    The Eq 7 term, through ``||C||²_F − 2⟨H, C H⟩ + ||HᵀH||²_F``: value
    and gradient (into ``dense`` only, as for :func:`spmm`) cost
    O(nnz·d + n·d²) time and O(n·d) memory.  ``eps`` keeps the square
    root differentiable at a zero residual.
    """
    if not sp.issparse(sparse_matrix):
        raise TypeError(
            "gram_residual_norm expects a scipy sparse matrix as the "
            "left operand"
        )
    return apply("gram_residual_norm", (dense,), csr=sparse_matrix.tocsr(),
                 eps=float(eps))


def normalize_rows(matrix: Tensor, eps: float = 1e-12) -> Tensor:
    """L2-normalize each row; rows of (near-)zero norm are left tiny.

    Row-normalized embeddings make the inner-product alignment matrix
    (Eq 11) a cosine similarity, which is how alignment scores are made
    comparable across layers.
    """
    norms = row_norms(matrix, eps=eps)
    inverse = norms.reshape(len(matrix), 1) ** -1.0
    return matrix * inverse


def threshold_mask(values: Tensor, threshold: float) -> Tensor:
    """The paper's σ_< activation (Eq 9): identity below ``threshold``, 0 above.

    Gradients flow only through entries below the threshold, implementing the
    confidence gate that ignores perturbations large enough to have destroyed
    a node's neighbourhood.
    """
    return apply("threshold_mask", (values,), threshold=threshold)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax."""
    return apply("softmax", (logits,), axis=axis)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    return apply("log_softmax", (logits,), axis=axis)


def dropout_mask(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask (constant w.r.t. gradients).

    Returned as a plain array so callers multiply tensors by it; scaling by
    ``1 / (1 - rate)`` keeps expectations unchanged at train time.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)
