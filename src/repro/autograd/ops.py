"""Free-function differentiable operations on :class:`~repro.autograd.Tensor`.

These complement the methods on ``Tensor`` with operations that either take
multiple tensors (``concat``, ``stack``), mix sparse and dense operands
(``spmm``, ``gram_residual_norm``), or fuse a paper-specific chain into one
op (``normalize_rows`` for Eq 11's cosine rows, ``gated_row_distance`` for
one layer of the adaptivity loss with its σ_< gate, Eq 9).  Each
graph-building function checks its arguments and makes one
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
    "frobenius_norm",
    "gram_residual_norm",
    "normalize_rows",
    "gated_row_distance",
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
    """L2-normalize each row: ``x / sqrt(Σx² + eps)``; rows of (near-)zero
    norm are left tiny.

    Row-normalized embeddings make the inner-product alignment matrix
    (Eq 11) a cosine similarity, which is how alignment scores are made
    comparable across layers.
    """
    return apply("normalize_rows", (matrix,), eps=float(eps))


def gated_row_distance(original: Tensor, augmented: Tensor,
                       correspondence: np.ndarray, threshold: float,
                       eps: float = 1e-12) -> Tensor:
    """Eq 9 for one layer: ``Σ_v σ_<(‖A(v) − B(π(v))‖)`` as a scalar.

    ``correspondence`` is π: row ``v`` of ``original`` (A) matches row
    ``π(v)`` of ``augmented`` (B), and it must be a permutation of B's
    rows.  σ_< is the paper's confidence gate: a row whose distance is
    at or above ``threshold`` adds nothing and gets no gradient, so
    perturbations large enough to have destroyed a node's neighbourhood
    cannot poison the model.  ``eps`` keeps the norm differentiable at
    a zero row.
    """
    correspondence = np.asarray(correspondence)
    rows = len(original)
    if (
        correspondence.dtype.kind not in "iu"
        or correspondence.shape != (rows,)
        or len(augmented) != rows
        or not np.array_equal(np.sort(correspondence), np.arange(rows))
    ):
        raise ValueError(
            f"correspondence must map the original's {rows} rows "
            f"one-to-one onto the augmented network's {len(augmented)} rows"
        )
    inverse = np.empty(rows, dtype=np.intp)
    inverse[correspondence] = np.arange(rows)
    return apply("gated_row_distance", (original, augmented),
                 correspondence=correspondence, inverse=inverse,
                 threshold=float(threshold), eps=float(eps))


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
