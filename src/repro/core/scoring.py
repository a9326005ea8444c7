"""The one Eq 11/12 scorer: blocks of S and the top-k chosen from them.

Every "who does v align to" answer comes from rows of
``S = Σ_l θ(l) · H_s(l) · H_t(l)ᵀ`` (Eq 11-12), computed one block at a
time so S is never held whole (§VI-C).  :mod:`repro.core.streaming`
blocks by source rows, the serving indexes by target columns; all of
them build and select through this module, the only place that knows:

* **validation** — :func:`check_layers`;
* **the block** — :func:`score_block`: per-layer ``θ(l) · (S_rows @
  T_rowsᵀ)`` partials summed layer by layer, non-finite entries set to
  ``-inf`` so NaN/Inf embeddings can never win a top-k or outrank a true
  anchor;
* **running-kth selection** — :class:`RunningTopK`: a ``(batch, k)``
  buffer of the k largest values per row (``-inf`` until k were seen),
  raised by one ``partition`` per block;
* **canonical order** — :func:`canonical_top_k`: descending score, then
  ascending target id, so ties resolve identically on every path and a
  top-k answer is a prefix of the top-(k+1) answer.

Batch invariance
----------------
BLAS picks its GEMM kernel by operand shape, so the same score can
round differently in products of different heights or widths.  The
contract kept here, for any one block partition:

* target ids and their tie order are the same for a source queried
  alone or inside any batch;
* scores are bitwise equal across batches of equal height;
* a lone query (padded to two rows by the index, so the GEMV kernel is
  never used) may differ from the same row inside a batch by ≤2 ULP.

Fixed-height tiles would make scores bitwise across heights too, but a
prototype made lone queries 6× slower and batches 4-14 % slower, so
they are not used.  Integer-valued products are exact in any kernel,
which is why the tie tests use them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "check_layers",
    "score_block",
    "RunningTopK",
    "canonical_top_k",
]


def check_layers(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
) -> Tuple[List[np.ndarray], List[np.ndarray], List[float]]:
    """Per-layer embeddings as float arrays and θ(l) as Python floats.

    Raises ``ValueError`` for an empty side, mismatched layer or weight
    counts, and layers that are not 2-D with the row count of layer 0.
    """
    if len(source_embeddings) == 0 or len(target_embeddings) == 0:
        raise ValueError("need at least one layer of embeddings per side")
    if len(source_embeddings) != len(target_embeddings):
        raise ValueError(
            f"layer count mismatch: {len(source_embeddings)} source vs "
            f"{len(target_embeddings)} target layers"
        )
    if len(layer_weights) != len(source_embeddings):
        raise ValueError(
            f"layer_weights has {len(layer_weights)} entries for "
            f"{len(source_embeddings)} layers"
        )
    sides = []
    for name, layers in (
        ("source", source_embeddings), ("target", target_embeddings)
    ):
        layers = [np.asarray(layer) for layer in layers]
        layers = [h.astype(np.result_type(h, 1.0), copy=False) for h in layers]
        rows = layers[0].shape[0]
        for index, layer in enumerate(layers):
            if layer.ndim != 2 or layer.shape[0] != rows:
                raise ValueError(
                    f"{name} layer {index} has shape {layer.shape}, "
                    f"expected 2-D with {rows} rows like layer 0"
                )
        sides.append(layers)
    return sides[0], sides[1], [float(w) for w in layer_weights]


def score_block(
    source_rows: Sequence[np.ndarray],
    target_rows: Sequence[np.ndarray],
    weights: Sequence[float],
) -> Tuple[np.ndarray, int]:
    """``Σ_l θ(l) · source_rows[l] @ target_rows[l]ᵀ`` and its bad count.

    Non-finite entries are set to ``-inf``; the second value counts them
    (0 for a healthy block) so each caller records the event under its
    own metric name.  The arithmetic is in place but bitwise equal to
    ``weight * (S @ Tᵀ)`` partials added layer by layer.
    """
    block = None
    for rows, targets, weight in zip(source_rows, target_rows, weights):
        partial = rows @ targets.T
        partial *= weight
        if block is None:
            block = partial
        else:
            block += partial
        # Freed before the next layer's product: two blocks at most.
        del partial
    finite = np.isfinite(block)
    if finite.all():
        return block, 0
    np.logical_not(finite, out=finite)
    block[finite] = -np.inf
    return block, int(np.count_nonzero(finite))


def canonical_top_k(
    rows: np.ndarray, ids: np.ndarray, scores: np.ndarray, batch: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """First ``k`` pooled candidates per row in canonical order.

    ``rows``/``ids``/``scores`` are parallel 1-D arrays, one entry per
    candidate.  One ``lexsort`` keyed (row, descending score, ascending
    id) orders every row at once; an entry's rank within its row is its
    distance from the row's first sorted position.  Returns
    ``(targets, scores)`` of shape ``(batch, k)``; rows with fewer than
    ``k`` candidates are right-padded with ``(-1, -inf)``.
    """
    order = np.lexsort((ids, -scores, rows))
    rows = rows[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = rank < k
    rows, rank, order = rows[keep], rank[keep], order[keep]
    out_targets = np.full((batch, k), -1, dtype=np.int64)
    out_scores = np.full((batch, k), -np.inf)
    out_targets[rows, rank] = ids[order]
    out_scores[rows, rank] = scores[order]
    return out_targets, out_scores


class RunningTopK:
    """Top-k per row of a ``(batch, n_target)`` matrix fed block by block.

    Each :meth:`push` folds one column block into the ``(batch, k)``
    buffer of the k largest values seen per row, with one ``partition``,
    and keeps only the block entries ``>=`` the row's running kth as
    ``(row, id, value)`` candidates.  kth only rises, so an entry below
    it is strictly below the final kth: every canonical top-k member,
    boundary ties included, survives.  Transient memory is
    O(block + survivors); no full row is ever held or sorted.
    """

    def __init__(self, batch: int, k: int) -> None:
        self.batch = int(batch)
        self.k = int(k)
        self._best = np.full((self.batch, self.k), -np.inf)
        self._rows = [np.empty(0, dtype=np.int64)]
        self._ids = [np.empty(0, dtype=np.int64)]
        self._values = [np.empty(0)]

    @property
    def kth(self) -> np.ndarray:
        """The running kth-largest value per row (``-inf`` before k)."""
        return self._best[:, 0]

    def push(
        self,
        block: np.ndarray,
        start: int = 0,
        rows: Optional[np.ndarray] = None,
        bound: Optional[np.ndarray] = None,
    ) -> None:
        """Fold in ``block``: the values of ids ``[start, start + width)``
        for batch ``rows`` (every row when ``None``).

        ``bound`` (default: ``block``) holds the values that raise kth.
        A caller with bracketed estimates passes lower bounds here and
        upper bounds as ``block``, so a kept entry is one whose upper
        bound reaches the k-th best lower bound.
        """
        bound = block if bound is None else bound
        index = slice(None) if rows is None else rows
        merged = np.concatenate([self._best[index], bound], axis=1)
        merged.partition(bound.shape[1], axis=1)
        self._best[index] = merged[:, -self.k:]
        del merged  # a block-sized copy: freed before the hit mask
        kth = self.kth[index]
        hit = np.flatnonzero(block >= kth[:, None])
        hit_rows, columns = np.divmod(hit, block.shape[1])
        self._rows.append(hit_rows if rows is None else rows[hit_rows])
        self._ids.append(columns + start)
        self._values.append(np.take(block, hit))

    def candidates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kept ``(rows, ids, values)`` that reach the final kth."""
        rows = np.concatenate(self._rows)
        values = np.concatenate(self._values)
        final = values >= self.kth[rows]
        return rows[final], np.concatenate(self._ids)[final], values[final]

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, scores)`` of shape ``(batch, k)``, canonical order."""
        return canonical_top_k(*self.candidates(), self.batch, self.k)
