"""The one Eq 11/12 scorer: blocks of S and the top-k chosen from them.

Every "who does v align to" answer comes from rows of
``S = Σ_l θ(l) · H_s(l) · H_t(l)ᵀ`` (Eq 11-12), computed one block at a
time so S is never held whole (§VI-C).  :mod:`repro.core.streaming`
blocks by source rows, the serving indexes by target columns; all of
them build and select through this module, the only place that knows
(Eq 13's stable-node scan, which needs every layer's block as well as
their sum, forms them itself in :func:`score_block`'s order):

* **validation** — :func:`check_layers`;
* **the block** — :func:`score_block`: per-layer ``θ(l) · (S_rows @
  T_rowsᵀ)`` partials summed layer by layer, non-finite entries set to
  ``-inf`` so NaN/Inf embeddings can never win a top-k or outrank a true
  anchor;
* **the reported score** — :func:`pair_scores`: one canonical value per
  (source, target) pair;
* **running-kth selection** — :class:`RunningTopK`: a ``(batch, k)``
  buffer of the k largest values per row (``-inf`` until k were seen),
  raised by one ``partition`` per block;
* **canonical order** — :func:`canonical_top_k`: descending score, then
  ascending target id, so ties resolve identically on every path and a
  top-k answer is a prefix of the top-(k+1) answer;
* **the exact top-k** — :func:`scan_top_k`: the one scan of target
  blocks that the serving index runs per query batch and streaming per
  source-row block.

Batch invariance
----------------
BLAS picks its GEMM kernel by operand shape, so a block entry's bits
depend on the block's height and width.  Blocks therefore only *select*
candidates; every reported score is the :func:`pair_scores` value of its
pair, which reads the two gathered rows alone.  A selector keeps each
block entry within a per-source :func:`score_slack` of its running kth.
The slack is at least twice the largest distance between any GEMM's
rounding of an entry and the canonical value, so every canonical top-k
member survives, ties included.  Scores, ids and tie order are then
bitwise the same for a source alone or in any batch, at any block
width, shard layout or path (index, ANN, streaming).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "check_layers",
    "score_block",
    "pair_scores",
    "score_slack",
    "RunningTopK",
    "canonical_top_k",
    "scan_top_k",
]


def check_layers(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
) -> Tuple[List[np.ndarray], List[np.ndarray], List[float]]:
    """Per-layer embeddings as float arrays and θ(l) as Python floats.

    Raises ``ValueError`` for a side with no layers or no rows, mismatched
    layer or weight counts, and layers that are not 2-D with the row count
    of layer 0.
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
        if rows == 0:
            raise ValueError(f"{name} embeddings have no rows")
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


#: Pairs per :func:`pair_scores` chunk: bounds its transient to
#: O(chunk · d) whatever the number of pairs.
PAIR_CHUNK = 1024


def pair_scores(
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
    weights: Sequence[float],
    source_ids: np.ndarray,
    target_ids: np.ndarray,
) -> np.ndarray:
    """Canonical ``S[source_ids[i], target_ids[i]]`` for each pair.

    Per layer ``θ(l) · (s * t).sum()`` over the two gathered rows, the
    layers summed in layer order, non-finite values set to ``-inf``.  A
    row sum depends on that row alone, so a pair scores the same bits
    alone, in any batch, in any chunk and from an mmap'd artifact.
    """
    source_ids = np.asarray(source_ids, dtype=np.int64)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    scores = np.zeros(source_ids.size, np.result_type(*source, *target))
    for start in range(0, source_ids.size, PAIR_CHUNK):
        rows = source_ids[start:start + PAIR_CHUNK]
        columns = target_ids[start:start + PAIR_CHUNK]
        chunk = scores[start:start + PAIR_CHUNK]
        for s, t, weight in zip(source, target, weights):
            chunk += weight * (s[rows] * t[columns]).sum(axis=1)
    scores[~np.isfinite(scores)] = -np.inf
    return scores


def score_slack(
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Per-source slack ``4·γ_n·Σ_l |θ_l|·‖q_l‖·max_u ‖t_l(u)‖``.

    A GEMM entry and its :func:`pair_scores` value each lie within
    ``γ_n·Σ_l |θ_l|·‖q_l‖·‖t_l(u)‖`` of the exact score (``γ_n = n·u /
    (1 - n·u)``, ``n`` = layer width + layer count), so a top-k member's
    entry lies within this slack of any running kth.  ``n`` is taken as
    twice the concatenated width plus layer count, which also covers
    rounding the slack and ``kth - slack``.
    Non-finite target rows (``-inf`` everywhere) are left out of the
    maxima; a NaN slack (a poisoned source row) becomes 0.
    """
    unit = np.finfo(np.result_type(*source, *target)).eps / 2
    n = 2 * (sum(layer.shape[1] for layer in source) + len(source))
    total = np.zeros(source[0].shape[0])
    for s, t, weight in zip(source, target, weights):
        reach = np.sqrt(np.einsum("ij,ij->i", t, t))
        reach = reach[np.isfinite(reach)].max(initial=0.0)
        total += abs(weight) * reach * np.sqrt(np.einsum("ij,ij->i", s, s))
    gamma = n * unit / (1 - n * unit)
    return np.nan_to_num(4 * gamma * total, nan=0.0, posinf=np.inf)


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
    and keeps only the block entries ``>=`` the row's running kth (less
    its ``slack``) as ``(row, id, value)`` candidates.  kth only rises,
    so an entry below it is strictly below the final kth: every top-k
    member, boundary ties included, survives.  Transient memory is
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
        slack: Optional[np.ndarray] = None,
    ) -> None:
        """Fold in ``block``: the values of ids ``[start, start + width)``
        for batch ``rows`` (every row when ``None``).

        ``bound`` (default: ``block``) holds the values that raise kth.
        A caller with bracketed estimates passes lower bounds here and
        upper bounds as ``block``, so a kept entry is one whose upper
        bound reaches the k-th best lower bound.  ``slack`` (per block
        row; :func:`score_slack`) lowers the bar to ``kth - slack``.
        """
        bound = block if bound is None else bound
        index = slice(None) if rows is None else rows
        merged = np.concatenate([self._best[index], bound], axis=1)
        merged.partition(bound.shape[1], axis=1)
        self._best[index] = merged[:, -self.k:]
        del merged  # a block-sized copy: freed before the hit mask
        kth = self.kth[index]
        if slack is not None:
            kth = kth - slack
        hit = np.flatnonzero(block >= kth[:, None])
        hit_rows, columns = np.divmod(hit, block.shape[1])
        self._rows.append(hit_rows if rows is None else rows[hit_rows])
        self._ids.append(columns + start)
        self._values.append(np.take(block, hit))

    def candidates(
        self, slack: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kept ``(rows, ids, values)`` reaching the final kth - slack."""
        rows = np.concatenate(self._rows)
        values = np.concatenate(self._values)
        kth = self.kth if slack is None else self.kth - slack
        final = values >= kth[rows]
        return rows[final], np.concatenate(self._ids)[final], values[final]


def scan_top_k(
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
    weights: Sequence[float],
    sources: np.ndarray,
    k: int,
    block_size: int,
    slack: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Exact top-k of ``S[sources]``: one scan of target blocks in order.

    ``source``/``target``/``weights`` are :func:`check_layers` output,
    ``sources`` an int64 batch of source ids, ``1 <= k <= n_target``,
    and ``slack`` the batch's :func:`score_slack` rows.  Each block of
    ``block_size`` targets is scored by :func:`score_block` and fed to a
    :class:`RunningTopK`; the survivors are reported with their
    :func:`pair_scores` in :func:`canonical_top_k` order, so the answer
    is the same bits at any batch, block size or target offset.
    Transient memory is O(batch × (block + survivors)).

    Returns ``(targets, scores, bad_blocks)``: two ``(len(sources), k)``
    arrays and the number of blocks with sanitized entries (0 when
    healthy), for the caller to record under its own metric name.
    """
    queries = [layer[sources] for layer in source]
    selector = RunningTopK(sources.size, k)
    bad_blocks = 0
    for start in range(0, target[0].shape[0], block_size):
        block, bad = score_block(
            queries, [layer[start:start + block_size] for layer in target],
            weights,
        )
        bad_blocks += bool(bad)
        selector.push(block, start, slack=slack)
        del block  # freed before the next block's GEMM
    rows, ids, _ = selector.candidates(slack)
    targets, scores = canonical_top_k(
        rows, ids, pair_scores(source, target, weights, sources[rows], ids),
        sources.size, k,
    )
    return targets, scores, bad_blocks
