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
* **the selecting precision** — :func:`selection_dtype` and
  :func:`score_slack`: float32 when the embeddings' magnitudes allow it,
  and the slack that covers its rounding;
* **running-kth selection** — :class:`RunningTopK`: a ``(batch, k)``
  buffer of the k largest values per row (``-inf`` until k were seen),
  raised per block by one ``partition`` of the whole block when it is
  short, or, when it is tall (:data:`TALL_BLOCK` rows), of only the few
  entries that one compare finds reaching ``kth - slack``;
* **canonical order** — :func:`canonical_top_k`: descending score, then
  ascending target id, so ties resolve identically on every path and a
  top-k answer is a prefix of the top-(k+1) answer;
* **the exact top-k** — :func:`scan_top_k`: the one scan of target
  blocks that the serving index runs per query batch and streaming per
  source-row block, one θ-folded GEMM per block in the selecting dtype.

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
width, shard layout, selecting dtype or path (index, ANN, streaming).

Since selection precision never reaches an answer, :func:`scan_top_k`
selects in float32: the θ-weighted query rows and each target block are
cast once and scored by one GEMM, about twice as fast as a float64 GEMM
per layer, and the slack is sized with float32's unit (a few more
survivors to rescore).  Where float32 could overflow, or would leave only
subnormals to select by, :func:`selection_dtype` keeps float64; the
index decides once at build and ``streaming_top_k`` once per call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "check_layers",
    "score_block",
    "pair_scores",
    "selection_dtype",
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


#: Headroom below the float32 maximum: a selecting GEMM's partial sums
#: stay under ``max / SELECT_HEADROOM``, so rounding cannot overflow.
SELECT_HEADROOM = 4.0


def _finite_max_abs(layer: np.ndarray) -> float:
    """Largest finite ``|entry|`` of ``layer`` (0 when none is finite)."""
    high, low = layer.max(initial=-np.inf), layer.min(initial=np.inf)
    if np.isfinite(high) and np.isfinite(low):
        return float(max(high, -low))  # two reductions, no copy
    magnitude = np.abs(layer)
    return float(magnitude[np.isfinite(magnitude)].max(initial=0.0))


def selection_dtype(
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.dtype:
    """The dtype that selecting GEMMs run in: float32 when it is safe.

    With ``a_l`` the largest finite ``|θ_l·q|`` entry and ``b_l`` the
    largest finite ``|t|`` entry of layer l, every selecting product and
    partial sum is at most ``B = Σ_l d_l·a_l·b_l``.  float32 is chosen
    when the cast factors and ``B`` stay a :data:`SELECT_HEADROOM` below
    its maximum (no overflow) and ``B`` reaches the range where float32
    keeps full precision (a tiny ``B`` would leave only subnormals to
    select by); otherwise float64, the embeddings' own precision.
    Non-finite entries score ``-inf`` in either dtype and are ignored.
    """
    limits = np.finfo(np.float32)
    high = float(limits.max) / SELECT_HEADROOM
    low = float(limits.tiny) / float(limits.eps)
    bound = 0.0
    for s, t, weight in zip(source, target, weights):
        queries = abs(weight) * _finite_max_abs(s)
        targets = _finite_max_abs(t)
        if queries > high or targets > high:
            return np.dtype(np.float64)
        bound += s.shape[1] * queries * targets
    if low <= bound <= high:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _row_norms(layer: np.ndarray) -> np.ndarray:
    """``‖row‖`` per row, as ``m · ‖row / m‖`` with ``m`` the row's
    largest ``|entry|``, so a finite row keeps a finite norm where its
    squares would overflow (entries past ~1e154).

    A zero row has norm 0, a row with an infinite entry ``inf`` and one
    with a NaN entry NaN.  Rows go in :data:`PAIR_CHUNK` chunks, so the
    transient is O(chunk · d).
    """
    norms = np.empty(layer.shape[0])
    for start in range(0, layer.shape[0], PAIR_CHUNK):
        rows = layer[start:start + PAIR_CHUNK]
        largest = np.abs(rows).max(axis=1, initial=0.0)
        usable = np.isfinite(largest) & (largest > 0)
        scale = np.where(usable, largest, 1.0)
        unit = rows / scale[:, None]
        norms[start:start + rows.shape[0]] = np.where(
            usable, scale * np.sqrt(np.einsum("ij,ij->i", unit, unit)),
            largest,
        )
    return norms


def score_slack(
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
    weights: Sequence[float],
    dtype: np.dtype,
) -> np.ndarray:
    """Per-source slack for selecting in ``dtype``.

    ``4·γ_n·Σ_l |θ_l|·‖q_l‖·max_u ‖t_l(u)‖ + 8·η·(D + Σ_l √d_l·(|θ_l|·
    ‖q_l‖ + max_u ‖t_l(u)‖))``, with ``u`` and ``η`` the unit roundoff
    and smallest normal of ``dtype`` (the :func:`selection_dtype`) or of
    the embeddings' own dtype, whichever is coarser,
    ``γ_n = n·u / (1 - n·u)`` and ``D`` the concatenated width.

    A selecting entry (θ-folded rows cast to ``dtype``, one GEMM) and
    its :func:`pair_scores` value each lie within
    ``γ_n·Σ_l |θ_l|·‖q_l‖·‖t_l(u)‖`` of the exact score, plus the
    absolute error of casts, products and sums that land below ``η``
    (subnormal or flushed to zero): at most ``η`` per entry of either
    factor, scaled by the other, and per term.  So a top-k member's
    entry lies within this slack of any running kth.  ``n`` is taken as
    twice the concatenated width plus layer count, which also covers the
    float64 canonical value, the casts, rounding the slack and
    ``kth - slack``.
    Norms are taken scaled (:func:`_row_norms`), so finite rows past
    ~1e154 count with their true norm.  Non-finite target rows (``-inf``
    everywhere) are left out of the maxima; a NaN slack (a poisoned
    source row) becomes 0.
    """
    # The coarser of the selecting and the embeddings' (canonical) dtype.
    limits = max(
        np.finfo(dtype), np.finfo(np.result_type(*source, *target)),
        key=lambda info: info.eps,
    )
    unit = float(limits.eps) / 2
    width = sum(layer.shape[1] for layer in source)
    n = 2 * (width + len(source))
    relative = np.zeros(source[0].shape[0])
    absolute = np.full(source[0].shape[0], float(width))
    for s, t, weight in zip(source, target, weights):
        reach = _row_norms(t)
        reach = reach[np.isfinite(reach)].max(initial=0.0)
        query = abs(weight) * _row_norms(s)
        relative += reach * query
        absolute += np.sqrt(s.shape[1]) * (query + reach)
    gamma = n * unit / (1 - n * unit)
    slack = 4 * gamma * relative + 8 * float(limits.tiny) * absolute
    return np.nan_to_num(slack, nan=0.0, posinf=np.inf)


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


#: Targets per selecting block where the caller sets no block size (the
#: index's default, streaming's row-block tasks): the cast buffer stays
#: ``TARGET_BLOCK × width`` at any target count.
TARGET_BLOCK = 512

#: Rows from which :meth:`RunningTopK.push` merges compare-first.  On
#: float32 score blocks of width 512 (one core, after the first block)
#: a dense push cost 13-19 / 61-68 / 112-116 / 221-226 / 463-483 µs at
#: 1 / 32 / 64 / 128 / 256 rows and a compare-first one 23 / 48-57 / 60
#: / 85-91 / 140-152 µs.  The ANN prober's per-cluster pushes (20-58
#: rows at nprobe 8) keep more of their entries and ran 10-20 % slower
#: compare-first, so the threshold sits at about twice their height.
TALL_BLOCK = 128


class RunningTopK:
    """Top-k per row of a ``(batch, n_target)`` matrix fed block by block.

    Each :meth:`push` folds one column block into the ``(batch, k)``
    buffer of the k largest values seen per row and keeps only the block
    entries ``>=`` the row's raised kth (less its ``slack``) as
    ``(row, id, value)`` candidates.  kth only rises, so an entry below
    it is strictly below the final kth: every top-k member, boundary ties
    included, survives.  Transient memory is O(block + survivors); no
    full row is ever held or sorted.

    Two merges raise kth, to the same values with the same survivors.  A
    short block (a lone query, a microbatch, an ANN per-cluster push) or
    one with a row whose kth is still ``-inf`` is merged densely: one
    ``partition`` of the buffer concatenated with the whole block.  A
    block of at least :data:`TALL_BLOCK` rows is otherwise merged
    compare-first: one compare against ``kth - slack`` in the block's
    dtype finds the few entries that can raise kth or survive, and only
    they are partitioned with their rows' buffers.
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
        row, ``>= 0``; :func:`score_slack`) lowers the bar to
        ``kth - slack``.  ``block`` and ``bound`` hold no NaN
        (:func:`score_block` sets non-finite entries to ``-inf``).
        """
        bound = block if bound is None else bound
        index = slice(None) if rows is None else rows
        kth = self.kth[index]
        tall = block.shape[0] >= TALL_BLOCK and kth.min() > -np.inf
        if tall:
            hit = self._merge_hits(block, bound, rows, kth, slack)
        else:
            merged = np.concatenate([self._best[index], bound], axis=1)
            merged.partition(bound.shape[1], axis=1)
            self._best[index] = merged[:, -self.k:]
            del merged  # a block-sized copy: freed before the hit mask
        kth = self.kth[index]
        if slack is not None:
            kth = kth - slack
        if tall:
            hit = hit[np.take(block, hit) >= kth[hit // block.shape[1]]]
        else:
            hit = np.flatnonzero(block >= kth[:, None])
        hit_rows, columns = np.divmod(hit, block.shape[1])
        self._rows.append(hit_rows if rows is None else rows[hit_rows])
        self._ids.append(columns + start)
        self._values.append(np.take(block, hit))

    def _merge_hits(
        self,
        block: np.ndarray,
        bound: np.ndarray,
        rows: Optional[np.ndarray],
        kth: np.ndarray,
        slack: Optional[np.ndarray],
    ) -> np.ndarray:
        """Raise kth from the entries reaching ``kth - slack``; return
        their flat indices into ``block``, in row-major order.

        An entry that can raise kth has ``block >= bound > kth >= kth -
        slack``, and a survivor of the raised kth is at least the old
        ``kth - slack``.  That floor is compared in ``block``'s dtype: the
        cast rounds it to one of its two neighbours there, the lower of
        which only adds hits and the upper of which is the least value
        reaching the floor, so no entry reaching the floor is lost.  Each
        touched row's buffer is partitioned with its hits' ``bound``
        values (padded with ``-inf``, which a finite kth keeps out), so
        the new buffer holds the dense merge's values.
        """
        floor = kth if slack is None else kth - slack
        with np.errstate(over="ignore"):  # past float32's range: ±inf
            floor = floor.astype(block.dtype, copy=False)
        hit = np.flatnonzero(block >= floor[:, None])
        if hit.size == 0:
            return hit
        counts = np.bincount(hit // block.shape[1])
        touched = np.flatnonzero(counts)
        counts = counts[touched]
        # Hits are row-major: each touched row's hits form one run, and a
        # hit's place is its offset in that run.
        slots = np.repeat(np.arange(touched.size), counts)
        places = np.arange(self.k, self.k + hit.size) - (
            np.cumsum(counts) - counts
        )[slots]
        if rows is not None:
            touched = rows[touched]
        widest = int(counts.max())
        merged = np.full((touched.size, self.k + widest), -np.inf)
        merged[:, :self.k] = self._best[touched]
        merged[slots, places] = np.take(bound, hit)
        merged.partition(widest, axis=1)
        self._best[touched] = merged[:, -self.k:]
        return hit

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
    dtype: np.dtype,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Exact top-k of ``S[sources]``: one scan of target blocks in order.

    ``source``/``target``/``weights`` are :func:`check_layers` output,
    ``sources`` an int64 batch of source ids, ``1 <= k <= n_target``,
    ``dtype`` the selecting dtype (:func:`selection_dtype`) and
    ``slack`` the batch's :func:`score_slack` rows for it.  The
    θ-weighted query rows are concatenated once into one ``dtype``
    matrix; each block of ``block_size`` targets is concatenated into
    ``dtype`` once, scored by one GEMM through :func:`score_block` and
    fed to a :class:`RunningTopK`.  The survivors are reported with
    their canonical :func:`pair_scores` in :func:`canonical_top_k` order,
    so the answer is the same bits at any batch, block size, target
    offset or selecting dtype.  Transient memory is O(batch × (block +
    survivors) + block × width).

    Returns ``(targets, scores, bad_blocks)``: two ``(len(sources), k)``
    arrays and the number of blocks with sanitized entries (0 when
    healthy), for the caller to record under its own metric name.
    """
    edges = np.cumsum([0] + [layer.shape[1] for layer in source])
    queries = np.empty((sources.size, edges[-1]), dtype)
    for layer, weight, lo, hi in zip(source, weights, edges, edges[1:]):
        np.multiply(layer[sources], weight, out=queries[:, lo:hi],
                    casting="same_kind")
    n_target = target[0].shape[0]
    buffer = np.empty((min(block_size, n_target), edges[-1]), dtype)
    selector = RunningTopK(sources.size, k)
    bad_blocks = 0
    for start in range(0, n_target, block_size):
        cast = buffer[:min(block_size, n_target - start)]
        for layer, lo, hi in zip(target, edges, edges[1:]):
            cast[:, lo:hi] = layer[start:start + cast.shape[0]]
        block, bad = score_block([queries], [cast], [1.0])
        bad_blocks += bool(bad)
        selector.push(block, start, slack=slack)
        del block  # freed before the next block's GEMM
    rows, ids, _ = selector.candidates(slack)
    targets, scores = canonical_top_k(
        rows, ids, pair_scores(source, target, weights, sources[rows], ids),
        sources.size, k,
    )
    return targets, scores, bad_blocks
