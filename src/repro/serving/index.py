"""Exact top-k alignment index with norm-based candidate pruning.

Answering "who does source node v align to?" needs one row of the
aggregated alignment matrix ``S[v] = Σ_l θ(l) · h_v(l) · H_t(l)ᵀ``
(Eq 11-12).  The full row is an O(n₂·d) matmul; most of it is wasted when
only the k best targets are wanted.  :class:`AlignmentIndex` prunes that
work with a Cauchy-Schwarz score bound:

    score(v, u) = ⟨concat_l θ(l)·h_v(l), concat_l h_u(l)⟩
               ≤ ‖concat_l θ(l)·h_v(l)‖ · ‖concat_l h_u(l)‖

Per-target norms ``‖concat_l h_u(l)‖`` are precomputed once at build time
and aggregated into per-block maxima over contiguous target blocks.
Blocks are *scored* in descending max-norm order (so the running kth-best
score rises as fast as possible) but *stored* in the original target
order; once every query row's bound ``‖q‖·max_norm(block)`` falls
strictly below its current kth-best score, no remaining block can contain
a top-k member — not even a tie, because the skip test is strict — and
scoring stops.

Scoring and selection go through :mod:`repro.core.scoring`, the scorer
streaming shares: each block is scored by ``score_block`` and folded
into a ``RunningTopK``, which keeps only entries at or above the running
kth and finishes with the canonical order (descending score, ascending
target id).  The full (batch × n_target) score matrix is never built and
no row is ever fully sorted; transient memory is
O(batch × (block + survivors)).

Exactness guarantees:

* **Pruned ≡ dense.**  Skipped blocks provably contain only scores
  strictly below the final kth value, and scored blocks are computed by
  the same per-block kernel in both modes, so ``prune=True`` and
  ``prune=False`` return bit-identical targets *and* scores.
* **Deterministic ties.**  Tied scores at the kth boundary resolve
  identically in every mode and for every ``k`` (a top-k answer is
  always a prefix of the top-(k+1) answer).
* **Batch invariance.**  For a fixed index (fixed target block
  partition), the contract stated in :mod:`repro.core.scoring`: same
  ids and tie order alone or in any batch, bitwise scores across
  batches of equal height.  Single-row queries are padded to two rows,
  so the GEMV kernel is never used.  ``tests/test_serving_index.py``
  pins both halves at a realistic width.

Non-finite scores are sanitized to ``-inf`` (counted in
``serving.index.sanitized_blocks``), so a fully-poisoned row comes back
as all ``-inf`` rather than NaN (the
:class:`~repro.serving.engine.QueryEngine` surfaces those as
``aligned: false``).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.scoring import RunningTopK, check_layers, score_block
from ..observability import MetricsRegistry, get_registry

__all__ = ["AlignmentIndex"]


def _check_sources(sources, n_source: int) -> np.ndarray:
    """A query batch as a non-empty 1-D int64 array of in-range ids."""
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.ndim != 1 or sources.size == 0:
        raise ValueError(
            f"sources must be a non-empty 1-D batch, got shape "
            f"{sources.shape}"
        )
    out_of_range = (sources < 0) | (sources >= n_source)
    if out_of_range.any():
        bad = int(sources[out_of_range][0])
        raise IndexError(f"source node {bad} out of range [0, {n_source})")
    return sources


class AlignmentIndex:
    """Precomputed target-side state for exact pruned top-k queries.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        Per-layer embedding matrices (H(0)..H(k) per side); memory-mapped
        arrays from an :class:`~repro.serving.AlignmentArtifact` work
        as-is.
    layer_weights:
        θ(l) per layer (same length as the embedding lists).
    target_block_size:
        Targets scored per block; the pruning granularity.
    prune:
        Default pruning mode for :meth:`top_k` (overridable per call).
    """

    def __init__(
        self,
        source_embeddings: Sequence[np.ndarray],
        target_embeddings: Sequence[np.ndarray],
        layer_weights: Sequence[float],
        target_block_size: int = 512,
        prune: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if target_block_size < 1:
            raise ValueError(
                f"target_block_size must be >= 1, got {target_block_size}"
            )
        self._source, self._target, self._weights = check_layers(
            source_embeddings, target_embeddings, layer_weights
        )
        self.prune = bool(prune)
        self.block_size = int(target_block_size)
        self.registry = registry

        # Cauchy-Schwarz substrate: ‖concat_l h_u(l)‖ per target, block
        # maxima over contiguous blocks, and a norm-descending block
        # scoring order so the kth-best score rises as fast as possible.
        norms_sq = np.zeros(self.n_target)
        for layer in self._target:
            norms_sq += np.einsum("ij,ij->i", layer, layer)
        self._target_norms = np.sqrt(norms_sq)
        starts = np.arange(0, self.n_target, self.block_size)
        self._block_bounds = [
            (int(a), int(min(a + self.block_size, self.n_target)))
            for a in starts
        ]
        self._block_max_norm = np.array(
            [self._target_norms[a:e].max() for a, e in self._block_bounds]
        )
        self._block_order = np.argsort(-self._block_max_norm, kind="stable")

        # ‖concat_l θ(l)·h_v(l)‖ per source (the query side of the bound).
        query_sq = np.zeros(self.n_source)
        for weight, layer in zip(self._weights, self._source):
            query_sq += (weight * weight) * np.einsum("ij,ij->i", layer, layer)
        self._query_norms = np.sqrt(query_sq)

    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, artifact, **kwargs) -> "AlignmentIndex":
        """Build an index over an :class:`AlignmentArtifact`'s embeddings."""
        return cls(
            artifact.source_embeddings,
            artifact.target_embeddings,
            artifact.layer_weights,
            **kwargs,
        )

    @property
    def n_source(self) -> int:
        return int(self._source[0].shape[0])

    @property
    def n_target(self) -> int:
        return int(self._target[0].shape[0])

    @property
    def num_blocks(self) -> int:
        return len(self._block_bounds)

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _queries(
        self, sources: np.ndarray
    ) -> Tuple[bool, np.ndarray, List[np.ndarray]]:
        """``(padded, batch_ids, per-layer query rows)`` for a batch.

        Single queries are padded to two rows: a (1, d) @ (d, n) product
        goes through a GEMV kernel whose reduction order differs bitwise
        from the batched GEMM every other path uses.
        """
        padded = sources.size == 1
        batch_ids = np.repeat(sources, 2) if padded else sources
        return padded, batch_ids, [layer[batch_ids] for layer in self._source]

    # ------------------------------------------------------------------
    def _block_scores(
        self, queries: List[np.ndarray], start: int, stop: int,
        registry: MetricsRegistry,
    ) -> np.ndarray:
        """Scores of the query rows against targets ``[start, stop)``."""
        block, bad = score_block(
            queries, [target[start:stop] for target in self._target],
            self._weights,
        )
        if bad:
            registry.increment("serving.index.sanitized_blocks")
        return block

    def top_k(
        self,
        sources,
        k: int = 1,
        prune: Optional[bool] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k targets and scores for a batch of source nodes.

        Returns ``(targets, scores)`` of shape ``(len(sources), k)`` in
        canonical order (descending score, ascending target id).  ``k``
        is clamped to ``n_target``.  Scores may be ``-inf`` when a row's
        entries were sanitized (see module docstring).
        """
        registry = self._registry()
        started = time.perf_counter()
        sources = _check_sources(sources, self.n_source)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.n_target)
        prune = self.prune if prune is None else bool(prune)

        padded, batch_ids, queries = self._queries(sources)
        query_norms = self._query_norms[batch_ids]
        selector = RunningTopK(batch_ids.size, k)
        blocks_scored = 0
        blocks_pruned = 0
        for position, block_index in enumerate(self._block_order):
            start, stop = self._block_bounds[block_index]
            if prune and np.all(
                query_norms * self._block_max_norm[block_index]
                < selector.kth
            ):
                # Blocks are visited in descending max-norm order and
                # kth only grows, so every remaining block prunes too.
                blocks_pruned = self.num_blocks - position
                break
            selector.push(
                self._block_scores(queries, start, stop, registry), start
            )
            blocks_scored += 1
        out_targets, out_scores = selector.result()
        if padded:
            out_targets = out_targets[:1]
            out_scores = out_scores[:1]

        registry.increment("serving.index.queries", int(sources.size))
        registry.increment("serving.index.blocks_scored", blocks_scored)
        registry.increment("serving.index.blocks_pruned", blocks_pruned)
        registry.observe(
            "serving.index.prune_fraction",
            blocks_pruned / max(1, self.num_blocks),
        )
        registry.record_histogram(
            "serving.index.query_time", time.perf_counter() - started
        )
        return out_targets, out_scores

    # ------------------------------------------------------------------
    def gather_scores(
        self, sources, rows: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Exact scores of ``(row, target id)`` pairs of a query batch.

        ``rows`` index ``sources``; ``ids`` are target ids.  Every block
        holding a requested id is scored once through :meth:`_block_scores`
        at the full batch height — the GEMM shapes :meth:`top_k` runs on
        this batch, hence the same bits, which is what lets the ANN
        tier's float rescoring reproduce exact answers (see
        :mod:`repro.serving.ann`) — and only the requested entries are
        kept before the block is dropped.  Rescoring a row subset would
        be cheaper but is not bitwise: small GEMMs take a kernel that
        rounds differently.
        """
        registry = self._registry()
        _, _, queries = self._queries(_check_sources(sources, self.n_source))
        blocks = ids // self.block_size
        order = np.argsort(blocks, kind="stable")
        edges = np.searchsorted(blocks[order], np.arange(self.num_blocks + 1))
        touched = np.flatnonzero(np.diff(edges))
        scores = np.empty(ids.size)
        for block in touched:
            start, stop = self._block_bounds[block]
            picks = order[edges[block]:edges[block + 1]]
            scores[picks] = self._block_scores(
                queries, start, stop, registry
            )[rows[picks], ids[picks] - start]
        registry.increment("serving.index.blocks_scored", touched.size)
        return scores

    def score_rows(self, sources) -> np.ndarray:
        """Full score rows ``S[sources]`` (no pruning), for verification."""
        registry = self._registry()
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        padded, _, queries = self._queries(sources)
        blocks = [
            self._block_scores(queries, a, e, registry)
            for a, e in self._block_bounds
        ]
        rows = np.concatenate(blocks, axis=1)
        return rows[:1] if padded else rows
