"""Exact top-k alignment index with norm-based candidate pruning.

Answering "who does source node v align to?" needs one row of the
aggregated alignment matrix ``S[v] = Σ_l θ(l) · h_v(l) · H_t(l)ᵀ``
(Eq 11-12).  The full row is an O(n₂·d) matmul; most of it is wasted when
only the k best targets are wanted.  :class:`AlignmentIndex` prunes that
work with a Cauchy-Schwarz score bound:

    score(v, u) = ⟨concat_l θ(l)·h_v(l), concat_l h_u(l)⟩
               ≤ ‖concat_l θ(l)·h_v(l)‖ · ‖concat_l h_u(l)‖

Per-target norms are aggregated at build time into per-block maxima.
Blocks are scored in descending max-norm order, so the running kth
rises fast; once every query row's bound ``‖q‖·max_norm(block)`` falls
strictly below its kth less its slack, no remaining block can hold a
top-k member — not even a tie — and scoring stops.

Scoring and selection go through :mod:`repro.core.scoring`, shared with
streaming: ``score_block`` blocks feed a ``RunningTopK`` that keeps the
entries within the source's precomputed ``score_slack`` of the running
kth, and the survivors are reported with their ``pair_scores`` in the
canonical order (descending score, ascending target id).  Transient
memory is O(batch × (block + survivors)): no full row is held.

Exactness guarantees:

* **Canonical scores.**  Every reported score is its pair's
  ``pair_scores`` value and the slack keeps every canonical top-k
  member, ties included, so pruned ≡ dense, a lone query ≡ its row in
  any batch, and one block width ≡ another, bit for bit.
* **Deterministic ties.**  Ties at the kth boundary resolve identically
  in every mode and for every ``k`` (a top-k answer is always a prefix
  of the top-(k+1) answer).

Non-finite scores are sanitized to ``-inf`` (counted in
``serving.index.sanitized_blocks``), so a fully-poisoned row comes back
as all ``-inf`` rather than NaN (the
:class:`~repro.serving.engine.QueryEngine` surfaces those as
``aligned: false``).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.scoring import (
    RunningTopK, canonical_top_k, check_layers, pair_scores, score_block,
    score_slack,
)
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
        self._slack = score_slack(self._source, self._target, self._weights)

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

    # ------------------------------------------------------------------
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

        queries = [layer[sources] for layer in self._source]
        query_norms = self._query_norms[sources]
        slack = self._slack[sources]
        selector = RunningTopK(sources.size, k)
        blocks_scored = 0
        blocks_pruned = 0
        for position, block_index in enumerate(self._block_order):
            start, stop = self._block_bounds[block_index]
            if prune and np.all(
                query_norms * self._block_max_norm[block_index]
                < selector.kth - slack
            ):
                # Blocks are visited in descending max-norm order and
                # kth only grows, so every remaining block prunes too.
                blocks_pruned = self.num_blocks - position
                break
            block, bad = score_block(
                queries, [target[start:stop] for target in self._target],
                self._weights,
            )
            if bad:
                registry.increment("serving.index.sanitized_blocks")
            selector.push(block, start, slack=slack)
            del block  # freed before the next block's GEMM
            blocks_scored += 1
        rows, ids, _ = selector.candidates(slack)
        out_targets, out_scores = canonical_top_k(
            rows, ids, self.pair_scores(sources[rows], ids), sources.size, k
        )

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
    def pair_scores(self, sources, targets) -> np.ndarray:
        """Canonical scores of ``(sources[i], targets[i])`` pairs (see
        :func:`~repro.core.scoring.pair_scores`)."""
        return pair_scores(
            self._source, self._target, self._weights, sources, targets
        )

    def score_rows(self, sources) -> np.ndarray:
        """Full canonical score rows ``S[sources]``, for verification."""
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        rows, ids = np.meshgrid(sources, range(self.n_target), indexing="ij")
        return self.pair_scores(rows.ravel(), ids.ravel()).reshape(rows.shape)
