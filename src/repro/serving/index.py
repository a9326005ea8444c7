"""Exact top-k alignment index.

Answering "who does source node v align to?" needs one row of the
aggregated alignment matrix ``S[v] = Σ_l θ(l) · h_v(l) · H_t(l)ᵀ``
(Eq 11-12).  :class:`AlignmentIndex` answers a batch of sources with
:func:`~repro.core.scoring.scan_top_k`, the exact top-k that streaming
runs too: target blocks are scored in target order, each by one
θ-folded GEMM in the selecting dtype (float32 unless
``selection_dtype`` rules it out, decided once at build), and fed to a
``RunningTopK`` that keeps the entries within the source's precomputed
``score_slack`` for that dtype of the running kth.  The survivors are
reported with their float64 ``pair_scores`` in the canonical order
(descending score, ascending target id).  Transient memory is
O(batch × (block + survivors)): no full row is held.

Exactness guarantees:

* **Canonical scores.**  Every reported score is its pair's
  ``pair_scores`` value and the slack keeps every canonical top-k
  member, ties included, so a lone query ≡ its row in any batch, and
  one block width ≡ another, bit for bit.
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

import reprlib
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.scoring import (
    TARGET_BLOCK, check_layers, pair_scores, scan_top_k, score_slack,
    selection_dtype,
)
from ..observability import MetricsRegistry, get_registry

__all__ = ["AlignmentIndex"]


def _check_sources(sources, n_source: int) -> np.ndarray:
    """A query batch as a non-empty 1-D int64 array of in-range ids.

    Python and NumPy integers (scalars, sequences, integer arrays) are
    accepted; bools, floats and strings raise ``ValueError`` naming the
    value instead of being truncated to some other source.
    """
    batch = np.atleast_1d(np.asarray(sources))
    if batch.ndim != 1 or batch.size == 0:
        raise ValueError(
            f"sources must be a non-empty 1-D batch, got shape "
            f"{batch.shape}"
        )
    if batch.dtype.kind not in "iu":
        raise ValueError(
            f"sources must be integers, got {reprlib.repr(sources)} "
            f"({batch.dtype})"
        )
    sources = batch.astype(np.int64, copy=False)
    out_of_range = (sources < 0) | (sources >= n_source)
    if out_of_range.any():
        bad = int(sources[out_of_range][0])
        raise IndexError(f"source node {bad} out of range [0, {n_source})")
    return sources


class AlignmentIndex:
    """Precomputed state for exact top-k queries.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        Per-layer embedding matrices (H(0)..H(k) per side); memory-mapped
        arrays from an :class:`~repro.serving.AlignmentArtifact` work
        as-is.
    layer_weights:
        θ(l) per layer (same length as the embedding lists).
    target_block_size:
        Targets scored per block.
    """

    def __init__(
        self,
        source_embeddings: Sequence[np.ndarray],
        target_embeddings: Sequence[np.ndarray],
        layer_weights: Sequence[float],
        target_block_size: int = TARGET_BLOCK,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if target_block_size < 1:
            raise ValueError(
                f"target_block_size must be >= 1, got {target_block_size}"
            )
        self._source, self._target, self._weights = check_layers(
            source_embeddings, target_embeddings, layer_weights
        )
        self.block_size = int(target_block_size)
        self.registry = registry
        self._dtype = selection_dtype(
            self._source, self._target, self._weights
        )
        self._slack = score_slack(
            self._source, self._target, self._weights, self._dtype
        )

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
        return -(-self.n_target // self.block_size)

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # ------------------------------------------------------------------
    def top_k(self, sources, k: int = 1) -> Tuple[np.ndarray, np.ndarray]:
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
        out_targets, out_scores, bad_blocks = scan_top_k(
            self._source, self._target, self._weights, sources, k,
            self.block_size, self._slack[sources], self._dtype,
        )
        if bad_blocks:
            registry.increment("serving.index.sanitized_blocks", bad_blocks)
        registry.increment("serving.index.queries", int(sources.size))
        registry.increment("serving.index.blocks_scored", self.num_blocks)
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
