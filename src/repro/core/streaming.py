"""Memory-bounded alignment computation (paper §VI-C, space complexity).

The paper's space analysis notes that the full n₁×n₂ alignment matrix **S**
never has to be materialized: every consumer — top-k anchor extraction,
stability detection, the ranking metrics — only needs one row (or a block of
rows) of S at a time, computed on the fly from the multi-order embeddings.
That brings alignment-side memory from O(n²) down to O(n·d), which is what
makes the method viable on large networks.

This module provides that row-streaming layer:

* :func:`iter_score_blocks` — yield (row-range, block of S) pairs built from
  per-layer embeddings and layer weights, never holding all of S.
* :func:`streaming_top_k` — per-source top-k targets and scores.
* :func:`streaming_evaluate` — Success@q / MAP / AUC without full S.
* :func:`find_stable_nodes` — Eq 13's stable nodes and Alg 2's g(S), the
  scan :class:`~repro.core.refine.AlignmentRefiner` runs every iteration.
* :class:`StreamingAligner` — end-to-end: trained model + pair → anchors,
  in O(block · n₂) peak memory.

Blocks are built, sanitized and selected from by :mod:`repro.core.scoring`,
the scorer the serving indexes share (the stable-node scan, which needs
each layer's block, forms them itself in the scorer's order), and top-k
scores are its canonical per-pair values, so streamed answers carry the
same scores and tie order at any block size; that module also states the
batch-invariance contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..graphs import AlignmentPair
from ..metrics import EvaluationReport, anchor_ranks
from ..observability import MetricsRegistry, get_registry, get_tracer
from ..parallel import (
    AttachedArrays,
    SharedArrayStore,
    WorkerPool,
    load_embeddings,
    publish_embeddings,
    resolve_workers,
)
from ..resilience import validate_pair
from .config import GAlignConfig
from .model import MultiOrderGCN
from .scoring import check_layers, scan_top_k, score_block, score_slack

__all__ = [
    "iter_score_blocks",
    "streaming_top_k",
    "streaming_evaluate",
    "find_stable_nodes",
    "StreamingAligner",
]


def _record_sanitized(
    registry: MetricsRegistry, start: int, stop: int, **detail: int
) -> None:
    """Count and emit a row block whose NaN/Inf scores were set to
    ``-inf``, so the degradation stays visible."""
    registry.increment("resilience.streaming_sanitized_blocks")
    registry.emit(
        "resilience.streaming_sanitized", {"rows": [start, stop], **detail}
    )


def _record_block(
    registry: MetricsRegistry, start: int, stop: int, started: float,
    event: str = "streaming.block",
) -> None:
    """Charge rows ``[start, stop)``, worked on since ``started``, to the
    ``streaming.*`` metrics and the trace."""
    elapsed = time.perf_counter() - started
    registry.record_histogram("streaming.block_time", elapsed)
    registry.increment("streaming.blocks")
    registry.increment("streaming.rows", stop - start)
    get_tracer().add_event(event, started, elapsed, rows=[start, stop])


def _build_block(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    start: int,
    stop: int,
    registry: MetricsRegistry,
) -> np.ndarray:
    """Source rows ``[start, stop)`` of S via :func:`score_block`, timed
    and counted under ``streaming.*``."""
    started = time.perf_counter()
    block, bad = score_block(
        [h[start:stop] for h in source_embeddings],
        target_embeddings,
        layer_weights,
    )
    if bad:
        _record_sanitized(registry, start, stop, bad_entries=bad)
    # Only block-build time is charged to the trace (as to the histogram):
    # a generator span would bill the consumer's work to this frame.
    _record_block(registry, start, stop, started)
    return block


def _block_ranges(n_source: int, block_size: int) -> List[Tuple[int, int]]:
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return [
        (start, min(start + block_size, n_source))
        for start in range(0, n_source, block_size)
    ]


def iter_score_blocks(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    block_size: int = 256,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[range, np.ndarray]]:
    """Yield (row range, S[rows]) blocks of the aggregated alignment matrix.

    Equivalent to Eq 11 + Eq 12 evaluated lazily: each block is
    ``Σ_l θ(l) · H_s(l)[rows] @ H_t(l)ᵀ``.  Block build time and row
    throughput land in the ``streaming.*`` metrics of ``registry`` (the
    process registry when unset); consumer time is not charged.

    Non-finite entries in a block are sanitized to ``-inf`` (counted in
    ``resilience.streaming_sanitized_blocks``) so downstream top-k and
    ranking consumers degrade gracefully instead of emitting NaN.
    """
    source, target, weights = check_layers(
        source_embeddings, target_embeddings, layer_weights
    )
    ranges = _block_ranges(source[0].shape[0], block_size)
    if registry is None:
        registry = get_registry()
    for start, stop in ranges:
        yield range(start, stop), _build_block(
            source, target, weights, start, stop, registry
        )


def _block_task(
    manifest: Dict, num_layers: int, weights: Sequence[float], start: int,
    stop: int, work: Callable[..., Any], args: Tuple,
) -> Any:
    """Pool task: run ``work`` on one row block of shm embeddings."""
    with AttachedArrays(manifest) as arrays:
        return work(
            load_embeddings(arrays, "src", num_layers),
            load_embeddings(arrays, "tgt", num_layers),
            weights, start, stop, get_registry(), *args,
        )


def _map_blocks(
    work: Callable[..., Any], block_args: Sequence[Tuple],
    ranges: Sequence[Tuple[int, int]], source: Sequence[np.ndarray],
    target: Sequence[np.ndarray], weights: Sequence[float],
    registry: MetricsRegistry, workers: Optional[int], label: str,
) -> List[Any]:
    """``work(source, target, weights, start, stop, registry, *args)``
    for every row block, in block order.

    ``workers=0`` runs the blocks inline; ``workers >= 1`` runs them in
    a process pool on shared-memory embeddings.  ``work`` is a
    module-level function so it pickles by reference; both paths run
    the same function on the same rows, so results are bit-identical.
    """
    if not resolve_workers(workers):
        return [
            work(source, target, weights, start, stop, registry, *args)
            for (start, stop), args in zip(ranges, block_args)
        ]
    with SharedArrayStore(registry=registry) as store:
        publish_embeddings(store, "src", source)
        publish_embeddings(store, "tgt", target)
        manifest = store.manifest()
        return WorkerPool(workers, registry=registry).map(
            _block_task,
            [
                (manifest, len(weights), weights, start, stop, work, args)
                for (start, stop), args in zip(ranges, block_args)
            ],
            labels=[f"{label}[{start}:{stop}]" for start, stop in ranges],
        )


def _top_k_rows(
    source: Sequence[np.ndarray], target: Sequence[np.ndarray],
    weights: Sequence[float], start: int, stop: int,
    registry: MetricsRegistry, k: int, slack: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k of source rows ``[start, stop)`` by :func:`scan_top_k`,
    every target in one block, timed and counted under ``streaming.*``."""
    started = time.perf_counter()
    targets, scores, bad_blocks = scan_top_k(
        source, target, weights, np.arange(start, stop), k,
        target[0].shape[0], slack,
    )
    if bad_blocks:
        _record_sanitized(registry, start, stop, bad_blocks=bad_blocks)
    _record_block(registry, start, stop, started)
    return targets, scores


def streaming_top_k(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    k: int = 1,
    block_size: int = 256,
    registry: Optional[MetricsRegistry] = None,
    workers: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-source top-k targets and their scores, streamed by row blocks.

    Returns
    -------
    (targets, scores):
        ``targets[v]`` are v's k best target nodes and ``scores[v]`` the
        matching alignment scores, in the canonical order of
        :mod:`repro.core.scoring` (descending score, ascending target id
        among ties) — the order the serving indexes answer in.

    Notes
    -----
    Each row block is answered by :func:`~repro.core.scoring.scan_top_k`,
    the exact top-k the serving index runs, so answers are bitwise the
    index's.  Returned scores may be ``-inf``: non-finite entries
    (NaN/Inf from broken embeddings) are sanitized to ``-inf``, and
    when *every* entry of a row was sanitized there is no finite winner
    to fall back on — the row's "top" targets all carry ``-inf`` and the
    target ids are meaningless.  Consumers must treat such rows as
    unalignable instead of trusting the ids; the serving layer's
    :class:`~repro.serving.QueryEngine` surfaces them as
    ``aligned: false`` with the ``-inf`` entries dropped.

    ``workers >= 1`` scores blocks in a process pool (embeddings travel
    through shared memory); results are bit-identical to ``workers=0``.
    """
    source, target, weights = check_layers(
        source_embeddings, target_embeddings, layer_weights
    )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_source = source[0].shape[0]
    k = min(k, target[0].shape[0])
    ranges = _block_ranges(n_source, block_size)
    if registry is None:
        registry = get_registry()
    slack = score_slack(source, target, weights)
    with get_tracer().span("streaming.top_k", k=k, n_source=n_source):
        answers = _map_blocks(
            _top_k_rows,
            [(k, slack[start:stop]) for start, stop in ranges],
            ranges, source, target, weights, registry, workers, "top_k",
        )
    none = (np.empty((0, k), dtype=np.int64), np.empty((0, k)))
    targets, scores = map(np.concatenate, zip(none, *answers))
    return targets, scores


def _rank_rows(
    source: Sequence[np.ndarray], target: Sequence[np.ndarray],
    weights: Sequence[float], start: int, stop: int,
    registry: MetricsRegistry, anchors: Dict[int, int],
) -> np.ndarray:
    """Ranks of row block ``[start, stop)``'s anchors in their S rows."""
    block = _build_block(source, target, weights, start, stop, registry)
    if not anchors:
        return np.empty(0, dtype=np.int64)
    return anchor_ranks(block, anchors)


def streaming_evaluate(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    groundtruth: Dict[int, int],
    block_size: int = 256,
    registry: Optional[MetricsRegistry] = None,
    workers: Optional[int] = None,
) -> EvaluationReport:
    """Success@{1,10} / MAP / AUC computed without materializing S.

    Each streamed block is ranked by :func:`repro.metrics.anchor_ranks`
    (pessimistic ties) against its own anchors.  ``workers >= 1`` scores
    blocks in a process pool; the report is bit-identical to
    ``workers=0``.

    Raises
    ------
    ValueError
        If ``groundtruth`` is empty, or none of its source ids fall in
        ``[0, n_source)`` — evaluating zero anchors would silently yield
        NaN metrics, which always means the groundtruth belongs to a
        different (or transposed) pair.
    """
    if not groundtruth:
        raise ValueError("groundtruth is empty")
    source, target, weights = check_layers(
        source_embeddings, target_embeddings, layer_weights
    )
    n_source = source[0].shape[0]
    if not any(0 <= node < n_source for node in groundtruth):
        keys = sorted(groundtruth)
        raise ValueError(
            f"no groundtruth source id falls in [0, {n_source}): got "
            f"{len(keys)} anchors with source ids in "
            f"[{keys[0]}, {keys[-1]}] — the groundtruth does not match "
            "the source embeddings (wrong pair, or source/target swapped)"
        )
    ranges = _block_ranges(n_source, block_size)
    # Each block's anchors, keyed by row within the block.
    anchors = [
        ({
            node - start: groundtruth[node]
            for node in range(start, stop)
            if node in groundtruth
        },)
        for start, stop in ranges
    ]
    if registry is None:
        registry = get_registry()
    ranks = _map_blocks(
        _rank_rows, anchors, ranges,
        source, target, weights, registry, workers, "eval",
    )
    return EvaluationReport.from_ranks(
        np.concatenate(ranks), target[0].shape[0]
    )


def find_stable_nodes(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    threshold: float,
    block_size: int = 256,
    tie_tolerance: float = 1e-9,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """Eq 13 stable nodes and Alg 2's g(S), one pass over row blocks of S.

    The paper's space analysis (§VI-C) observes that stable-node detection
    "can be done by separately iterating the rows of S"; this is that
    scan, and the only Eq 13 in the package.  Per block of source rows it
    forms the layer blocks ``S(l) = H_s(l)[rows] @ H_t(l)ᵀ`` (Eq 11) and
    their aggregate ``Σ_l θ(l)·S(l)`` (Eq 12) in :func:`score_block`'s
    order, so a row has the bits of a full-height S's row whenever BLAS
    rounds both GEMM shapes alike.  Source v is stable when every layer's
    maximum exceeds λ (``threshold``) and the aggregate's top target ties
    every layer's maximum within ``tie_tolerance``.  The tolerance matters
    on layer 0, where nodes with identical attributes tie exactly; with
    unique maxima the test is Eq 13's argmax agreement.  Peak memory is
    L+2 blocks of ``block_size`` rows; no n₁×n₂ array is built.

    Returns ``(sources, targets, quality, sanitized)``: the stable sources
    in ascending order, their anchor targets, ``g(S) = Σ_v max S(v)`` as
    one sum over the row maxima (so bitwise
    :func:`~repro.core.alignment.alignment_quality` of S when the row
    maxima are), and the number of entries of S that were not finite.
    Those entries are set to ``-inf`` in the aggregate and in every
    layer, counted in ``resilience.streaming_sanitized_blocks`` and
    emitted per block, so a poisoned embedding demotes the affected nodes
    to "not stable" visibly instead of through NaN comparisons.
    """
    source, target, weights = check_layers(
        source_embeddings, target_embeddings, layer_weights
    )
    if registry is None:
        registry = get_registry()
    n_source = source[0].shape[0]
    row_maxima = np.empty(n_source, np.result_type(*source, *target))
    stable_sources, stable_targets = [], []
    sanitized = 0
    for start, stop in _block_ranges(n_source, block_size):
        started = time.perf_counter()
        layers = [s[start:stop] @ t.T for s, t in zip(source, target)]
        aggregate = weights[0] * layers[0]
        for layer, weight in zip(layers[1:], weights[1:]):
            aggregate += weight * layer
        bad = ~np.isfinite(aggregate)
        if bad.any():
            # A non-finite layer entry always makes its aggregate entry
            # non-finite, so this mask covers every layer.
            for block in (aggregate, *layers):
                block[bad] = -np.inf
            count = int(np.count_nonzero(bad))
            sanitized += count
            _record_sanitized(registry, start, stop, bad_entries=count)
        candidates = aggregate.argmax(axis=1)
        rows = np.arange(stop - start)
        row_maxima[start:stop] = aggregate[rows, candidates]
        maxima = np.stack([layer.max(axis=1) for layer in layers])
        candidate_scores = np.stack([layer[rows, candidates] for layer in layers])
        stable = np.flatnonzero(
            np.all(maxima > threshold, axis=0)
            & np.all(candidate_scores >= maxima - tie_tolerance, axis=0)
        )
        stable_sources.append(stable + start)
        stable_targets.append(candidates[stable])
        _record_block(
            registry, start, stop, started, event="streaming.stable_block"
        )
    return (
        np.concatenate(stable_sources),
        np.concatenate(stable_targets),
        float(row_maxima.sum()),
        sanitized,
    )


@dataclass
class StreamingAligner:
    """Anchor extraction from a trained model in O(block · n₂) memory.

    Example
    -------
    >>> # model trained by GAlignTrainer, pair as usual
    >>> aligner = StreamingAligner(model, config)        # doctest: +SKIP
    >>> anchors = aligner.top_anchors(pair, k=5)         # doctest: +SKIP
    """

    model: MultiOrderGCN
    config: GAlignConfig
    block_size: int = 256
    #: Metrics sink; ``None`` falls back to the process registry per call.
    registry: Optional[MetricsRegistry] = None

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _embeddings(self, pair: AlignmentPair) -> tuple:
        with self._registry().timed("streaming.embed_time"):
            return self.model.embed(pair.source), self.model.embed(pair.target)

    def top_anchors(
        self, pair: AlignmentPair, k: int = 1
    ) -> Dict[int, List[Tuple[int, float]]]:
        """{source: [(target, score), ...]} with the k best targets each."""
        validate_pair(pair, registry=self._registry())
        source_embeddings, target_embeddings = self._embeddings(pair)
        targets, scores = streaming_top_k(
            source_embeddings,
            target_embeddings,
            self.config.resolved_layer_weights(),
            k=k,
            block_size=self.block_size,
            registry=self._registry(),
        )
        return {
            source: list(zip(map(int, targets[source]), map(float, scores[source])))
            for source in range(targets.shape[0])
        }

    def evaluate(self, pair: AlignmentPair) -> EvaluationReport:
        """Streamed evaluation against the pair's ground truth."""
        validate_pair(pair, registry=self._registry())
        source_embeddings, target_embeddings = self._embeddings(pair)
        return streaming_evaluate(
            source_embeddings,
            target_embeddings,
            self.config.resolved_layer_weights(),
            pair.groundtruth,
            block_size=self.block_size,
            registry=self._registry(),
        )
