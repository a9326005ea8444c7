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
* :class:`StreamingAligner` — end-to-end: trained model + pair → anchors,
  in O(block · n₂) peak memory.

Blocks are built, sanitized and selected from by :mod:`repro.core.scoring`,
the scorer the serving indexes share, and top-k scores are its canonical
per-pair values, so streamed answers carry the same scores and tie order
at any block size; that module also states the batch-invariance contract.
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
from .scoring import (
    RunningTopK, canonical_top_k, check_layers, pair_scores, score_block,
    score_slack,
)

__all__ = [
    "iter_score_blocks",
    "streaming_top_k",
    "streaming_evaluate",
    "streaming_find_stable_nodes",
    "StreamingAligner",
]


def _record_sanitized(
    registry: MetricsRegistry,
    start: int,
    stop: int,
    bad_entries: int,
    layer: Optional[int] = None,
) -> None:
    """Count and emit a block whose NaN/Inf scores :func:`score_block`
    set to ``-inf``, so the degradation stays visible."""
    if not bad_entries:
        return
    registry.increment("resilience.streaming_sanitized_blocks")
    payload = {"rows": [start, stop], "bad_entries": bad_entries}
    if layer is not None:
        payload["layer"] = layer
    registry.emit("resilience.streaming_sanitized", payload)


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
    _record_sanitized(registry, start, stop, bad)
    elapsed = time.perf_counter() - started
    registry.record_histogram("streaming.block_time", elapsed)
    registry.increment("streaming.blocks")
    registry.increment("streaming.rows", stop - start)
    # Only block-build time is charged to the trace (as to the histogram):
    # a generator span would bill the consumer's work to this frame.
    get_tracer().add_event(
        "streaming.block", started, elapsed, rows=[start, stop]
    )
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
    stop: int, consumer: Callable[..., Any], args: Tuple,
) -> Any:
    """Pool task: build one row block from shm embeddings, consume it."""
    with AttachedArrays(manifest) as arrays:
        block = _build_block(
            load_embeddings(arrays, "src", num_layers),
            load_embeddings(arrays, "tgt", num_layers),
            weights,
            start, stop,
            get_registry(),
        )
        return consumer(block, *args)


def _map_blocks(
    consumer: Callable[..., Any], block_args: Sequence[Tuple],
    ranges: Sequence[Tuple[int, int]], source: Sequence[np.ndarray],
    target: Sequence[np.ndarray], weights: Sequence[float],
    registry: MetricsRegistry, workers: Optional[int], label: str,
) -> List[Any]:
    """``consumer(block, *args)`` for every row block, in block order.

    ``workers=0`` builds the blocks inline; ``workers >= 1`` builds them
    in a process pool from shared-memory embeddings.  ``consumer`` is a
    module-level function so it pickles by reference; both paths run the
    same :func:`_build_block`, so results are bit-identical.
    """
    if not resolve_workers(workers):
        return [
            consumer(
                _build_block(source, target, weights, start, stop, registry),
                *args,
            )
            for (start, stop), args in zip(ranges, block_args)
        ]
    with SharedArrayStore(registry=registry) as store:
        publish_embeddings(store, "src", source)
        publish_embeddings(store, "tgt", target)
        manifest = store.manifest()
        return WorkerPool(workers, registry=registry).map(
            _block_task,
            [
                (manifest, len(weights), weights, start, stop, consumer, args)
                for (start, stop), args in zip(ranges, block_args)
            ],
            labels=[f"{label}[{start}:{stop}]" for start, stop in ranges],
        )


def _select_candidates(
    block: np.ndarray, k: int, slack: np.ndarray, start: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k candidate ``(source id, target id)`` pairs of one block."""
    selector = RunningTopK(block.shape[0], k)
    selector.push(block, slack=slack)
    rows, ids, _ = selector.candidates(slack)
    return rows + start, ids


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
    Returned scores may be ``-inf``: :func:`iter_score_blocks` sanitizes
    non-finite entries (NaN/Inf from broken embeddings) to ``-inf``, and
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
        blocks = _map_blocks(
            _select_candidates,
            [(k, slack[start:stop], start) for start, stop in ranges],
            ranges, source, target, weights, registry, workers, "top_k",
        )
        none = np.empty(0, dtype=np.int64)
        rows, ids = map(np.concatenate, zip((none, none), *blocks))
        return canonical_top_k(
            rows, ids, pair_scores(source, target, weights, rows, ids),
            n_source, k,
        )


def _rank_anchors(block: np.ndarray, anchors: Dict[int, int]) -> np.ndarray:
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
        _rank_anchors, anchors, ranges,
        source, target, weights, registry, workers, "eval",
    )
    return EvaluationReport.from_ranks(
        np.concatenate(ranks), target[0].shape[0]
    )


def streaming_find_stable_nodes(
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    threshold: float,
    block_size: int = 256,
    tie_tolerance: float = 1e-9,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq 13 stable nodes without materializing any n₁×n₂ matrix.

    The paper's space analysis (§VI-C) observes that stable-node detection
    "can be done by separately iterating the rows of S"; this implements
    exactly that: per row block, the per-layer scores and the aggregate are
    rebuilt from embeddings, the tie-tolerant Eq 13 test is applied, and
    only the stable (source, target) ids are kept.

    Semantics match :func:`repro.core.refine.find_stable_nodes` with a
    ``reference_scores`` aggregate (verified in tests).

    Per-layer score blocks go through the same non-finite sanitization as
    :func:`iter_score_blocks`: NaN/Inf entries become ``-inf`` (counted in
    ``resilience.streaming_sanitized_blocks`` with the layer index in the
    emitted event), so a poisoned embedding demotes the affected nodes to
    "not stable" *visibly* instead of silently dropping them through NaN
    comparisons.
    """
    source, target, weights = check_layers(
        source_embeddings, target_embeddings, layer_weights
    )
    if registry is None:
        registry = get_registry()
    stable_sources: List[int] = []
    stable_targets: List[int] = []
    for start, stop in _block_ranges(source[0].shape[0], block_size):
        started = time.perf_counter()
        layer_blocks = []
        for layer, (h_source, h_target) in enumerate(zip(source, target)):
            block, bad = score_block([h_source[start:stop]], [h_target], [1.0])
            _record_sanitized(registry, start, stop, bad, layer=layer)
            layer_blocks.append(block)
        aggregate = None
        for block, weight in zip(layer_blocks, weights):
            aggregate = weight * block if aggregate is None else aggregate + weight * block
        candidates = aggregate.argmax(axis=1)
        rows = np.arange(stop - start)
        maxima = np.stack([block.max(axis=1) for block in layer_blocks])
        candidate_scores = np.stack(
            [block[rows, candidates] for block in layer_blocks]
        )
        confident = np.all(maxima > threshold, axis=0)
        consistent = np.all(candidate_scores >= maxima - tie_tolerance, axis=0)
        for local in np.flatnonzero(confident & consistent):
            stable_sources.append(start + int(local))
            stable_targets.append(int(candidates[local]))
        elapsed = time.perf_counter() - started
        registry.record_histogram("streaming.block_time", elapsed)
        registry.increment("streaming.blocks")
        registry.increment("streaming.rows", stop - start)
        get_tracer().add_event(
            "streaming.stable_block", started, elapsed, rows=[start, stop]
        )
    return np.asarray(stable_sources, dtype=np.int64), np.asarray(
        stable_targets, dtype=np.int64
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
