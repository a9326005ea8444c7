"""Approximate serving tier: IVF coarse quantizer + int8 codes
(``repro.serving.ann``).

The exact :class:`~repro.serving.index.AlignmentIndex` scores
``O(n_target)`` rows per query.  At the million-node scale the ROADMAP
targets, that is the throughput ceiling.  This module trades a
*bounded, observable* amount of recall for QPS while keeping an
exactness escape hatch:

* **IVF coarse tier** — a deterministic seeded k-means (kmeans++ init,
  fixed iteration budget) over the concatenated target embeddings
  partitions targets into ``n_clusters`` inverted lists.  The lists are
  stored as one contiguous *row-range remapping* of the target matrix
  (``order`` maps remapped position → original id; ``offsets`` bounds
  each cluster's range), so quantized codes scan sequentially and the
  existing block/shard machinery applies unchanged.  A query probes the
  ``nprobe`` clusters whose centroid inner product is largest (ties
  broken by ascending cluster id, matching the index's canonical order).
* **int8 symmetric per-block quantization** — the remapped target matrix
  is encoded per row-block of ``quant_rows`` rows as
  ``codes = clip(rint(x / scale), -127, 127)`` with
  ``scale = max|x| / 127``, so every element's dequantization error is
  at most ``scale / 2``.
* **Float rescoring with a sound margin** — approximate (int8) scores
  select candidates with a per-row error margin
  ``0.5 · scale_block · ‖θ-weighted query‖₁`` (inflated by an
  ULP-scale fudge for GEMM rounding).  Rows whose *upper* bound clears
  the kth-best *lower* bound are rescored **pair by pair** with
  :func:`~repro.core.scoring.pair_scores`, the canonical score every
  exact path reports.  The margin is a proof, not a heuristic: the
  candidates always hold every true top-k member (ties included), so
  with ``nprobe == n_clusters`` the ANN answer is **bitwise identical**
  to :meth:`AlignmentIndex.top_k`.  With smaller ``nprobe`` the only
  approximation is *which clusters are probed*.

Neither phase holds a (batch × n_target) matrix or scores an exact
block: the int8 scan runs list by list against only the rows that
probed each list, and the rescoring reads only the candidates' rows.

Everything is deterministic: seeded RNG, fixed chunk sizes, canonical
tie orders; building the same state twice (in any process) yields
bit-identical arrays.  Metrics land under ``serving.ann.*``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.scoring import RunningTopK, canonical_top_k
from ..observability import MetricsRegistry, get_registry, get_tracer
from ..resilience import AnnParameterError
from .index import AlignmentIndex, _check_sources

__all__ = [
    "DEFAULT_QUANT_ROWS",
    "kmeans_fit",
    "quantize_int8",
    "dequantize_int8",
    "build_ann_state",
    "default_nprobe",
    "AnnIndex",
]

#: Rows per int8 quantization block (one shared scale per block).
DEFAULT_QUANT_ROWS = 512

#: Chunk of target rows per assignment GEMM: fixed so the distance
#: matrices (and therefore every argmin) are computed with identical
#: shapes on every run — the determinism keystone for k-means.
_ASSIGN_CHUNK = 16384

#: Rows per kmeans++ distance chunk: bounds the ``p - c`` scratch buffer
#: at ``_SEED_CHUNK × D`` floats instead of a whole-matrix temporary.
_SEED_CHUNK = 512


def _assign_clusters(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment; ties resolve to the lowest cluster id.

    Distances are compared via ``‖c‖² - 2·p·c`` (the ``‖p‖²`` term is
    constant per row) in fixed-size row chunks, so the result is
    bit-reproducible across runs and independent of worker counts —
    assignment always happens in the building process.  The score is
    formed in place as ``(p·c)·(-2) + ‖c‖²``, which rounds exactly like
    ``‖c‖² - 2·(p·c)``: scaling by a power of two is exact and
    ``a - b`` is ``(-b) + a``.
    """
    cent_sq = np.einsum("ij,ij->i", centroids, centroids)
    out = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], _ASSIGN_CHUNK):
        scores = points[start:start + _ASSIGN_CHUNK] @ centroids.T
        scores *= -2.0
        scores += cent_sq
        # np.argmin returns the first (lowest-id) minimizer on ties.
        out[start:start + _ASSIGN_CHUNK] = np.argmin(scores, axis=1)
    return out


def _fold_min_dist_sq(
    points: np.ndarray,
    centroid: np.ndarray,
    dist_sq: np.ndarray,
    delta: np.ndarray,
    row_sq: np.ndarray,
) -> None:
    """``dist_sq = min(dist_sq, ‖p - centroid‖²)`` row by row, in place.

    ``delta`` (``_SEED_CHUNK × D``) and ``row_sq`` (``_SEED_CHUNK``) are
    reused scratch.  Each row's difference and its einsum reduction are
    the same operations on the same contiguous row layout as over the
    whole matrix, so the bits do not depend on the chunking.
    """
    for start in range(0, points.shape[0], _SEED_CHUNK):
        stop = min(start + _SEED_CHUNK, points.shape[0])
        rows = stop - start
        np.subtract(points[start:stop], centroid, out=delta[:rows])
        np.einsum("ij,ij->i", delta[:rows], delta[:rows], out=row_sq[:rows])
        np.minimum(dist_sq[start:stop], row_sq[:rows], out=dist_sq[start:stop])


def kmeans_fit(
    points: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    iters: int = 8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic seeded k-means; returns ``(centroids, assignment)``.

    kmeans++ initialization (D² sampling via cumulative-sum inversion of
    one uniform draw per centroid, all from ``default_rng(seed)``) and a
    fixed ``iters`` Lloyd iteration budget — no convergence test, so the
    work done (and the bits produced) never depends on the data's
    condition.  Empty clusters keep their previous centroid.  The same
    ``(points, n_clusters, seed, iters)`` always produces bit-identical
    output, in any process.

    The working set stays a few chunk-sized buffers, never a temporary
    the size of ``points``, and the bits are those of the whole-matrix
    formulation: kmeans++ distances run in fixed row chunks through the
    same per-row subtract-and-reduce (``min(∞, d) = d``, so the first
    centroid folds like the rest); each Lloyd sum is a one-hot CSR
    product whose row for cluster ``c`` lists that cluster's points in
    ascending order with weight 1.0, so it adds them from zero in the
    order ``np.add.at`` would, and ``1.0·x`` is exact.
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(
            f"points must be a non-empty 2-D matrix, got shape {points.shape}"
        )
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    n = points.shape[0]
    n_clusters = min(n_clusters, n)
    rng = np.random.default_rng(seed)

    centroids = np.empty((n_clusters, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    dist_sq = np.full(n, np.inf)
    delta = np.empty((min(_SEED_CHUNK, n), points.shape[1]))
    row_sq = np.empty(delta.shape[0])
    _fold_min_dist_sq(points, centroids[0], dist_sq, delta, row_sq)
    for cluster in range(1, n_clusters):
        total = float(dist_sq.sum())
        if total <= 0.0 or not np.isfinite(total):
            # Every remaining point coincides with a centroid: any pick
            # is equivalent; keep consuming the stream deterministically.
            pick = int(rng.integers(n))
        else:
            draw = rng.random() * total
            pick = min(
                int(np.searchsorted(np.cumsum(dist_sq), draw, side="right")),
                n - 1,
            )
        centroids[cluster] = points[pick]
        _fold_min_dist_sq(points, centroids[cluster], dist_sq, delta, row_sq)

    assignment = _assign_clusters(points, centroids)
    ones = np.ones(n)
    columns = np.arange(n)
    for _ in range(iters):
        one_hot = sp.csr_matrix(
            (ones, (assignment, columns)), shape=(n_clusters, n)
        )
        sums = one_hot @ points
        counts = np.bincount(assignment, minlength=n_clusters)
        populated = counts > 0
        centroids[populated] = (
            sums[populated] / counts[populated, None]
        )
        assignment = _assign_clusters(points, centroids)
    return centroids, assignment


def quantize_int8(
    matrix: np.ndarray, quant_rows: int = DEFAULT_QUANT_ROWS
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-row-block int8 quantization: ``(codes, scales)``.

    Block ``b`` covers rows ``[b·quant_rows, (b+1)·quant_rows)`` and
    shares one scale ``max|x| / 127``; codes are
    ``clip(rint(x / scale), -127, 127)``, so
    ``|x - scale·code| <= scale / 2`` elementwise (an all-zero block
    gets ``scale = 0`` and exact zero codes).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if quant_rows < 1:
        raise ValueError(f"quant_rows must be >= 1, got {quant_rows}")
    n = matrix.shape[0]
    num_blocks = -(-n // quant_rows)
    codes = np.empty(matrix.shape, dtype=np.int8)
    scales = np.zeros(num_blocks)
    for block in range(num_blocks):
        start = block * quant_rows
        stop = min(start + quant_rows, n)
        peak = float(np.abs(matrix[start:stop]).max()) if stop > start else 0.0
        scale = peak / 127.0
        scales[block] = scale
        if scale == 0.0:
            codes[start:stop] = 0
        else:
            codes[start:stop] = np.clip(
                np.rint(matrix[start:stop] / scale), -127, 127
            ).astype(np.int8)
    return codes, scales


def dequantize_int8(
    codes: np.ndarray,
    scales: np.ndarray,
    quant_rows: int = DEFAULT_QUANT_ROWS,
) -> np.ndarray:
    """Reconstruct the float matrix from :func:`quantize_int8` output."""
    codes = np.asarray(codes)
    row_scales = np.repeat(
        np.asarray(scales, dtype=np.float64), quant_rows
    )[: codes.shape[0]]
    return codes.astype(np.float64) * row_scales[:, None]


def default_nprobe(n_clusters: int) -> int:
    """The serving default when no ``nprobe`` is given: ``~sqrt(C)``."""
    return max(1, min(int(round(float(n_clusters) ** 0.5)), int(n_clusters)))


def build_ann_state(
    target_embeddings: Sequence[np.ndarray],
    n_clusters: int,
    seed: int = 0,
    iters: int = 8,
    quantize: bool = True,
    quant_rows: int = DEFAULT_QUANT_ROWS,
) -> Dict[str, Any]:
    """Train the IVF + quantization state for a target embedding set.

    Returns a dict of plain arrays (the exact payload the
    ``repro.artifact/v2`` export writes): ``centroids`` ``(C, D)``
    float64 over the *unweighted* concatenated target layers (θ weights
    apply to the query side), ``offsets`` ``(C+1,)`` int64 inverted-list
    bounds in the remapped row order, ``order`` ``(n_target,)`` int64
    mapping remapped position → original target id (clusters ascending,
    original id ascending within a cluster — fully canonical), plus
    ``codes`` ``(n_target, D)`` int8 and ``scales`` float64 over the
    *remapped* matrix when ``quantize`` (both ``None`` otherwise), and
    a ``params`` provenance dict.

    Raises ``ValueError`` when the targets hold a non-finite entry: a
    NaN centroid would capture every point and a NaN scale would void
    every code, so such an index answers no query at all.
    """
    concat = np.concatenate(
        [np.asarray(layer, dtype=np.float64) for layer in target_embeddings],
        axis=1,
    )
    if not np.isfinite(concat).all():
        bad = int(np.count_nonzero(~np.isfinite(concat)))
        raise ValueError(
            f"target embeddings contain {bad} non-finite values; "
            "refusing to build an ANN tier over them"
        )
    n_target = concat.shape[0]
    n_clusters = min(int(n_clusters), n_target)
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    tracer = get_tracer()
    with tracer.span(
        "serving.ann.kmeans", n_target=n_target, n_clusters=n_clusters
    ):
        centroids, assignment = kmeans_fit(
            concat, n_clusters, seed=seed, iters=iters
        )
    # Stable sort: clusters ascending, original row order within each.
    order = np.argsort(assignment, kind="stable").astype(np.int64)
    counts = np.bincount(assignment, minlength=n_clusters)
    offsets = np.concatenate(
        [[0], np.cumsum(counts)]
    ).astype(np.int64)
    codes = scales = None
    if quantize:
        with tracer.span("serving.ann.quantize", quant_rows=quant_rows):
            codes, scales = quantize_int8(
                concat[order], quant_rows=quant_rows
            )
    return {
        "centroids": centroids,
        "offsets": offsets,
        "order": order,
        "codes": codes,
        "scales": scales,
        "params": {
            "n_clusters": int(n_clusters),
            "seed": int(seed),
            "iters": int(iters),
            "quantize": bool(quantize),
            "quant_rows": int(quant_rows),
        },
    }


def _artifact_ann_state(artifact) -> Optional[Dict[str, Any]]:
    """An artifact's ANN state (its mmap'd aux arrays plus ``params``),
    or ``None`` when it was exported without an ANN tier."""
    if getattr(artifact, "ann", None) is None:
        return None
    state = dict(artifact.ann)
    state["params"] = dict(artifact.ann_params or {})
    return state


class AnnProber:
    """The probe + candidate-selection half of the ANN tier.

    Holds the IVF/quantization state and answers, for a θ-weighted query
    batch, *which (row, original target id) pairs must be float-rescored*
    so the true top-k (over the probed clusters) provably survives.  The
    rescoring itself lives with whoever owns the target matrix — the
    single-process :class:`AnnIndex` or the sharded scatter-gather.
    """

    def __init__(
        self,
        state: Dict[str, Any],
        n_target: int,
        dim: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry
        self.centroids = np.asarray(state["centroids"], dtype=np.float64)
        self.offsets = np.asarray(state["offsets"], dtype=np.int64)
        self.order = np.asarray(state["order"], dtype=np.int64)
        params = dict(state.get("params") or {})
        self.quant_rows = int(params.get("quant_rows", DEFAULT_QUANT_ROWS))
        self.params = params
        codes = state.get("codes")
        scales = state.get("scales")
        self.codes = None if codes is None else np.asarray(codes)
        self.scales = (
            None if scales is None
            else np.asarray(scales, dtype=np.float64)
        )

        if self.centroids.ndim != 2 or self.centroids.shape[1] != dim:
            raise ValueError(
                f"ANN centroids have shape {self.centroids.shape}, expected "
                f"(n_clusters, {dim}) for this embedding set"
            )
        n_clusters = self.centroids.shape[0]
        if self.offsets.shape != (n_clusters + 1,):
            raise ValueError(
                f"ANN offsets have shape {self.offsets.shape}, expected "
                f"({n_clusters + 1},)"
            )
        if (
            int(self.offsets[0]) != 0
            or int(self.offsets[-1]) != n_target
            or np.any(np.diff(self.offsets) < 0)
        ):
            raise ValueError(
                "ANN inverted-list offsets are not a monotone partition of "
                f"[0, {n_target})"
            )
        if self.order.shape != (n_target,) or not np.array_equal(
            np.sort(self.order), np.arange(n_target, dtype=np.int64)
        ):
            raise ValueError(
                f"ANN order must be a permutation of [0, {n_target})"
            )
        if (self.codes is None) != (self.scales is None):
            raise ValueError(
                "ANN codes and scales must be present together or absent "
                "together"
            )
        if self.codes is not None:
            if self.codes.dtype != np.int8:
                raise ValueError(
                    f"ANN codes must be int8, got {self.codes.dtype}"
                )
            if self.codes.shape != (n_target, dim):
                raise ValueError(
                    f"ANN codes have shape {self.codes.shape}, expected "
                    f"({n_target}, {dim})"
                )
            expected_blocks = -(-n_target // self.quant_rows)
            if self.scales.shape != (expected_blocks,):
                raise ValueError(
                    f"ANN scales have shape {self.scales.shape}, expected "
                    f"({expected_blocks},) for quant_rows={self.quant_rows}"
                )
            # Per remapped-row scale, for O(1) margin lookup at query time.
            self._row_scales = np.repeat(self.scales, self.quant_rows)[
                :n_target
            ]
        else:
            self._row_scales = None
        self.n_target = int(n_target)

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def quantized(self) -> bool:
        return self.codes is not None

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def resolve_nprobe(self, nprobe: Optional[int]) -> int:
        """Validate/default ``nprobe``; raises :class:`AnnParameterError`.

        ``None`` picks the ``~sqrt(n_clusters)`` serving default.  Bools
        and non-integers are rejected (mirroring the HTTP tier's strict
        typing), as is anything outside ``[1, n_clusters]``.
        """
        if nprobe is None:
            return default_nprobe(self.n_clusters)
        if isinstance(nprobe, bool) or not isinstance(
            nprobe, (int, np.integer)
        ):
            raise AnnParameterError(
                f"nprobe must be an integer, got {nprobe!r} "
                f"({type(nprobe).__name__})"
            )
        if not 1 <= int(nprobe) <= self.n_clusters:
            raise AnnParameterError(
                f"nprobe must be in [1, {self.n_clusters}] for this index, "
                f"got {int(nprobe)}"
            )
        return int(nprobe)

    def probe(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """Per query row, the ``nprobe`` probed cluster ids.

        Clusters rank by inner product ``⟨q, centroid⟩`` descending with
        ascending-id tie-break (the serving-wide canonical order; a
        stable sort of the negated scores), so probing is deterministic
        including degenerate centroids.
        """
        scores = queries @ self.centroids.T
        return np.argsort(-scores, axis=1, kind="stable")[:, :nprobe]

    def select_candidates(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)``: the (query row, original target id) pairs to
        float-rescore, as two flat arrays.

        Probed lists are scanned cluster by cluster, each against only
        the rows that probed it.  Quantized path: approximate scores
        carry a per-row error margin ``0.5 · scale_block · ‖q‖₁`` (plus
        an ULP-scale inflation for GEMM rounding).  A pair survives when
        its upper bound reaches the row's kth-largest lower bound over
        all its probed lists, which guarantees the true top-k of the
        probed set — boundary ties included — is among the candidates.
        The kth is the :class:`~repro.core.scoring.RunningTopK` one
        :meth:`AlignmentIndex.top_k` uses, fed the lower bounds: it only
        rises, so a pair dropped against it is below the final kth too,
        and a last filter applies the final value.  Rows with
        at most ``k`` probed targets keep them all; unquantized state
        keeps every probed pair.
        """
        registry = self._registry()
        started = time.perf_counter()
        batch = queries.shape[0]
        probed = self.probe(queries, nprobe).ravel()
        # The rows that probed each cluster, grouped by ascending cluster.
        by_cluster = np.argsort(probed, kind="stable")
        probe_rows = by_cluster // nprobe
        edges = np.searchsorted(
            probed[by_cluster], np.arange(self.n_clusters + 1)
        )
        if self.quantized:
            l1 = np.abs(queries).sum(axis=1)
            # Running kth over the lower bounds: -inf until a row has
            # seen k probed targets, so its kth keeps everything.
            selector = RunningTopK(batch, k)
        kept_rows = [np.empty(0, dtype=np.int64)]
        kept_positions = [np.empty(0, dtype=np.int64)]
        rows_probed = 0
        for cluster in np.flatnonzero(np.diff(edges)):
            start, stop = self.offsets[cluster], self.offsets[cluster + 1]
            if stop <= start:
                continue
            rows = probe_rows[edges[cluster]:edges[cluster + 1]]
            rows_probed += rows.size * (stop - start)
            if not self.quantized:
                kept_rows.append(np.repeat(rows, stop - start))
                kept_positions.append(
                    np.tile(np.arange(start, stop), rows.size)
                )
                continue
            scales = self._row_scales[start:stop]
            # codes are exact small integers: q @ codesᵀ then one
            # multiply by the row scale reproduces scale·⟨q, code⟩.
            approx = (
                queries[rows] @ self.codes[start:stop].astype(np.float64).T
            ) * scales
            # Sound margin: dequantization error ≤ scale/2 per element →
            # ≤ 0.5·scale·‖q‖₁ per inner product; the extra term absorbs
            # float GEMM rounding on both sides.
            margin = 0.5 * l1[rows, None] * scales
            margin = margin + 1e-9 * (np.abs(approx) + 1.0)
            selector.push(
                approx + margin, start, rows=rows, bound=approx - margin
            )
        if self.quantized:
            rows, positions, _ = selector.candidates()
        else:
            rows = np.concatenate(kept_rows)
            positions = np.concatenate(kept_positions)

        registry.increment("serving.ann.queries", batch)
        registry.increment("serving.ann.lists_probed", nprobe * batch)
        registry.increment("serving.ann.rows_probed", int(rows_probed))
        registry.increment("serving.ann.candidates_rescored", rows.size)
        registry.observe(
            "serving.ann.probe_fraction", nprobe / self.n_clusters
        )
        if rows_probed:
            # Recall proxy: how sharply the int8 scan narrows the probed
            # set — near 1.0 means quantization is buying nothing.
            registry.observe(
                "serving.ann.candidate_fraction", rows.size / rows_probed
            )
        registry.record_histogram(
            "serving.ann.probe_time", time.perf_counter() - started
        )
        return rows, self.order[positions]


def weighted_queries(
    source: Sequence[np.ndarray], weights: Sequence[float],
    sources: np.ndarray,
) -> np.ndarray:
    """θ-weighted concatenated query rows (the probe-space vectors)."""
    return np.concatenate(
        [
            weight * np.asarray(layer[sources], dtype=np.float64)
            for weight, layer in zip(weights, source)
        ],
        axis=1,
    )


class AnnIndex:
    """IVF + int8 approximate index wrapping an exact
    :class:`AlignmentIndex`, behind the same ``top_k`` surface.

    ``mode='exact'`` (the default) delegates verbatim to the inner exact
    index, so an engine holding an :class:`AnnIndex` answers legacy
    queries bitwise unchanged.  ``mode='ann'`` probes ``nprobe``
    inverted lists, margin-filters candidates on the int8 scan, and
    rescores them with the canonical per-pair scores the exact paths
    report, so ``nprobe == n_clusters`` reproduces the exact answer
    exactly.

    Build fresh (``n_clusters``/``seed``/``iters``/``quantize`` knobs)
    or from precomputed ``state`` (what :func:`from_artifact` does with
    the memory-mapped ``repro.artifact/v2`` aux arrays).
    """

    #: Engines check this to route ``mode='ann'`` requests.
    supports_ann = True

    def __init__(
        self,
        source_embeddings: Sequence[np.ndarray],
        target_embeddings: Sequence[np.ndarray],
        layer_weights: Sequence[float],
        n_clusters: int = 64,
        seed: int = 0,
        iters: int = 8,
        quantize: bool = True,
        quant_rows: int = DEFAULT_QUANT_ROWS,
        state: Optional[Dict[str, Any]] = None,
        target_block_size: int = 512,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.exact = AlignmentIndex(
            source_embeddings,
            target_embeddings,
            layer_weights,
            target_block_size=target_block_size,
            registry=registry,
        )
        self.registry = registry
        if state is None:
            state = build_ann_state(
                target_embeddings,
                n_clusters=n_clusters,
                seed=seed,
                iters=iters,
                quantize=quantize,
                quant_rows=quant_rows,
            )
        dim = sum(
            int(np.asarray(layer).shape[1]) for layer in target_embeddings
        )
        self.prober = AnnProber(
            state, n_target=self.exact.n_target, dim=dim, registry=registry
        )
        self.state = state

    @classmethod
    def from_artifact(cls, artifact, **kwargs) -> "AnnIndex":
        """Index over an artifact's embeddings + its mmap'd ANN arrays."""
        state = _artifact_ann_state(artifact)
        if state is None:
            raise AnnParameterError(
                f"artifact {artifact.path!r} has no ANN tier; re-export it "
                "with `repro export-artifact --ann-clusters N`"
            )
        return cls(
            artifact.source_embeddings,
            artifact.target_embeddings,
            artifact.layer_weights,
            state=state,
            **kwargs,
        )

    # -- AlignmentIndex surface ----------------------------------------
    @property
    def n_source(self) -> int:
        return self.exact.n_source

    @property
    def n_target(self) -> int:
        return self.exact.n_target

    @property
    def n_clusters(self) -> int:
        return self.prober.n_clusters

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def resolve_nprobe(self, nprobe: Optional[int]) -> int:
        return self.prober.resolve_nprobe(nprobe)

    def top_k(
        self,
        sources,
        k: int = 1,
        mode: str = "exact",
        nprobe: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact or approximate batched top-k, per ``mode``.

        ``mode='exact'`` ignores ``nprobe`` being absent and is the
        inner index verbatim; passing ``nprobe`` with it is the caller's
        bug.  ``mode='ann'`` answers from the probed clusters only;
        rows with fewer than ``k`` reachable targets right-pad with
        ``-inf`` scores.
        """
        if mode == "exact":
            if nprobe is not None:
                raise AnnParameterError(
                    "nprobe only applies to mode='ann' "
                    f"(got nprobe={nprobe!r} with mode='exact')"
                )
            return self.exact.top_k(sources, k)
        if mode != "ann":
            raise AnnParameterError(
                f"mode must be 'exact' or 'ann', got {mode!r}"
            )
        nprobe = self.resolve_nprobe(nprobe)
        registry = self._registry()
        started = time.perf_counter()
        sources = _check_sources(sources, self.n_source)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.n_target)

        rows, ids = self.prober.select_candidates(
            weighted_queries(self.exact._source, self.exact._weights, sources),
            k, nprobe,
        )
        out_targets, out_scores = canonical_top_k(
            rows, ids, self.exact.pair_scores(sources[rows], ids),
            sources.size, k,
        )
        registry.record_histogram(
            "serving.ann.query_time", time.perf_counter() - started
        )
        return out_targets, out_scores
