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
* **Float rescoring with a sound margin** — the int8 lists are scanned
  with float32 GEMMs (float64 when the query magnitudes could overflow
  float32), and each approximate score is bracketed by a rank-1 margin
  ``scale_block · h · ‖θ-weighted query‖₁`` with ``h`` a little above
  ``½`` (:meth:`AnnProber.select_candidates` derives it).  Pairs whose
  *upper* bound clears their row's kth-best *lower* bound are rescored
  **pair by pair** with :func:`~repro.core.scoring.pair_scores`, the
  canonical score every exact path reports.  The margin is a proof, not
  a heuristic: the candidates always hold every true top-k member (ties
  included), so with ``nprobe == n_clusters`` the ANN answer is
  **bitwise identical** to :meth:`AlignmentIndex.top_k`.  With smaller
  ``nprobe`` the only approximation is *which clusters are probed*.
* **Brackets for the hits only** — each row's kth-best lower bound over
  its nearest probed list is a floor under its final kth (raised from
  every probed list when it lets too many pairs through), so one float32
  compare of the raw scan against that floor, in code units, finds the
  few pairs per row that can be candidates, and only they are bracketed
  in float64.

Neither phase scores an exact block: the int8 scan runs list by list
against only the rows that probed each list and holds its values for
the probed pairs alone, at most :data:`_SCAN_PAIRS` of them at a time
unless one row probes more (a larger batch is selected in row slices);
the rescoring reads only the candidates' rows.

Everything is deterministic: seeded RNG, fixed chunk sizes, canonical
tie orders; building the same state twice (in any process) yields
bit-identical arrays.  Metrics land under ``serving.ann.*``.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.scoring import (
    SELECT_HEADROOM,
    _finite_max_abs,
    canonical_top_k,
)
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

#: Largest ``|code|`` of :func:`quantize_int8`.
_CODE_MAX = 127

#: Probed (row, target) pairs whose scan values one selection pass holds
#: (16 MiB in float32); a batch probing more is selected in row slices.
_SCAN_PAIRS = 1 << 22

#: Hits per row and per k past which the nearest list's floor counts as
#: weak and every probed list's kth raises it.  On serve-batch's planted
#: embeddings the nearest list lets ~3 per k through; on unclustered
#: 3×64 Gaussian ones ~121, and ~10 once raised.
_FLOOR_HITS = 16

#: One-value steps :func:`_code_floors` takes each way from its first
#: guess; a floor still unsettled keeps every pair (``-inf``) or a lower,
#: sound value.
_FLOOR_STEPS = 4


def _gamma(n: int, unit: float) -> float:
    """Higham's ``γ_n = n·u / (1 - n·u)`` (``inf`` once ``n·u >= 1``)."""
    return n * unit / (1 - n * unit) if n * unit < 1 else np.inf


def _bracket(
    raw: np.ndarray, radius: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """``scale·(raw + radius)`` in float64: the upper bound, or the lower
    one for a negated radius (``a + (-b)`` rounds as ``a - b``)."""
    return np.add(raw, radius) * scales  # float64: raw is widened exactly


def _code_floors(
    floor: np.ndarray, radius: np.ndarray, scales: np.ndarray,
    dtype: np.dtype,
) -> np.ndarray:
    """Per entry, the floor in code units: the least ``dtype`` value ``t``
    whose ``upper = scale·(t + radius)`` reaches ``floor``.

    ``upper`` as :func:`_bracket` forms it never decreases as its raw
    value grows: the exact widening, the sum, the product by ``scale >=
    0`` and each rounding keep order.  ``t`` starts from the float64
    solution ``floor/scale - radius`` rounded into ``dtype``, whose
    roundings may leave it a value or two off.  It steps down while the
    value just below it still reaches the floor, then up while it falls
    short of it.  Every step keeps the value just below ``t`` short of
    the floor, so by monotonicity every smaller raw value is too: a raw
    value whose upper bound reaches the floor is ``>= t``, and the
    ``dtype`` compare ``raw >= t`` keeps it.  A floor still stepping down
    after :data:`_FLOOR_STEPS` steps gets ``-inf``; one still stepping
    up keeps its last, lower ``t``.  A ``-inf`` floor gives ``-inf``; a
    zero scale gives ``upper = 0``, so ``-inf`` when ``floor <= 0`` and
    ``inf`` otherwise.
    """
    code = np.full(floor.shape, -np.inf, dtype=dtype)
    code[(floor > 0) & (scales == 0)] = np.inf
    live = np.flatnonzero((floor > -np.inf) & (scales > 0))
    floor, radius, scales = floor[live], radius[live], scales[live]
    with np.errstate(over="ignore"):  # past dtype's range: ±inf
        guess = (floor / scales - radius).astype(dtype)

    def reaches(values, at):
        return _bracket(values, radius[at], scales[at]) >= floor[at]

    down, up = dtype.type(-np.inf), dtype.type(np.inf)
    pending = np.arange(live.size)
    for _ in range(_FLOOR_STEPS):
        below = np.nextafter(guess[pending], down)
        lower = reaches(below, pending)
        pending = pending[lower]
        guess[pending] = below[lower]
        if pending.size == 0:
            break
    else:
        guess[pending] = -np.inf
    pending = np.flatnonzero(guess > -np.inf)
    for _ in range(_FLOOR_STEPS):
        pending = pending[~reaches(guess[pending], pending)]
        guess[pending] = np.nextafter(guess[pending], up)
        if pending.size == 0:
            break
    code[live] = guess
    return code


def _kth_per_row(
    rows: np.ndarray, values: np.ndarray, batch: int, k: int
) -> np.ndarray:
    """Each batch row's kth-largest of its ``values`` (``-inf`` below k)."""
    order = np.argsort(values)
    order = order[np.argsort(rows[order], kind="stable")]
    counts = np.bincount(rows, minlength=batch)
    full = counts >= k
    kth = np.full(batch, -np.inf)
    kth[full] = values[order[np.cumsum(counts)[full] - k]]
    return kth


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
    gets ``scale = 0`` and exact zero codes).  In the subnormal tail
    ``max|x| / 127`` underflows to 0 or rounds coarsely; there the scale
    steps up to the next float until ``rint(max|x| / scale) <= 127``, so
    no code clips and the bound holds for every nonzero block.
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
        while peak > 0.0 and (scale == 0.0 or np.rint(peak / scale) > 127):
            scale = math.nextafter(scale, math.inf)
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
            # The extreme block scales, for the margin's underflow term
            # and the overflow check (an all-zero block scans exactly).
            positive = self.scales[self.scales > 0]
            self._scale_floor = float(positive.min(initial=np.inf))
            self._scale_peak = float(self.scales.max(initial=0.0))
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

    def scan_plan(
        self, queries: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(scan, radius)`` for bracketing the int8 scan of ``queries``,
        or ``None`` when the scan could overflow float64.

        ``scan`` is ``queries`` in the scanning dtype: float32 when
        ``127·D·max|q|`` (D the width, max over finite entries) stays
        :data:`~repro.core.scoring.SELECT_HEADROOM` below float32's
        maximum, so no cast, product or partial sum of the scan can
        overflow; float64 otherwise.  ``radius`` is each row's margin
        in code units, ``h·‖q‖₁ + η`` (see :meth:`select_candidates`),
        non-finite for a row with a non-finite entry.  ``None`` means
        some finite bound could pass ``max / SELECT_HEADROOM`` of
        float64; the caller then keeps every probed pair.
        """
        width = queries.shape[1]
        dtype = np.dtype(np.float64)
        limits = np.finfo(np.float32)
        peak = _CODE_MAX * width * _finite_max_abs(queries)
        if peak <= float(limits.max) / SELECT_HEADROOM:
            dtype = np.dtype(np.float32)
        wide = np.finfo(np.float64)
        unit, unit64 = float(np.finfo(dtype).eps) / 2, float(wide.eps) / 2
        tiny64 = float(wide.tiny)
        half_width = (
            0.5 + _CODE_MAX * _gamma(width + 1, unit)
            + 128 * _gamma(3 * width + 8, unit64)
        )
        eta = (
            256 * width * float(np.finfo(dtype).tiny)
            + 128 * width * tiny64
            + (4 * width + 4) * tiny64 / self._scale_floor
        )
        l1 = np.abs(queries).sum(axis=1)
        radius = half_width * l1 + eta
        # |raw| <= (127 + h)·‖q‖₁ + η, so |raw ± radius| <= reach.
        reach = (
            (_CODE_MAX + 2 * half_width)
            * float(l1[np.isfinite(l1)].max(initial=0.0)) + eta
        )
        if max(reach, reach * self._scale_peak) > float(wide.max) / (
            SELECT_HEADROOM
        ):
            return None
        return queries.astype(dtype, copy=False), radius

    def _scan(
        self, scan: np.ndarray, rows: np.ndarray, start: int, stop: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``raw = codes[start:stop] @ scan[rows]ᵀ``, list × rows: the
        list's codes cast to ``scan``'s dtype (exact: ``|c| <= 127``) on
        the left of one GEMM."""
        return np.matmul(
            self.codes[start:stop].astype(scan.dtype), scan[rows].T, out=out
        )

    def _bounds(
        self, scan: np.ndarray, radius: np.ndarray, rows: np.ndarray,
        start: int, stop: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """float64 ``(upper, lower)`` of ``rows`` against the remapped
        targets ``[start, stop)``, rows × targets: :meth:`_scan`, then
        ``scale·(raw ± radius)``."""
        raw = self._scan(scan, rows, start, stop).T
        reach = radius[rows, None]
        scales = self._row_scales[start:stop]
        return _bracket(raw, reach, scales), _bracket(raw, -reach, scales)

    def select_candidates(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)``: the (query row, original target id) pairs to
        float-rescore, as two flat arrays in no particular order.

        Quantized path: each probed list is scored by one GEMM against
        only the rows that probed it, ``raw = codes · q[rows]ᵀ`` in the
        :meth:`scan_plan` dtype (:meth:`_scan`).  Each pair is bracketed
        in float64 by ``upper = scale·(raw + r)`` and ``lower = scale·(raw
        - r)`` with the row's radius ``r = h·‖q‖₁ + η`` and

            ``h = ½ + 127·γ_{D+1} + 128·γ⁶⁴_{3D+8}``,

        ``γ_n = n·u / (1 - n·u)`` with ``u`` the scanning dtype's unit
        roundoff (``γ⁶⁴`` float64's) and ``D`` the query width.  Every
        bracket holds the pair's canonical
        :func:`~repro.core.scoring.pair_scores` value ``p``:

        * dequantization: ``|t - scale·c| <= scale/2`` elementwise, so
          ``|⟨q, t⟩ - scale·⟨q, c⟩| <= scale·½·‖q‖₁``;
        * the scan: casting ``q`` (relative ``u``) and the GEMM's
          rounding (``γ_D`` of ``Σ|q_i|·|c_i| <= 127·‖q‖₁``) move
          ``⟨q, c⟩`` by at most ``127·γ_{D+1}·‖q‖₁``;
        * float64: ``p`` differs from ``⟨q, t⟩`` by at most
          ``γ⁶⁴_{2D+3}·Σ|q_i|·|t_i| <= 127.5·γ⁶⁴_{2D+3}·scale·‖q‖₁``
          (θ-folding, products, sums), and ``‖q‖₁``, ``h·‖q‖₁``,
          ``raw ± r`` and the scale multiply add a few float64 roundings
          of values below ``(127 + 2h)·‖q‖₁``; the ``128·γ⁶⁴_{3D+8}``
          term covers both;
        * underflow: ``η = 256·D·η_s + 128·D·η₆₄ + (4D + 4)·η₆₄ /
          scale_min``, with ``η_s``/``η₆₄`` the scanning dtype's and
          float64's smallest normal, covers casts, products and sums
          that land below them (flushed to zero included), on either
          side; an all-zero block (scale 0) scans exactly.

        A pair is a candidate when its upper bound reaches its row's
        kth-largest lower bound over all the row's probed pairs (``-inf``
        below k pairs), so every pair scoring at least the true kth over
        the probed set, boundary ties included, is rescored.  Only a few
        pairs per row can reach it, so the float64 brackets are formed
        for those alone, in three steps (:meth:`_bracketed_pairs`):

        1. the raw blocks of every probed list are kept for the call;
        2. each row's *floor* is the kth-largest lower bound over its
           nearest probed list (probe slot 0), ``-inf`` when that list
           holds fewer than k targets.  The list is part of the row's
           probed set, so the floor never exceeds the final kth;
        3. each list is compared with the floor in ``raw``'s dtype, one
           compare per quantization block it spans, against the floor in
           code units (:func:`_code_floors`): every pair whose upper
           bound reaches the floor is a hit.  Past :data:`_FLOOR_HITS`
           hits per row and per k, the nearest list said little about
           the top-k, so the floor is raised and the lists compared
           again.  In every probed list of at least k targets, with
           ``x`` the row's kth-largest raw value there, k pairs have
           ``raw >= x`` and so ``lower >= scale·(x - r)`` for their
           block: the least ``scale·(x - r)`` over the list's blocks is
           at most the list's kth-largest lower bound, and the raised
           floor is the largest of these and the first.  The brackets
           are formed for the hits only; the k largest lower bounds have
           ``upper >= lower >= kth >= floor``, so they are hits and the
           hits' kth is the final kth, and the hits whose upper bound
           reaches it are the candidates.

        Non-finite bounds (a row with a NaN or infinite entry) are set to
        ``-inf``, as :func:`~repro.core.scoring.score_block` does, so
        such a row keeps every probed pair: it scans as zeros, so its
        floor in code units is ``-inf`` and every pair is a hit.
        Unquantized state, or a batch whose bounds could overflow
        float64, keeps every probed pair.  A batch probing more than
        :data:`_SCAN_PAIRS` pairs is selected in row slices, so the raw
        blocks held stay bounded.
        """
        registry = self._registry()
        started = time.perf_counter()
        batch = queries.shape[0]
        probed = self.probe(queries, nprobe)
        per_row = np.diff(self.offsets)[probed].sum(axis=1)
        rows_probed = int(per_row.sum())
        plan = self.scan_plan(queries) if self.quantized else None
        if plan is None:
            rows, positions = self._every_pair(probed)
        else:
            scan, radius = plan
            if not np.isfinite(radius).all():
                scan = np.where(np.isfinite(radius)[:, None], scan, 0)
            step = max(1, _SCAN_PAIRS // int(per_row.max(initial=1)))
            kept_rows = [np.empty(0, dtype=np.int64)]
            kept_positions = [np.empty(0, dtype=np.int64)]
            hits = 0
            # A poisoned row's radius meets a zero scale as inf·0; its
            # bounds are set to -inf, so the invalid-value warnings say
            # nothing.
            with np.errstate(invalid="ignore"):
                for lo in range(0, batch, step):
                    part_rows, part_positions, part_hits = (
                        self._bracketed_pairs(
                            scan[lo:lo + step], radius[lo:lo + step],
                            probed[lo:lo + step], k,
                        )
                    )
                    kept_rows.append(part_rows + lo)
                    kept_positions.append(part_positions)
                    hits += part_hits
            rows = np.concatenate(kept_rows)
            positions = np.concatenate(kept_positions)
            registry.increment("serving.ann.prefilter_hits", hits)

        registry.increment("serving.ann.queries", batch)
        registry.increment("serving.ann.lists_probed", nprobe * batch)
        registry.increment("serving.ann.rows_probed", rows_probed)
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

    def _every_pair(self, probed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every probed ``(row, remapped position)`` pair."""
        lists = probed.ravel()
        sizes = np.diff(self.offsets)[lists]
        rows = np.repeat(np.arange(probed.shape[0]), probed.shape[1])
        # Position = list start + offset of the pair within its list.
        shift = self.offsets[lists] - (np.cumsum(sizes) - sizes)
        return (
            np.repeat(rows, sizes),
            np.repeat(shift, sizes) + np.arange(int(sizes.sum())),
        )

    def _bracketed_pairs(
        self, scan: np.ndarray, radius: np.ndarray, probed: np.ndarray,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """The candidate ``(row, remapped position)`` pairs of
        :meth:`select_candidates`' quantized path, for the batch rows of
        ``scan`` (a poisoned row already zeroed) and their ``probed``
        lists, and the number of pairs whose upper bound reaches their
        row's floor (the hits the float64 brackets are formed for)."""
        batch, nprobe = probed.shape
        # (row, slot) entries grouped by list, each list's nearest-slot
        # entries first: key = list·nprobe + slot, stable over rows.
        key = (probed * nprobe + np.arange(nprobe)).ravel()
        order = np.argsort(key, kind="stable")
        entry_rows = order // nprobe
        key = key[order]
        bounds = np.searchsorted(key, np.arange(self.n_clusters + 1) * nprobe)
        nearest = np.searchsorted(key, np.arange(self.n_clusters) * nprobe + 1)
        lengths = np.diff(self.offsets)
        lists = np.flatnonzero((np.diff(bounds) > 0) & (lengths > 0))
        starts = self.offsets[lists]
        sizes = lengths[lists]
        firsts = bounds[lists]
        heights = bounds[lists + 1] - firsts
        bases = np.concatenate([[0], np.cumsum(sizes * heights)])
        # Quantization blocks each list spans, as (list, block, row)
        # cells laid out list by list, block-major.
        quant = self.quant_rows
        first_blocks = starts // quant
        spans = (starts + sizes - 1) // quant - first_blocks + 1
        cells = np.concatenate([[0], np.cumsum(spans * heights)])
        geometry = list(zip(
            starts.tolist(), sizes.tolist(), firsts.tolist(),
            heights.tolist(), bases.tolist(), first_blocks.tolist(),
            spans.tolist(), cells.tolist(),
        ))

        raw = np.empty(int(bases[-1]), dtype=scan.dtype)
        nearest_floors = np.full(entry_rows.size, -np.inf)
        reach = -radius[entry_rows]
        scanned = []
        for (start, size, first, height, base, *_), near in zip(
            geometry, (nearest[lists] - firsts).tolist()
        ):
            values = raw[base:base + size * height].reshape(size, height)
            self._scan(
                scan, entry_rows[first:first + height], start, start + size,
                out=values,
            )
            scanned.append(values)
            if near and size >= k:
                lower = _bracket(
                    values[:, :near], reach[first:first + near],
                    self._row_scales[start:start + size, None],
                )
                lower.partition(size - k, axis=0)
                nearest_floors[first:first + near] = lower[size - k]
        floor = np.empty(batch)
        nearest_slot = order % nprobe == 0
        floor[entry_rows[nearest_slot]] = nearest_floors[nearest_slot]
        poisoned = ~np.isfinite(radius)  # its lower bounds are all -inf
        floor[poisoned] = -np.inf

        which = np.repeat(np.arange(lists.size), spans * heights)
        segment, column = np.divmod(
            np.arange(int(cells[-1])) - cells[which], heights[which]
        )
        cell_rows = entry_rows[firsts[which] + column]
        cell_scales = self.scales[first_blocks[which] + segment]

        def prefilter(floor: np.ndarray) -> np.ndarray:
            thresholds = _code_floors(
                floor[cell_rows], radius[cell_rows], cell_scales, scan.dtype
            )
            hit = np.empty(raw.size, dtype=bool)
            for values, (start, size, _, height, base, _, _, cell) in zip(
                scanned, geometry
            ):
                cuts = [0, *range(quant - start % quant, size, quant), size]
                mask = hit[base:base + size * height].reshape(size, height)
                for lo, hi in zip(cuts, cuts[1:]):
                    np.greater_equal(
                        values[lo:hi], thresholds[cell:cell + height],
                        out=mask[lo:hi],
                    )
                    cell += height
            return hit

        hit = prefilter(floor)
        if np.count_nonzero(hit) > _FLOOR_HITS * k * batch:
            # The nearest lists' kth sits far below the final one (their
            # centroids say little about the top-k): raise each floor to
            # the best of every probed list's and compare again.
            list_floors = np.full(entry_rows.size, -np.inf)
            for values, (_, size, first, height, _, block, span, _) in zip(
                scanned, geometry
            ):
                if size >= k:
                    kth = np.partition(values, size - k, axis=0)[size - k]
                    list_floors[first:first + height] = _bracket(
                        kth, reach[first:first + height],
                        self.scales[block:block + span, None],
                    ).min(axis=0)
            np.maximum.at(floor, entry_rows, list_floors)
            floor[poisoned] = -np.inf
            hit = prefilter(floor)

        flat = np.flatnonzero(hit)
        owner = np.searchsorted(bases, flat, side="right") - 1
        offset, column = np.divmod(flat - bases[owner], heights[owner])
        rows = entry_rows[firsts[owner] + column]
        positions = starts[owner] + offset
        values = raw[flat]
        scales = self._row_scales[positions]
        upper = _bracket(values, radius[rows], scales)
        lower = _bracket(values, -radius[rows], scales)
        upper[~np.isfinite(upper)] = -np.inf
        lower[~np.isfinite(lower)] = -np.inf
        # The k largest lower bounds are all at least the floor.
        contend = lower >= floor[rows]
        kth = _kth_per_row(rows[contend], lower[contend], batch, k)
        keep = upper >= kth[rows]
        return rows[keep], positions[keep], int(flat.size)


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
