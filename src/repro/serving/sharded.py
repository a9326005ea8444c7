"""Sharded scatter-gather top-k over :class:`~repro.parallel.WorkerPool`.

The single-process :class:`~repro.serving.index.AlignmentIndex` scores
every target block in one process.  At serving scale the target side is
the big axis — millions of rows against a handful of query rows — and it
partitions cleanly because GAlign's embeddings are static at query time:
each shard owns a contiguous target row range and answers the same
top-k question over its slice; the parent merges the per-shard answers.

Bitwise invariance
------------------
Sharded answers are **bit-identical** to the single-process index for
every shard count, including exact ties:

* :func:`plan_shards` aligns every shard boundary to a
  ``target_block_size`` multiple, so each shard's internal blocks *are*
  a subset of the global index's blocks — same GEMM shapes over the
  same rows produce the same bits, and the index's pruned ≡ dense
  guarantee makes each shard's top-k candidates exact.
* Every element of the global top-k lies inside its own shard's top-k
  (k candidates per shard are always enough), so the gather merge —
  the same canonical ``lexsort`` key the index uses (descending score,
  ascending target id) over the pooled candidates — reproduces the
  global answer, ties and all.

Embeddings travel to shard workers exactly once, through the
:mod:`repro.parallel.shm` zero-copy channel; workers cache their
attachment and per-shard index in module state keyed by the publication
token, so steady-state queries ship only ``(sources, k)`` per task.
A swapped-in artifact gets a new token and the stale state is evicted,
releasing the old segments.  With ``workers=0`` the same task function
runs inline in the parent — the CI-deterministic reference execution.

Metrics land under ``serving.sharded.*`` (scatter latency, shard count,
per-query counters); the pool adds ``parallel.*`` (hedges, utilization).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import (
    MetricsRegistry,
    get_logger,
    get_registry,
    get_tracer,
)
from ..parallel import (
    AttachedArrays,
    SharedArrayStore,
    TaskFailure,
    WorkerPool,
    get_task_context,
    in_worker,
)
from ..parallel.shm import load_embeddings, publish_embeddings
from ..resilience import (
    AnnParameterError,
    CircuitBreaker,
    DeadlineExceededError,
    InjectedFault,
    SimulatedKill,
)
from .ann import AnnProber, weighted_queries
from .engine import QueryEngine
from .index import AlignmentIndex, _canonical_top_k, _check_sources

__all__ = ["plan_shards", "ShardedIndex", "ShardedQueryEngine"]


def plan_shards(
    n_target: int, shards: int, block_size: int
) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` target row ranges, one per shard.

    Boundaries are aligned to ``block_size`` multiples — the invariance
    keystone: a shard's internal score blocks then coincide exactly with
    the global index's blocks, so per-block GEMMs are bit-identical on
    both topologies.  ``shards`` is clamped to the block count (a shard
    must own at least one block); block counts are spread as evenly as
    the alignment allows.
    """
    if n_target < 1:
        raise ValueError(f"n_target must be >= 1, got {n_target}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    num_blocks = -(-n_target // block_size)
    shards = min(shards, num_blocks)
    plan: List[Tuple[int, int]] = []
    for shard in range(shards):
        start = (shard * num_blocks) // shards * block_size
        stop = min(((shard + 1) * num_blocks) // shards * block_size, n_target)
        if stop > start:
            plan.append((start, stop))
    return plan


# ----------------------------------------------------------------------
# Worker-side state: shm attachments and per-shard indexes are expensive
# to rebuild, so workers cache them in module state keyed by the
# publication token (forked workers each get their own copy; inline
# execution shares the parent's).  Exactly one token is kept live: when
# a new one arrives (artifact hot swap), stale attachments are closed so
# the old segments' pages can actually be released.
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, Dict] = {}
_STATE_LOCK = threading.Lock()


def _attach_state(manifest: Dict, token: str, num_layers: int) -> Dict:
    with _STATE_LOCK:
        state = _WORKER_STATE.get(token)
        if state is None:
            for stale in list(_WORKER_STATE):
                _WORKER_STATE.pop(stale)["arrays"].__exit__(None, None, None)
            arrays = AttachedArrays(manifest).__enter__()
            state = {
                "arrays": arrays,
                "source": load_embeddings(arrays, "emb.source", num_layers),
                "target": load_embeddings(arrays, "emb.target", num_layers),
                "indexes": {},
            }
            _WORKER_STATE[token] = state
        return state


def _shard_log_fields(start: int, stop: int) -> Dict[str, Any]:
    """Correlation fields for a shard task's log line.

    Request ids arrive through the pool's task-context channel (per
    scatter, not per pool), so a persistent forked worker always sees
    the ids of the batch it is scoring right now.
    """
    context = get_task_context()
    request_ids = tuple((context or {}).get("request_ids") or ())
    fields: Dict[str, Any] = {"shard": f"{start}-{stop}"}
    if request_ids:
        fields["request_ids"] = list(request_ids)
        if len(request_ids) == 1:
            fields["request_id"] = request_ids[0]
    return fields


def _fire_fault(
    fault: Optional[str], delay_s: float, start: int, stop: int
) -> None:
    """A shard task's chaos hook (see :func:`_score_shard`)."""
    if fault == "shard_delay" and delay_s > 0:
        time.sleep(delay_s)
    elif fault == "shard_kill":
        if in_worker():
            raise SimulatedKill(
                f"injected shard_kill in shard [{start}, {stop})"
            )
        raise InjectedFault(
            f"injected shard_kill (inline) in shard [{start}, {stop})"
        )


def _score_shard(
    manifest: Dict,
    token: str,
    num_layers: int,
    weights: Tuple[float, ...],
    block_size: int,
    start: int,
    stop: int,
    sources: List[int],
    k: int,
    prune: bool,
    fault: Optional[str] = None,
    delay_s: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's top-k candidates for a query batch (a pool task).

    Returns ``(targets, scores)`` with **global** target ids, shaped
    ``(batch, min(k, stop - start))`` in canonical order.  Pure: safe to
    hedge.

    ``fault``/``delay_s`` are the chaos harness's hooks (wired by
    :meth:`ShardedIndex.inject_fault`): ``"shard_kill"`` dies before
    scoring — as a :class:`~repro.resilience.SimulatedKill` crash in a
    real worker, as a catchable :class:`~repro.resilience.InjectedFault`
    inline (a ``BaseException`` escaping an inline task would take the
    scorer thread down with it) — and ``"shard_delay"`` sleeps first,
    long enough to trip the scatter's deadline timeout.
    """
    _fire_fault(fault, delay_s, start, stop)
    index = _shard_slice_index(
        manifest, token, num_layers, weights, block_size, start, stop
    )
    shard_started = time.perf_counter()
    with get_tracer().span(
        "serving.sharded.shard_score",
        shard=f"{start}-{stop}", batch=len(sources), k=k,
    ):
        targets, scores = index.top_k(
            np.asarray(sources, dtype=np.int64), k=k, prune=prune
        )
    get_logger("serving.sharded").debug(
        "serving.sharded.shard_scored",
        batch=len(sources), k=k,
        elapsed_ms=round((time.perf_counter() - shard_started) * 1e3, 3),
        **_shard_log_fields(start, stop),
    )
    return targets + start, scores


def _shard_slice_index(
    manifest: Dict,
    token: str,
    num_layers: int,
    weights: Tuple[float, ...],
    block_size: int,
    start: int,
    stop: int,
) -> AlignmentIndex:
    state = _attach_state(manifest, token, num_layers)
    key = (start, stop, block_size)
    index = state["indexes"].get(key)
    if index is None:
        index = AlignmentIndex(
            state["source"],
            [layer[start:stop] for layer in state["target"]],
            weights,
            target_block_size=block_size,
        )
        state["indexes"][key] = index
    return index


def _rescore_shard(
    manifest: Dict,
    token: str,
    num_layers: int,
    weights: Tuple[float, ...],
    block_size: int,
    start: int,
    stop: int,
    sources: List[int],
    rows: np.ndarray,
    local_ids: np.ndarray,
    fault: Optional[str] = None,
    delay_s: float = 0.0,
) -> np.ndarray:
    """One shard's exact scores for candidate pairs (a pool task).

    The ANN rescoring scatter: the parent probes/filters candidates and
    ships each shard only its ``(row, local target id)`` pairs; the
    shard answers with their exact scores via the same slice-index
    kernel the exact scatter uses.  Shard boundaries are block-aligned,
    so each local block covers exactly the rows of its global
    counterpart and the GEMM shapes (hence bits) match the
    single-process index.  Pure: safe to hedge.

    ``fault``/``delay_s`` mirror :func:`_score_shard`'s chaos hooks.
    """
    _fire_fault(fault, delay_s, start, stop)
    index = _shard_slice_index(
        manifest, token, num_layers, weights, block_size, start, stop
    )
    shard_started = time.perf_counter()
    with get_tracer().span(
        "serving.sharded.shard_rescore",
        shard=f"{start}-{stop}", batch=len(sources),
        candidates=int(rows.size),
    ):
        scores = index.gather_scores(
            np.asarray(sources, dtype=np.int64), rows, local_ids
        )
    get_logger("serving.sharded").debug(
        "serving.sharded.shard_rescored",
        batch=len(sources), candidates=int(rows.size),
        elapsed_ms=round((time.perf_counter() - shard_started) * 1e3, 3),
        **_shard_log_fields(start, stop),
    )
    return scores


class ShardedIndex:
    """Scatter-gather drop-in for :class:`AlignmentIndex`.

    Publishes both embedding sets into shared memory once, plans
    block-aligned target shards, and answers :meth:`top_k` by fanning
    the query batch out to per-shard scorer tasks on a persistent
    :class:`~repro.parallel.WorkerPool` and k-way-merging the candidates
    in the canonical order.  ``workers=0`` (or ``None`` with
    ``REPRO_WORKERS`` unset) runs the same tasks inline.

    ``hedge_after_s`` arms request hedging: a shard task still pending
    that many seconds after scatter is duplicated onto a free worker
    and the first replica wins (needs ``workers >= 2``).

    Fault tolerance (:meth:`top_k_ex`): each shard is guarded by a
    :class:`~repro.resilience.CircuitBreaker` (tuned via
    ``breaker_kwargs``).  A failing shard trips its breaker; open shards
    are skipped and the surviving shards produce an explicitly *degraded*
    answer (``meta["degraded"]``/``coverage``/``shards_down``) instead
    of an error, until the breaker's half-open probe brings the shard
    back.  The strict :meth:`top_k` keeps the all-or-nothing bitwise
    contract.

    Two distinct time budgets bound a scatter.  ``shard_timeout_s`` is
    the *server's* per-scatter hang budget: a shard exceeding it counts
    as a shard failure (pool teardown, breaker accounting) — the knob
    that eventually trips a frozen shard's breaker.  A caller's
    ``deadline_s`` is the *client's* latency budget: its expiry sheds
    the scatter with a typed
    :class:`~repro.resilience.DeadlineExceededError` and is never
    recorded against breakers or used to kill warm workers, so a client
    sending tiny deadlines cannot degrade the tier for everyone else.

    Close (or use as a context manager) to release the pool and the
    shared-memory segments.
    """

    #: Engine handshake: :meth:`top_k_ex` accepts ``request_ids`` and
    #: ships them to shard workers over the pool's task-context channel,
    #: so shard log lines carry the front door's correlation ids.
    accepts_request_ids = True

    def __init__(
        self,
        source_embeddings: Sequence[np.ndarray],
        target_embeddings: Sequence[np.ndarray],
        layer_weights: Sequence[float],
        shards: int = 2,
        target_block_size: int = 512,
        prune: bool = True,
        workers: Optional[int] = None,
        hedge_after_s: Optional[float] = None,
        shard_timeout_s: Optional[float] = None,
        breaker_kwargs: Optional[Dict[str, Any]] = None,
        ann_state: Optional[Dict[str, Any]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive, got {shard_timeout_s}"
            )
        self._n_source = int(np.asarray(source_embeddings[0]).shape[0])
        self._n_target = int(np.asarray(target_embeddings[0]).shape[0])
        self.num_layers = len(source_embeddings)
        self._weights = tuple(float(w) for w in layer_weights)
        self.block_size = int(target_block_size)
        self.prune = bool(prune)
        self.hedge_after_s = hedge_after_s
        self.shard_timeout_s = shard_timeout_s
        self.registry = registry
        self.plan = plan_shards(self._n_target, shards, self.block_size)
        # ANN tier: the probe + candidate filter runs in the parent (it
        # touches centroids and int8 codes, not the float target matrix);
        # only the float rescoring of candidate blocks scatters.  The
        # source layers are kept by reference (mmap-friendly) to build
        # the θ-weighted probe vectors.
        self._ann: Optional[AnnProber] = None
        if ann_state is not None:
            dim = sum(
                int(np.asarray(layer).shape[1])
                for layer in target_embeddings
            )
            self._ann = AnnProber(
                ann_state, n_target=self._n_target, dim=dim,
                registry=registry,
            )
            self._ann_source = [
                np.asarray(layer) for layer in source_embeddings
            ]
        self._store = SharedArrayStore(registry=registry)
        self._closed = False
        try:
            publish_embeddings(self._store, "emb.source", source_embeddings)
            publish_embeddings(self._store, "emb.target", target_embeddings)
        except Exception:
            self._store.close()
            raise
        self._manifest = self._store.manifest()
        # The first segment's kernel-assigned name is unique per publish:
        # a hot-swapped artifact gets a fresh token, which is what evicts
        # the workers' cached attachments to the old arrays.
        self._token = self._manifest["emb.source.0"]["shm"]
        self._labels = [
            f"shard[{i}]:{a}-{e}" for i, (a, e) in enumerate(self.plan)
        ]
        self._pool = WorkerPool(workers, registry=registry).start()
        # WorkerPool.map is not reentrant; concurrent query_many callers
        # (HTTP handler threads) serialize their scatters here.
        self._lock = threading.Lock()
        breaker_kwargs = dict(breaker_kwargs or {})
        breaker_kwargs.setdefault("registry", registry)
        self.breakers = [
            CircuitBreaker(name=f"shard[{i}]", **breaker_kwargs)
            for i in range(len(self.plan))
        ]
        # Chaos hooks: (shard, kind, delay_s) entries consumed (and wired
        # into the shard tasks) by the next top_k_ex scatter.
        self._injected: List[Tuple[Optional[int], str, float]] = []

    @classmethod
    def from_artifact(cls, artifact, **kwargs) -> "ShardedIndex":
        """Sharded index over an :class:`AlignmentArtifact`'s embeddings.

        A ``repro.artifact/v2`` artifact's memory-mapped ANN aux arrays
        (if present) wire up ``mode='ann'`` automatically.
        """
        if (
            kwargs.get("ann_state") is None
            and getattr(artifact, "ann", None) is not None
        ):
            state = dict(artifact.ann)
            state["params"] = dict(artifact.ann_params or {})
            kwargs["ann_state"] = state
        return cls(
            artifact.source_embeddings,
            artifact.target_embeddings,
            artifact.layer_weights,
            **kwargs,
        )

    # -- AlignmentIndex surface ----------------------------------------
    @property
    def n_source(self) -> int:
        return self._n_source

    @property
    def n_target(self) -> int:
        return self._n_target

    @property
    def num_shards(self) -> int:
        return len(self.plan)

    @property
    def supports_ann(self) -> bool:
        return self._ann is not None

    def resolve_nprobe(self, nprobe: Optional[int]) -> int:
        if self._ann is None:
            raise AnnParameterError(
                "this sharded index has no ANN tier; re-export the artifact "
                "with --ann-clusters"
            )
        return self._ann.resolve_nprobe(nprobe)

    def _ann_candidates(
        self, sources: np.ndarray, k: int, nprobe: int
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
        """Candidate ``(rows, ids)`` and, per shard owning any of them,
        the mask of the candidates its rescore task must score."""
        rows, ids = self._ann.select_candidates(
            weighted_queries(self._ann_source, self._weights, sources),
            k, nprobe,
        )
        per_shard = {}
        for shard, (start, stop) in enumerate(self.plan):
            owned = (ids >= start) & (ids < stop)
            if owned.any():
                per_shard[shard] = owned
        return rows, ids, per_shard

    def _ann_rescore_task(
        self,
        shard: int,
        source_list: List[int],
        rows: np.ndarray,
        ids: np.ndarray,
        owned: np.ndarray,
        fault: Optional[Tuple[str, float]] = None,
    ) -> Tuple:
        kind, delay_s = fault if fault is not None else (None, 0.0)
        start, stop = self.plan[shard]
        return (
            self._manifest, self._token, self.num_layers, self._weights,
            self.block_size, start, stop, source_list, rows[owned],
            ids[owned] - start, kind, delay_s,
        )

    @staticmethod
    def _ann_assemble(
        answers: List[Tuple[np.ndarray, np.ndarray]],
        rows: np.ndarray,
        ids: np.ndarray,
        k: int,
        batch: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gathered candidate scores → final per-row canonical top-k.

        ``answers`` pairs each answering shard's candidate mask with its
        scores; candidates of a shard that did not answer are never
        ranked.
        """
        scores = np.empty(ids.size)
        answered = np.zeros(ids.size, dtype=bool)
        for owned, owned_scores in answers:
            scores[owned] = owned_scores
            answered |= owned
        return _canonical_top_k(
            rows[answered], ids[answered], scores[answered], batch, k
        )

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _validate_query(
        self, sources, k: int, prune: Optional[bool]
    ) -> Tuple[np.ndarray, int, bool, List[int]]:
        if self._closed:
            raise RuntimeError("ShardedIndex is closed")
        sources = _check_sources(sources, self.n_source)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.n_target)
        prune = self.prune if prune is None else bool(prune)
        return sources, k, prune, [int(s) for s in sources]

    @staticmethod
    def _merge(
        shard_answers: List[Tuple[np.ndarray, np.ndarray]], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        all_targets = np.concatenate([t for t, _ in shard_answers], axis=1)
        all_scores = np.concatenate([s for _, s in shard_answers], axis=1)
        batch, pooled = all_targets.shape
        # A degraded merge can pool fewer than k candidates.
        k = min(k, pooled)
        # The index's canonical tie order (descending score, ascending
        # id) over the pooled candidates: the merge that makes the
        # answer shard-count-invariant.
        return _canonical_top_k(
            np.repeat(np.arange(batch), pooled), all_targets.ravel(),
            all_scores.ravel(), batch, k,
        )

    def _shard_task(
        self,
        start: int,
        stop: int,
        source_list: List[int],
        k: int,
        prune: bool,
        fault: Optional[Tuple[str, float]] = None,
    ) -> Tuple:
        kind, delay_s = fault if fault is not None else (None, 0.0)
        return (
            self._manifest, self._token, self.num_layers, self._weights,
            self.block_size, start, stop, source_list, k, prune,
            kind, delay_s,
        )

    def top_k(
        self,
        sources,
        k: int = 1,
        prune: Optional[bool] = None,
        mode: str = "exact",
        nprobe: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact or approximate batched top-k, per ``mode``.

        ``mode='exact'`` (the default) is bit-identical to the unsharded
        index.  ``mode='ann'`` probes/filters candidates in the parent
        and scatters only the float rescoring of the touched blocks;
        with ``nprobe == n_clusters`` it is bit-identical to exact.

        All-or-nothing: every scattered shard must answer (crashes
        exhaust the pool's retry budget and then raise).  The
        fault-tolerant variant is :meth:`top_k_ex`.
        """
        if mode == "ann":
            return self._ann_top_k(sources, k, prune, nprobe)
        if mode != "exact":
            raise AnnParameterError(
                f"mode must be 'exact' or 'ann', got {mode!r}"
            )
        if nprobe is not None:
            raise AnnParameterError(
                "nprobe only applies to mode='ann' "
                f"(got nprobe={nprobe!r} with mode='exact')"
            )
        registry = self._registry()
        sources, k, prune, source_list = self._validate_query(
            sources, k, prune
        )
        tasks = [
            self._shard_task(start, stop, source_list, k, prune)
            for start, stop in self.plan
        ]
        with self._lock:
            with get_tracer().span(
                "serving.sharded.scatter",
                shards=len(tasks), batch=int(sources.size), k=k,
            ):
                shard_answers = self._pool.map(
                    _score_shard, tasks, labels=self._labels,
                    hedge_after_s=self.hedge_after_s,
                )
        out_targets, out_scores = self._merge(shard_answers, k)
        registry.increment("serving.sharded.queries", int(sources.size))
        registry.increment("serving.sharded.scatters")
        registry.observe("serving.sharded.shards", self.num_shards)
        return out_targets, out_scores

    def _ann_top_k(
        self,
        sources,
        k: int,
        prune: Optional[bool],
        nprobe: Optional[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Strict ANN scatter: probe in the parent, rescore on shards."""
        nprobe = self.resolve_nprobe(nprobe)
        registry = self._registry()
        sources, k, _, source_list = self._validate_query(sources, k, prune)
        rows, ids, per_shard = self._ann_candidates(sources, k, nprobe)
        involved = sorted(per_shard)
        tasks = [
            self._ann_rescore_task(
                shard, source_list, rows, ids, per_shard[shard]
            )
            for shard in involved
        ]
        with self._lock:
            with get_tracer().span(
                "serving.sharded.ann_scatter",
                shards=len(tasks), batch=int(sources.size), k=k,
                nprobe=nprobe,
            ):
                answers = self._pool.map(
                    _rescore_shard, tasks,
                    labels=[self._labels[shard] for shard in involved],
                    hedge_after_s=self.hedge_after_s,
                )
        registry.increment("serving.sharded.queries", int(sources.size))
        registry.increment("serving.sharded.scatters")
        registry.observe("serving.sharded.shards", self.num_shards)
        registry.observe("serving.sharded.ann_shards_involved", len(involved))
        return self._ann_assemble(
            [(per_shard[shard], scores)
             for shard, scores in zip(involved, answers)],
            rows, ids, k, int(sources.size),
        )

    def top_k_ex(
        self,
        sources,
        k: int = 1,
        prune: Optional[bool] = None,
        deadline_s: Optional[float] = None,
        mode: str = "exact",
        nprobe: Optional[int] = None,
        request_ids: Sequence[str] = (),
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Fault-tolerant batched top-k: ``(targets, scores, meta)``.

        ``mode='ann'`` runs the probe/candidate filter in the parent and
        scatters only the rescoring of the touched blocks to the shards
        that own them; a down shard's candidates are dropped from the
        pool (its row range is explicitly uncovered in ``meta``).

        Differences from the strict :meth:`top_k`:

        * each shard is gated by its circuit breaker — open shards are
          skipped without being scattered to;
        * a shard failure (crash, ``shard_timeout_s`` expiry, injected
          fault) is recorded against its breaker and the answer is
          assembled from the surviving shards, with ``meta`` reporting
          ``degraded=True``, the surviving ``coverage`` fraction of
          target rows, and the ``shards_down`` ids — never a silently
          partial answer;
        * ``deadline_s`` (absolute monotonic) bounds the scatter:
          expiry — on arrival or mid-scatter — sheds the remaining work
          with :class:`~repro.resilience.DeadlineExceededError` (HTTP
          504).  A deadline expiry is the caller's budget, not a shard
          fault: it is never recorded against a breaker and never tears
          down the warm worker pool, and the pool gets only the
          remaining budget per crash-retry round, so end-to-end latency
          stays within the deadline plus one scheduling quantum.

        Raises ``RuntimeError`` (HTTP 503) only when *no* shard can
        answer.  When every shard is healthy the result is bit-identical
        to :meth:`top_k`.

        ``request_ids`` (one per caller in the batch) ride to the shard
        workers through the pool's task-context channel purely for log
        correlation — they never influence scoring.
        """
        if mode == "ann":
            return self._ann_top_k_ex(
                sources, k, prune, nprobe, deadline_s, request_ids
            )
        if mode != "exact":
            raise AnnParameterError(
                f"mode must be 'exact' or 'ann', got {mode!r}"
            )
        if nprobe is not None:
            raise AnnParameterError(
                "nprobe only applies to mode='ann' "
                f"(got nprobe={nprobe!r} with mode='exact')"
            )
        registry = self._registry()
        sources, k, prune, source_list = self._validate_query(
            sources, k, prune
        )
        if deadline_s is not None:
            remaining = deadline_s - time.monotonic()
            if remaining <= 0:
                registry.increment("serving.deadline_shed")
                raise DeadlineExceededError(
                    "scatter deadline expired before fan-out",
                    deadline_s=deadline_s,
                )

        with self._lock:
            injected, self._injected = self._injected, []
            faults: Dict[int, Tuple[str, float]] = {}
            for shard, kind, delay_s in injected:
                shard = 0 if shard is None else int(shard)
                faults[shard] = (kind, delay_s)

            allowed: List[int] = []
            rejected: List[int] = []
            for shard in range(self.num_shards):
                (allowed if self.breakers[shard].allow()
                 else rejected).append(shard)
            if not allowed:
                raise RuntimeError(
                    f"all {self.num_shards} shard(s) unavailable "
                    "(circuit breakers open)"
                )
            tasks = [
                self._shard_task(
                    *self.plan[shard], source_list, k, prune,
                    fault=faults.get(shard),
                )
                for shard in allowed
            ]
            timeout_kwargs: Dict[str, Any] = {}
            if self.shard_timeout_s is not None:
                timeout_kwargs["timeout_s"] = self.shard_timeout_s
            if deadline_s is not None:
                timeout_kwargs["deadline_s"] = deadline_s
            with get_tracer().span(
                "serving.sharded.scatter",
                shards=len(tasks), batch=int(sources.size), k=k,
            ):
                answers = self._pool.map(
                    _score_shard, tasks,
                    labels=[self._labels[shard] for shard in allowed],
                    hedge_after_s=self.hedge_after_s,
                    return_exceptions=True,
                    crash_policy="return",
                    context={"request_ids": tuple(request_ids)},
                    **timeout_kwargs,
                )

        shard_answers: List[Tuple[np.ndarray, np.ndarray]] = []
        failed: List[int] = []
        shed = 0
        for shard, answer in zip(allowed, answers):
            if isinstance(answer, TaskFailure):
                if isinstance(answer.error, DeadlineExceededError):
                    # The caller's budget ran out, not the shard: never
                    # held against the breaker (a client with a tiny
                    # deadline must not be able to open every breaker).
                    shed += 1
                    continue
                failed.append(shard)
                self.breakers[shard].record_failure(answer.error)
                registry.emit(
                    "serving.sharded.shard_failure",
                    {"shard": shard, "error": str(answer.error)},
                )
            else:
                self.breakers[shard].record_success()
                shard_answers.append(answer)
        if shed:
            registry.increment("serving.deadline_shed", shed)
            raise DeadlineExceededError(
                f"scatter deadline expired with {shed} of {len(allowed)} "
                "shard(s) unscored",
                deadline_s=deadline_s,
            )
        if not shard_answers:
            raise RuntimeError(
                f"all {len(allowed)} scattered shard(s) failed "
                f"(shards {failed})"
            )

        down = sorted(rejected + failed)
        covered = sum(
            self.plan[shard][1] - self.plan[shard][0]
            for shard in range(self.num_shards)
            if shard not in down
        )
        meta = {
            "degraded": bool(down),
            "coverage": covered / self.n_target,
            "shards_down": tuple(down),
        }
        if down:
            registry.increment("serving.sharded.degraded_scatters")
        out_targets, out_scores = self._merge(shard_answers, k)
        registry.increment("serving.sharded.queries", int(sources.size))
        registry.increment("serving.sharded.scatters")
        registry.observe("serving.sharded.shards", self.num_shards)
        return out_targets, out_scores, meta

    def _ann_top_k_ex(
        self,
        sources,
        k: int,
        prune: Optional[bool],
        nprobe: Optional[int],
        deadline_s: Optional[float],
        request_ids: Sequence[str] = (),
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Fault-tolerant ANN scatter (the ``mode='ann'`` ex path)."""
        nprobe = self.resolve_nprobe(nprobe)
        registry = self._registry()
        sources, k, _, source_list = self._validate_query(sources, k, prune)
        if deadline_s is not None:
            remaining = deadline_s - time.monotonic()
            if remaining <= 0:
                registry.increment("serving.deadline_shed")
                raise DeadlineExceededError(
                    "scatter deadline expired before fan-out",
                    deadline_s=deadline_s,
                )
        rows, ids, per_shard = self._ann_candidates(sources, k, nprobe)
        involved = sorted(per_shard)

        with self._lock:
            injected, self._injected = self._injected, []
            faults: Dict[int, Tuple[str, float]] = {}
            for shard, kind, delay_s in injected:
                shard = 0 if shard is None else int(shard)
                faults[shard] = (kind, delay_s)

            allowed: List[int] = []
            rejected: List[int] = []
            for shard in involved:
                (allowed if self.breakers[shard].allow()
                 else rejected).append(shard)
            if not allowed:
                raise RuntimeError(
                    f"all {len(involved)} involved shard(s) unavailable "
                    "(circuit breakers open)"
                )
            tasks = [
                self._ann_rescore_task(
                    shard, source_list, rows, ids, per_shard[shard],
                    fault=faults.get(shard),
                )
                for shard in allowed
            ]
            timeout_kwargs: Dict[str, Any] = {}
            if self.shard_timeout_s is not None:
                timeout_kwargs["timeout_s"] = self.shard_timeout_s
            if deadline_s is not None:
                timeout_kwargs["deadline_s"] = deadline_s
            with get_tracer().span(
                "serving.sharded.ann_scatter",
                shards=len(tasks), batch=int(sources.size), k=k,
                nprobe=nprobe,
            ):
                answers = self._pool.map(
                    _rescore_shard, tasks,
                    labels=[self._labels[shard] for shard in allowed],
                    hedge_after_s=self.hedge_after_s,
                    return_exceptions=True,
                    crash_policy="return",
                    context={"request_ids": tuple(request_ids)},
                    **timeout_kwargs,
                )

        shard_answers: List[Tuple[np.ndarray, np.ndarray]] = []
        failed: List[int] = []
        shed = 0
        for shard, answer in zip(allowed, answers):
            if isinstance(answer, TaskFailure):
                if isinstance(answer.error, DeadlineExceededError):
                    shed += 1
                    continue
                failed.append(shard)
                self.breakers[shard].record_failure(answer.error)
                registry.emit(
                    "serving.sharded.shard_failure",
                    {"shard": shard, "error": str(answer.error)},
                )
            else:
                self.breakers[shard].record_success()
                shard_answers.append((per_shard[shard], answer))
        if shed:
            registry.increment("serving.deadline_shed", shed)
            raise DeadlineExceededError(
                f"scatter deadline expired with {shed} of {len(allowed)} "
                "shard(s) unscored",
                deadline_s=deadline_s,
            )
        if not shard_answers:
            raise RuntimeError(
                f"all {len(allowed)} scattered shard(s) failed "
                f"(shards {failed})"
            )

        down = sorted(rejected + failed)
        if down:
            # Candidates owned by a down shard were never rescored: the
            # gather ranks only the answering shards' candidates, and
            # meta reports the uncovered row ranges.
            registry.increment("serving.sharded.degraded_scatters")
        covered = sum(
            self.plan[shard][1] - self.plan[shard][0]
            for shard in range(self.num_shards)
            if shard not in down
        )
        meta = {
            "degraded": bool(down),
            "coverage": covered / self.n_target,
            "shards_down": tuple(down),
        }
        out_targets, out_scores = self._ann_assemble(
            shard_answers, rows, ids, k, int(sources.size)
        )
        registry.increment("serving.sharded.queries", int(sources.size))
        registry.increment("serving.sharded.scatters")
        registry.observe("serving.sharded.shards", self.num_shards)
        registry.observe("serving.sharded.ann_shards_involved", len(involved))
        return out_targets, out_scores, meta

    # -- chaos hooks ----------------------------------------------------
    def inject_fault(
        self,
        kind: str,
        shard: Optional[int] = None,
        delay_s: float = 0.0,
    ) -> None:
        """Arm a serving fault for the next :meth:`top_k_ex` scatter.

        ``kind`` is ``"shard_kill"`` or ``"shard_delay"``; ``shard``
        picks the victim (default 0); ``delay_s`` sizes a delay.  The
        fault rides into the shard task's trailing arguments and fires
        inside the scorer, exercising the real crash/timeout paths.
        """
        if kind not in ("shard_kill", "shard_delay"):
            raise ValueError(
                f"kind must be 'shard_kill' or 'shard_delay', got {kind!r}"
            )
        if shard is not None and not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        with self._lock:
            self._injected.append((shard, kind, float(delay_s)))

    def health(self) -> Dict[str, Any]:
        """Per-shard breaker snapshot plus the degraded-coverage summary."""
        shards = [breaker.snapshot() for breaker in self.breakers]
        down = [
            index for index, snap in enumerate(shards)
            if snap["state"] != "closed"
        ]
        covered = sum(
            stop - start
            for index, (start, stop) in enumerate(self.plan)
            if index not in down
        )
        return {
            "healthy": len(down) < self.num_shards,
            "degraded": bool(down),
            "coverage": covered / self.n_target,
            "shards_down": down,
            "shards": shards,
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release the pool and unlink the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        self._store.close()
        # Inline execution cached attachments to our own (now unlinked)
        # segments in this process; drop them so the views die with us.
        with _STATE_LOCK:
            state = _WORKER_STATE.pop(self._token, None)
        if state is not None:
            state["arrays"].__exit__(None, None, None)

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedQueryEngine(QueryEngine):
    """A :class:`QueryEngine` whose index is a :class:`ShardedIndex`.

    Identical query semantics (microbatching, striped LRU, ``aligned``
    surfacing) — the engine only sees ``index.top_k`` — plus ownership:
    closing the engine closes the sharded index underneath it.
    """

    @classmethod
    def from_artifact(
        cls,
        artifact,
        shards: int = 2,
        workers: Optional[int] = None,
        hedge_after_s: Optional[float] = None,
        **kwargs,
    ) -> "ShardedQueryEngine":
        index_kwargs = {
            key: kwargs.pop(key)
            for key in (
                "target_block_size", "prune", "breaker_kwargs",
                "shard_timeout_s",
            )
            if key in kwargs
        }
        index = ShardedIndex.from_artifact(
            artifact,
            shards=shards,
            workers=workers,
            hedge_after_s=hedge_after_s,
            registry=kwargs.get("registry"),
            **index_kwargs,
        )
        kwargs.setdefault("fingerprint", artifact.fingerprint)
        kwargs.setdefault("verifier", getattr(artifact, "verifier", None))
        return cls(index, **kwargs)

    def close(self) -> None:
        super().close()
        close = getattr(self.index, "close", None)
        if close is not None:
            close()
