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

* Every score is its pair's canonical
  :func:`~repro.core.scoring.pair_scores` value, which no block or
  shard shape changes.
* Every element of the global top-k lies inside its own shard's top-k,
  so the gather merge — the index's canonical ``lexsort`` key over the
  pooled candidates — reproduces the global answer, ties and all.

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
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.scoring import canonical_top_k
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
from .ann import AnnProber, _artifact_ann_state, weighted_queries
from .index import AlignmentIndex, _check_sources

__all__ = ["plan_shards", "ShardedIndex"]

#: Flat ``(rows, ids, scores)`` candidates: what every shard task returns.
_Candidates = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Typed empty arrays the gather starts from, so a scatter that reached
#: no shard (an ANN batch without candidates) pools to padding.
_NO_CANDIDATES: _Candidates = (
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0),
)


def plan_shards(n_target: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` target row ranges, one per shard.

    ``[0, n_target)`` is split into ``min(shards, n_target)`` ranges
    whose sizes differ by at most one row.  A shard's answers are
    canonical at any row range, so no boundary needs aligning.
    """
    if n_target < 1:
        raise ValueError(f"n_target must be >= 1, got {n_target}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n_target)
    bounds = [shard * n_target // shards for shard in range(shards + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


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


class _Shard(NamedTuple):
    """What a shard task needs besides its batch: where the published
    embeddings live, the row range it owns, and its armed chaos fault."""

    manifest: Dict
    token: str
    num_layers: int
    weights: Tuple[float, ...]
    block_size: int
    start: int
    stop: int
    fault: Optional[str] = None
    delay_s: float = 0.0


def _open_shard(shard: _Shard) -> AlignmentIndex:
    """Fire the shard's armed fault, then return its cached slice index.

    ``"shard_kill"`` dies before scoring — as a
    :class:`~repro.resilience.SimulatedKill` crash in a real worker, as a
    catchable :class:`~repro.resilience.InjectedFault` inline (a
    ``BaseException`` escaping an inline task would take the scorer
    thread down with it) — and ``"shard_delay"`` sleeps first, long
    enough to trip the scatter's timeout.
    """
    if shard.fault == "shard_delay" and shard.delay_s > 0:
        time.sleep(shard.delay_s)
    elif shard.fault == "shard_kill":
        where = f"shard [{shard.start}, {shard.stop})"
        if in_worker():
            raise SimulatedKill(f"injected shard_kill in {where}")
        raise InjectedFault(f"injected shard_kill (inline) in {where}")
    state = _attach_state(shard.manifest, shard.token, shard.num_layers)
    key = (shard.start, shard.stop, shard.block_size)
    index = state["indexes"].get(key)
    if index is None:
        index = AlignmentIndex(
            state["source"],
            [layer[shard.start:shard.stop] for layer in state["target"]],
            shard.weights,
            target_block_size=shard.block_size,
        )
        state["indexes"][key] = index
    return index


@contextmanager
def _shard_work(name: str, shard: _Shard, **fields: Any) -> Iterator[None]:
    """A ``serving.sharded.<name>`` span around one shard's work, then
    its DEBUG ``serving.sharded.<name>d`` line.

    Request ids arrive through the pool's task-context channel (per
    scatter, not per pool), so a persistent forked worker always logs
    the ids of the batch it is scoring right now.
    """
    where = f"{shard.start}-{shard.stop}"
    started = time.perf_counter()
    with get_tracer().span(f"serving.sharded.{name}", shard=where, **fields):
        yield
    request_ids = tuple((get_task_context() or {}).get("request_ids") or ())
    if request_ids:
        fields["request_ids"] = list(request_ids)
        if len(request_ids) == 1:
            fields["request_id"] = request_ids[0]
    get_logger("serving.sharded").debug(
        f"serving.sharded.{name}d", shard=where,
        elapsed_ms=round((time.perf_counter() - started) * 1e3, 3),
        **fields,
    )


def _score_shard(shard: _Shard, sources: List[int], k: int) -> _Candidates:
    """One shard's exact top-k for a query batch (a pool task).

    Returns flat ``(rows, ids, scores)`` candidates with **global**
    target ids.  Pure: safe to hedge.
    """
    index = _open_shard(shard)
    with _shard_work("shard_score", shard, batch=len(sources), k=k):
        targets, scores = index.top_k(
            np.asarray(sources, dtype=np.int64), k=k
        )
    batch, width = targets.shape
    return (
        np.repeat(np.arange(batch), width),
        (targets + shard.start).ravel(),
        scores.ravel(),
    )


def _rescore_shard(
    shard: _Shard, sources: List[int], rows: np.ndarray, ids: np.ndarray
) -> _Candidates:
    """Canonical scores of one shard's ANN candidate pairs (a pool task).

    ``ids`` are local to the shard.  :func:`~repro.core.scoring.pair_scores`
    reads each pair's two rows alone, so any shard layout gives the
    single-process bits.  Returns **global** ids.  Pure: safe to hedge.
    """
    index = _open_shard(shard)
    with _shard_work(
        "shard_rescore", shard, batch=len(sources), candidates=int(rows.size)
    ):
        scores = index.pair_scores(
            np.asarray(sources, dtype=np.int64)[rows], ids
        )
    return rows, ids + shard.start, scores


class ShardedIndex:
    """Scatter-gather drop-in for :class:`AlignmentIndex`.

    Publishes both embedding sets into shared memory once, splits the
    targets into even contiguous shards, and answers a query by fanning the
    batch out to per-shard tasks on a persistent
    :class:`~repro.parallel.WorkerPool` and merging the pooled
    candidates in the canonical order.  ``workers=0`` (or ``None`` with
    ``REPRO_WORKERS`` unset) runs the same tasks inline.

    ``hedge_after_s`` arms request hedging: a shard task still pending
    that many seconds after scatter is duplicated onto a free worker
    and the first replica wins (needs ``workers >= 2``).

    Fault tolerance: each shard is guarded by a
    :class:`~repro.resilience.CircuitBreaker` (tuned via
    ``breaker_kwargs``).  A failing shard trips its breaker; open shards
    are skipped and :meth:`top_k_ex` answers from the surviving shards,
    explicitly *degraded* (``meta["degraded"]``/``coverage``/
    ``shards_down``), until the breaker's half-open probe brings the
    shard back.  The strict :meth:`top_k` raises instead of degrading.

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

    def __init__(
        self,
        source_embeddings: Sequence[np.ndarray],
        target_embeddings: Sequence[np.ndarray],
        layer_weights: Sequence[float],
        shards: int = 2,
        target_block_size: int = 512,
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
        self.hedge_after_s = hedge_after_s
        self.shard_timeout_s = shard_timeout_s
        self.registry = registry
        self.plan = plan_shards(self._n_target, shards)
        # ANN tier: the probe + candidate filter runs in the parent (it
        # touches centroids and int8 codes, not the float target matrix);
        # only the float rescoring of candidate pairs scatters.  The
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
        # into the shard tasks) by the next scatter.
        self._injected: List[Tuple[Optional[int], str, float]] = []

    @classmethod
    def from_artifact(cls, artifact, **kwargs) -> "ShardedIndex":
        """Sharded index over an :class:`AlignmentArtifact`'s embeddings.

        A ``repro.artifact/v2`` artifact's memory-mapped ANN aux arrays
        (if present) wire up ``mode='ann'`` automatically.
        """
        if kwargs.get("ann_state") is None:
            kwargs["ann_state"] = _artifact_ann_state(artifact)
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

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _coverage(self, down: Sequence[int]) -> float:
        """Fraction of target rows owned by shards not in ``down``."""
        covered = sum(
            stop - start
            for shard, (start, stop) in enumerate(self.plan)
            if shard not in down
        )
        return covered / self.n_target

    def top_k(
        self,
        sources,
        k: int = 1,
        mode: str = "exact",
        nprobe: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`top_k_ex` without degradation: the full answer or an error.

        Bit-identical to the unsharded index (``mode='ann'`` to
        :class:`~repro.serving.ann.AnnIndex`).  Where :meth:`top_k_ex`
        would return a degraded answer, this raises ``RuntimeError``
        (HTTP 503) naming the shards that did not answer.
        """
        targets, scores, meta = self.top_k_ex(
            sources, k, mode=mode, nprobe=nprobe
        )
        if meta["degraded"]:
            raise RuntimeError(
                f"shard(s) {list(meta['shards_down'])} unavailable; refusing "
                f"a degraded answer covering {meta['coverage']:.1%} of "
                "targets"
            )
        return targets, scores

    def top_k_ex(
        self,
        sources,
        k: int = 1,
        deadline_s: Optional[float] = None,
        mode: str = "exact",
        nprobe: Optional[int] = None,
        request_ids: Sequence[str] = (),
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Fault-tolerant batched top-k: ``(targets, scores, meta)``.

        ``mode='exact'`` scatters the batch to every shard and merges
        their top-k.  ``mode='ann'`` probes and filters candidates in the
        parent and scatters to each shard holding candidates only their
        ``(row, local id)`` pairs for rescoring; with
        ``nprobe == n_clusters`` it is bit-identical to exact.  Rows
        with fewer than ``k`` candidates right-pad with ``(-1, -inf)``.

        * Each shard is gated by its circuit breaker — open shards are
          skipped without being scattered to.
        * A shard failure (crash, ``shard_timeout_s`` expiry, injected
          fault) is recorded against its breaker and the answer is
          assembled from the surviving shards, with ``meta`` reporting
          ``degraded=True``, the surviving ``coverage`` fraction of
          target rows, and the ``shards_down`` ids — never a silently
          partial answer.  An ANN scatter consults only the shards that
          hold candidates.
        * ``deadline_s`` (absolute monotonic) bounds the scatter:
          expiry — on arrival or mid-scatter — sheds the remaining work
          with :class:`~repro.resilience.DeadlineExceededError` (HTTP
          504).  A deadline expiry is the caller's budget, not a shard
          fault: it is never recorded against a breaker and never tears
          down the warm worker pool, and the pool gets only the
          remaining budget per crash-retry round, so end-to-end latency
          stays within the deadline plus one scheduling quantum.

        Raises ``RuntimeError`` (HTTP 503) only when shards were asked
        and none answered.

        ``request_ids`` (one per caller in the batch) ride to the shard
        workers through the pool's task-context channel purely for log
        correlation — they never influence scoring.
        """
        if mode not in ("exact", "ann"):
            raise AnnParameterError(
                f"mode must be 'exact' or 'ann', got {mode!r}"
            )
        if mode == "ann":
            nprobe = self.resolve_nprobe(nprobe)
        elif nprobe is not None:
            raise AnnParameterError(
                "nprobe only applies to mode='ann' "
                f"(got nprobe={nprobe!r} with mode='exact')"
            )
        if self._closed:
            raise RuntimeError("ShardedIndex is closed")
        registry = self._registry()
        sources = _check_sources(sources, self.n_source)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.n_target)
        source_list = [int(s) for s in sources]
        if deadline_s is not None and time.monotonic() >= deadline_s:
            registry.increment("serving.deadline_shed")
            raise DeadlineExceededError(
                "scatter deadline expired before fan-out",
                deadline_s=deadline_s,
            )

        span: Dict[str, Any] = {"batch": int(sources.size), "k": k}
        if mode == "exact":
            task: Callable[..., _Candidates] = _score_shard
            shard_args = {
                shard: (source_list, k)
                for shard in range(self.num_shards)
            }
        else:
            task = _rescore_shard
            span["nprobe"] = nprobe
            rows, ids = self._ann.select_candidates(
                weighted_queries(self._ann_source, self._weights, sources),
                k, nprobe,
            )
            shard_args = {}
            for shard, (start, stop) in enumerate(self.plan):
                owned = (ids >= start) & (ids < stop)
                if owned.any():
                    shard_args[shard] = (
                        source_list, rows[owned], ids[owned] - start,
                    )
        answers, meta = self._scatter(
            task, shard_args, deadline_s, request_ids, mode=mode, **span
        )
        rows, ids, scores = (
            np.concatenate(part) for part in zip(_NO_CANDIDATES, *answers)
        )
        registry.increment("serving.sharded.queries", int(sources.size))
        registry.increment("serving.sharded.scatters")
        registry.observe("serving.sharded.shards", self.num_shards)
        if mode == "ann":
            registry.observe(
                "serving.sharded.ann_shards_involved", len(shard_args)
            )
        targets, scores = canonical_top_k(
            rows, ids, scores, int(sources.size), k
        )
        return targets, scores, meta

    def _scatter(
        self,
        task: Callable[..., _Candidates],
        shard_args: Dict[int, Tuple],
        deadline_s: Optional[float],
        request_ids: Sequence[str],
        **span: Any,
    ) -> Tuple[List[_Candidates], Dict[str, Any]]:
        """Run ``task(shard, *args)`` for each shard in ``shard_args``.

        Returns the answering shards' candidates and the coverage
        ``meta``.  Breakers gate the fan-out, faults armed by
        :meth:`inject_fault` ride into the tasks, and each task's
        outcome is one of three: shed by the caller's deadline (the
        scatter raises ``DeadlineExceededError``, no breaker touched),
        failed (recorded against the breaker, the shard is down), or
        answered (recorded as a success).
        """
        registry = self._registry()
        with self._lock:
            faults = {
                0 if shard is None else int(shard): (kind, delay_s)
                for shard, kind, delay_s in self._injected
            }
            self._injected = []
            allowed: List[int] = []
            rejected: List[int] = []
            for shard in shard_args:
                (allowed if self.breakers[shard].allow()
                 else rejected).append(shard)
            if rejected and not allowed:
                raise RuntimeError(
                    f"all {len(rejected)} shard(s) unavailable "
                    "(circuit breakers open)"
                )
            tasks = [
                (
                    _Shard(
                        self._manifest, self._token, self.num_layers,
                        self._weights, self.block_size, *self.plan[shard],
                        *faults.get(shard, (None, 0.0)),
                    ),
                    *shard_args[shard],
                )
                for shard in allowed
            ]
            budgets: Dict[str, Any] = {}
            if self.shard_timeout_s is not None:
                budgets["timeout_s"] = self.shard_timeout_s
            if deadline_s is not None:
                budgets["deadline_s"] = deadline_s
            with get_tracer().span(
                "serving.sharded.scatter", shards=len(tasks), **span
            ):
                results = self._pool.map(
                    task, tasks,
                    labels=[self._labels[shard] for shard in allowed],
                    hedge_after_s=self.hedge_after_s,
                    return_exceptions=True,
                    crash_policy="return",
                    context={"request_ids": tuple(request_ids)},
                    **budgets,
                )

        answers: List[_Candidates] = []
        failed: List[int] = []
        shed = 0
        for shard, result in zip(allowed, results):
            if not isinstance(result, TaskFailure):
                self.breakers[shard].record_success()
                answers.append(result)
            elif isinstance(result.error, DeadlineExceededError):
                # The caller's budget ran out, not the shard: never held
                # against the breaker (a client with a tiny deadline must
                # not be able to open every breaker).
                shed += 1
            else:
                failed.append(shard)
                self.breakers[shard].record_failure(result.error)
                registry.emit(
                    "serving.sharded.shard_failure",
                    {"shard": shard, "error": str(result.error)},
                )
        if shed:
            registry.increment("serving.deadline_shed", shed)
            raise DeadlineExceededError(
                f"scatter deadline expired with {shed} of {len(allowed)} "
                "shard(s) unscored",
                deadline_s=deadline_s,
            )
        if failed and not answers:
            raise RuntimeError(
                f"all {len(allowed)} scattered shard(s) failed "
                f"(shards {failed})"
            )
        down = sorted(rejected + failed)
        if down:
            registry.increment("serving.sharded.degraded_scatters")
        return answers, {
            "degraded": bool(down),
            "coverage": self._coverage(down),
            "shards_down": tuple(down),
        }

    # -- chaos hooks ----------------------------------------------------
    def inject_fault(
        self,
        kind: str,
        shard: Optional[int] = None,
        delay_s: float = 0.0,
    ) -> None:
        """Arm a serving fault for the next scatter.

        ``kind`` is ``"shard_kill"`` or ``"shard_delay"``; ``shard``
        picks the victim (default 0); ``delay_s`` sizes a delay.  The
        fault rides into the shard task's arguments and fires inside
        the scorer, exercising the real crash/timeout paths.
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
        return {
            "healthy": len(down) < self.num_shards,
            "degraded": bool(down),
            "coverage": self._coverage(down),
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
