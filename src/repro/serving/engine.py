"""Microbatched query engine with a lock-striped LRU result cache.

The serving hot loop: callers (HTTP handler threads, in-process clients)
submit ``(source, k)`` queries; a single scorer thread coalesces up to
``batch_size`` pending queries — or whatever arrived within
``max_delay_ms`` — and answers them with **one** batched
:meth:`~repro.serving.index.AlignmentIndex.top_k` call.  Batching costs
the first query at most ``max_delay_ms`` of latency and buys every
concurrent query the GEMM efficiency of a multi-row matmul.

Batched answers are exact: the index's canonical ordering (descending
score, ascending target id) makes every top-k a prefix of the batch's
top-``max(k)``, and its per-block scoring kernel is batch-size
invariant, so an answer never depends on which queries it shared a batch
with.

Results are cached in a bounded LRU keyed by
``(artifact fingerprint, source, k)``.  The cache is **lock-striped**:
keys hash to one of ``cache_stripes`` independently-locked LRU segments,
so concurrent readers on different stripes never contend on a single
global lock.

Rows whose every score was sanitized to ``-inf`` (broken embeddings —
see :func:`~repro.core.scoring.score_block`) are surfaced as
``aligned=False`` with the non-finite entries dropped, never as a bogus
"best" target.

Everything is observable under ``serving.*`` in the metrics registry:
query counters, latency and batch-size histograms, cache
hits/misses/evictions, and unaligned-row counts.  A batch of answers is
looked up, cached, counted and finished once, not once per answer (one
:meth:`StripedLRUCache.get_many`, one counter bump and one
``observe(latency, count=n)`` per metric); a lone query is the
one-answer case of the same path.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import compress
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import (
    MetricsRegistry,
    SlowQueryLog,
    current_request_id,
    get_registry,
    get_tracer,
    mint_request_id,
)
from ..resilience import AnnParameterError, DeadlineExceededError
from .ann import AnnIndex
from .index import AlignmentIndex
from .sharded import ShardedIndex

__all__ = ["QueryResult", "StripedLRUCache", "QueryEngine"]

#: ``(degraded, coverage, shards_down)`` of a fully-healthy answer
#: (indexes without ``top_k_ex``).
_HEALTHY = (False, 1.0, ())


def _require_int(value: Any, name: str) -> int:
    """``value`` as an ``int`` if it is a Python or NumPy integer.

    ``bool``, floats and numeric strings raise ``ValueError`` naming the
    value instead of being coerced: ``int(2.7)`` would answer 2 and
    ``int(True)`` source 1.  The HTTP tier checks its JSON fields with
    this too (a ``ValueError`` answers 400).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"{name} must be an integer, got {value!r} "
            f"({type(value).__name__})"
        )
    return int(value)


def _degraded(value: Tuple) -> bool:
    """Whether a ``(targets, scores, aligned, status)`` answer value is
    degraded (such answers are never cached)."""
    return value[3][0]


def _ms_or_none(seconds: Optional[float]) -> Optional[float]:
    """Seconds → milliseconds, passing through the empty-histogram None."""
    return None if seconds is None else seconds * 1e3


@dataclass(frozen=True, slots=True)
class QueryResult:
    """One answered alignment query.

    ``targets``/``scores`` hold at most ``k`` entries in canonical order;
    entries whose score was sanitized to ``-inf`` are dropped, and
    ``aligned`` is ``False`` when nothing finite remained.

    ``degraded``/``coverage`` carry the degraded-answer contract: when a
    shard was unavailable the answer covers only ``coverage`` of the
    target rows (``shards_down`` names the missing shards) and is
    explicitly marked — never silently partial.

    Slotted, with no per-instance ``__dict__``: callers such as
    ``query_many`` hold thousands of answers at once.
    """

    source: int
    k: int
    targets: Tuple[int, ...]
    scores: Tuple[float, ...]
    aligned: bool
    cached: bool
    latency_s: float
    degraded: bool = False
    coverage: float = 1.0
    shards_down: Tuple[int, ...] = ()
    request_id: str = ""

    def payload(self) -> Dict[str, Any]:
        """JSON-ready dict (the HTTP response body for this query)."""
        return {
            "source": self.source,
            "k": self.k,
            "targets": list(self.targets),
            "scores": list(self.scores),
            "aligned": self.aligned,
            "cached": self.cached,
            "latency_ms": self.latency_s * 1e3,
            "degraded": self.degraded,
            "coverage": self.coverage,
            "shards_down": list(self.shards_down),
            "request_id": self.request_id,
        }


class StripedLRUCache:
    """A bounded LRU cache split into independently-locked stripes.

    Each key hashes to one stripe (an ``OrderedDict`` + ``Lock``).
    Stripe limits partition ``capacity`` exactly — ``capacity // stripes``
    entries per stripe, with the remainder spread one-per-stripe over the
    first ``capacity % stripes`` stripes — so total residency never
    exceeds the requested bound while lookups on different stripes
    proceed fully in parallel.  ``capacity=0`` disables caching.
    """

    def __init__(
        self,
        capacity: int,
        stripes: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self.capacity = int(capacity)
        stripes = min(stripes, capacity) if capacity else 1
        base, extra = divmod(self.capacity, stripes)
        # Per-stripe limits sum to exactly `capacity`: the old
        # ceil(capacity / stripes) limit let total residency overshoot
        # the documented bound by up to stripes - 1 entries.
        self._limits = [
            base + (1 if index < extra else 0) for index in range(stripes)
        ]
        self._stripes = [
            (threading.Lock(), OrderedDict()) for _ in range(stripes)
        ]
        self.registry = registry

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def get(self, key):
        """Cached value or ``None`` (a one-key :meth:`get_many`)."""
        return self.get_many((key,))[0]

    def put(self, key, value) -> None:
        """Insert or refresh ``key`` (a one-entry :meth:`put_many`)."""
        self.put_many(((key, value),))

    def get_many(self, keys: Sequence) -> List:
        """Cached value or ``None`` per key, in order.

        Each found key becomes its stripe's most recent entry, as a
        :meth:`get` per key would make it; ``serving.cache.{hits,misses}``
        are counted once per call.
        """
        if not self.capacity:
            return [None] * len(keys)
        stripes = self._stripes
        values = []
        for key in keys:
            lock, entries = stripes[hash(key) % len(stripes)]
            with lock:
                value = entries.get(key)
                if value is not None:
                    entries.move_to_end(key)
            values.append(value)
        hits = len(values) - values.count(None)
        registry = self._registry()
        if hits:
            registry.increment("serving.cache.hits", hits)
        if hits < len(values):
            registry.increment("serving.cache.misses", len(values) - hits)
        return values

    def put_many(self, items: Sequence[Tuple[Any, Any]]) -> None:
        """Insert or refresh each ``(key, value)`` in order, as a
        :meth:`put` per item would; ``serving.cache.evictions`` is
        counted once per call."""
        if not self.capacity:
            return
        stripes, limits = self._stripes, self._limits
        evicted = 0
        for key, value in items:
            stripe = hash(key) % len(stripes)
            lock, entries = stripes[stripe]
            with lock:
                if key in entries:
                    entries[key] = value
                    entries.move_to_end(key)
                    continue
                # Evict *before* inserting: an unlocked __len__ racing
                # with this put must never observe the cache above its
                # documented capacity, even transiently.
                while len(entries) >= limits[stripe]:
                    entries.popitem(last=False)
                    evicted += 1
                entries[key] = value
        if evicted:
            self._registry().increment("serving.cache.evictions", evicted)

    def __len__(self) -> int:
        return sum(len(entries) for _, entries in self._stripes)

    def clear(self) -> None:
        for lock, entries in self._stripes:
            with lock:
                entries.clear()


class _Pending:
    """One enqueued query waiting for the scorer thread.

    ``deadline`` is an absolute ``time.monotonic()`` instant (or None);
    the scorer sheds items already expired when it assembles a batch,
    and the waiting caller gives up (and abandons the item) at the same
    instant, so expired work is never computed *or* waited on.
    """

    __slots__ = (
        "source", "k", "mode", "nprobe", "event", "value", "error",
        "enqueued", "deadline", "abandoned", "request_id",
    )

    def __init__(
        self,
        source: int,
        k: int,
        mode: str = "exact",
        nprobe: Optional[int] = None,
        deadline: Optional[float] = None,
        request_id: str = "",
    ) -> None:
        self.source = source
        self.k = k
        self.mode = mode
        self.nprobe = nprobe
        self.event = threading.Event()
        self.value: Optional[Tuple] = None
        self.error: Optional[BaseException] = None
        self.enqueued = time.monotonic()
        self.deadline = deadline
        self.abandoned = False
        self.request_id = request_id


class QueryEngine:
    """Thread-safe, microbatched, cached top-k alignment queries.

    Usable as a context manager; :meth:`close` drains the scorer thread
    and fails any still-pending queries loudly.
    """

    def __init__(
        self,
        index: AlignmentIndex,
        fingerprint: str = "",
        batch_size: int = 32,
        max_delay_ms: float = 2.0,
        cache_size: int = 4096,
        cache_stripes: int = 8,
        verifier=None,
        default_mode: str = "exact",
        default_nprobe: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        slow_query_ms: float = 250.0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        if slow_query_ms < 0:
            raise ValueError(
                f"slow_query_ms must be >= 0, got {slow_query_ms}"
            )
        if default_mode not in ("exact", "ann"):
            raise AnnParameterError(
                f"default_mode must be 'exact' or 'ann', got {default_mode!r}"
            )
        self.index = index
        # One int object per target id, shared by every answer's
        # ``targets`` tuple instead of fresh ints per answer: 36 B per
        # target, repaid once the answers held at once (cache, callers)
        # exceed about n_target / 8.
        self._target_ids = np.array(range(index.n_target), dtype=object)
        #: Mode used when a query does not say (``serve --mode``).
        self.default_mode = default_mode
        #: ``nprobe`` used for ann queries that do not say
        #: (None = the index's own ``~sqrt(n_clusters)`` default).
        self.default_nprobe = default_nprobe
        self.fingerprint = fingerprint
        self.batch_size = int(batch_size)
        self.max_delay_s = float(max_delay_ms) / 1e3
        #: Optional ArtifactVerifier: once lazy verification detects
        #: corruption, every subsequent batch raises its typed error.
        self.verifier = verifier
        self.registry = registry
        self.cache = StripedLRUCache(
            cache_size, stripes=cache_stripes, registry=registry
        )
        #: Audit log of slow/degraded queries (``serve --slow-query-ms``);
        #: the "top slow queries" section of /stats and `repro status`.
        self.slow_queries = SlowQueryLog(threshold_s=slow_query_ms / 1e3)
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        # Fail fast: a default of mode='ann' (or a default nprobe) must
        # be satisfiable by this index, not blow up on the first query.
        self._resolve_descriptor(None, None)

    @classmethod
    def from_artifact(
        cls,
        artifact,
        shards: int = 1,
        workers: Optional[int] = None,
        hedge_after_s: Optional[float] = None,
        **kwargs,
    ) -> "QueryEngine":
        """Engine over a fresh index for ``artifact`` (fingerprint wired).

        The one place an artifact's index is chosen.  ``shards > 1``
        builds a :class:`~repro.serving.sharded.ShardedIndex` over that
        many target shards (``workers``, ``hedge_after_s``,
        ``breaker_kwargs`` and ``shard_timeout_s`` tune it; they are
        ignored unsharded); answers are bit-identical to the unsharded
        index, which never touches a worker pool or shared memory.
        Otherwise an artifact carrying ANN aux arrays
        (``repro.artifact/v2`` exported with ``--ann-clusters``) gets an
        :class:`~repro.serving.ann.AnnIndex` — ``mode='exact'`` queries
        still go through the inner exact index verbatim — and a plain
        artifact a bare :class:`AlignmentIndex`, which rejects
        ``mode='ann'``.  :meth:`close` closes a sharded index.
        """
        index_kwargs = {"registry": kwargs.get("registry")}
        if "target_block_size" in kwargs:
            index_kwargs["target_block_size"] = kwargs.pop("target_block_size")
        shard_kwargs = {
            key: kwargs.pop(key)
            for key in ("breaker_kwargs", "shard_timeout_s")
            if key in kwargs
        }
        if shards > 1:
            index = ShardedIndex.from_artifact(
                artifact, shards=shards, workers=workers,
                hedge_after_s=hedge_after_s, **shard_kwargs, **index_kwargs,
            )
        elif getattr(artifact, "ann", None) is not None:
            index = AnnIndex.from_artifact(artifact, **index_kwargs)
        else:
            index = AlignmentIndex.from_artifact(artifact, **index_kwargs)
        kwargs.setdefault("fingerprint", artifact.fingerprint)
        kwargs.setdefault("verifier", getattr(artifact, "verifier", None))
        return cls(index, **kwargs)

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryEngine":
        """Start the scorer thread (idempotent; queries auto-start it)."""
        with self._cond:
            self._ensure_worker_locked()
        return self

    def _ensure_worker_locked(self) -> None:
        if self._closed:
            raise RuntimeError("QueryEngine is closed")
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-serving-scorer",
                daemon=True,
            )
            self._worker.start()

    def close(self) -> None:
        """Stop the scorer; pending queries fail with ``RuntimeError``.

        An index with a ``close`` (a sharded index's pool and shared
        memory) is closed with the engine.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            while self._pending:
                item = self._pending.popleft()
                item.error = RuntimeError(
                    "QueryEngine closed while the query was pending"
                )
                item.event.set()
            self._cond.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join(timeout=5.0)
        close = getattr(self.index, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "QueryEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _validate(
        self, queries: Sequence[Tuple[Any, Any]]
    ) -> List[Tuple[int, int]]:
        """``(source, k)`` pairs as ints, ``k`` clamped to ``n_target``."""
        if self._closed:
            # Checked before the cache too: a closed engine must not keep
            # half-working (hits succeed, misses hang-then-fail).
            raise RuntimeError("QueryEngine is closed")
        n_source, n_target = self.index.n_source, self.index.n_target
        normalized = []
        for source, k in queries:
            # Plain ints skip the type checks; bool is not ``int`` here.
            if type(source) is not int:
                source = _require_int(source, "source")
            if type(k) is not int:
                k = _require_int(k, "k")
            if not 0 <= source < n_source:
                raise IndexError(
                    f"source node {source} out of range [0, {n_source})"
                )
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
            normalized.append((source, k if k < n_target else n_target))
        return normalized

    def _resolve_descriptor(
        self, mode: Optional[str], nprobe: Optional[int]
    ) -> Tuple[str, Optional[int]]:
        """Normalize a query's ``(mode, nprobe)`` to cache-key form.

        ``None`` values fall back to the engine defaults.  The resolved
        descriptor is fully concrete — for ann, ``nprobe`` is the exact
        integer the index will probe — so two queries hit the same cache
        entry iff they are answered by the same computation.  All
        violations raise :class:`~repro.resilience.AnnParameterError`
        (HTTP 400): unknown mode, ``nprobe`` with ``mode='exact'``,
        ``mode='ann'`` against an index without an ANN tier, or an
        out-of-range/non-integer ``nprobe``.
        """
        mode = self.default_mode if mode is None else mode
        if mode not in ("exact", "ann"):
            raise AnnParameterError(
                f"mode must be 'exact' or 'ann', got {mode!r}"
            )
        if mode == "exact":
            if nprobe is not None:
                raise AnnParameterError(
                    "nprobe only applies to mode='ann' "
                    f"(got nprobe={nprobe!r} with mode='exact')"
                )
            return "exact", None
        if not getattr(self.index, "supports_ann", False):
            raise AnnParameterError(
                "this index has no ANN tier (mode='ann' needs an artifact "
                "exported with --ann-clusters); use mode='exact'"
            )
        if nprobe is None:
            nprobe = self.default_nprobe
        return "ann", self.index.resolve_nprobe(nprobe)

    def _finish(
        self,
        answers: Sequence[Tuple[int, int, Tuple]],
        cached: bool,
        started: float,
        request_id: str = "",
        mode: Optional[str] = None,
        nprobe: Optional[int] = None,
        stages: Optional[Dict[str, float]] = None,
    ) -> List[QueryResult]:
        """Count, time, audit and wrap ``(source, k, value)`` answers.

        The answers finish together: they share one latency (read once,
        now), each metric is bumped once for all of them, and the slow
        log sees an answer only when that latency reaches its threshold
        or the answer is degraded.
        """
        registry = self._registry()
        latency = time.perf_counter() - started
        count = len(answers)
        registry.increment("serving.queries", count)
        registry.record_histogram("serving.query_latency", latency, count)
        registry.record_histogram(
            "serving.query_latency_cached" if cached
            else "serving.query_latency_uncached",
            latency, count,
        )
        slow = latency >= self.slow_queries.threshold_s
        unaligned = degraded_count = audited = 0
        results = []
        for source, k, (targets, scores, aligned, status) in answers:
            degraded, coverage, shards_down = status
            unaligned += not aligned
            degraded_count += degraded
            if slow or degraded:
                audited += self.slow_queries.observe(
                    latency_s=latency,
                    descriptor=functools.partial(
                        self._descriptor, source, k, mode, nprobe, cached
                    ),
                    request_id=request_id or None,
                    degraded=degraded,
                    coverage=coverage,
                    stages=stages,
                )
            results.append(QueryResult(
                source, k, targets, scores, aligned, cached, latency,
                degraded, coverage, shards_down, request_id,
            ))
        if unaligned:
            registry.increment("serving.unaligned", unaligned)
        if degraded_count:
            registry.increment("serving.degraded", degraded_count)
        if audited:
            registry.increment("serving.slow_queries", audited)
        return results

    def _descriptor(
        self, source: int, k: int, mode: Optional[str],
        nprobe: Optional[int], cached: bool,
    ) -> Dict[str, Any]:
        """A slow-log entry's query descriptor (built only when audited)."""
        return {
            "source": source, "k": k, "mode": mode, "nprobe": nprobe,
            "cached": cached, "fingerprint": self.fingerprint,
        }

    def _shed(self, count: int = 1) -> None:
        self._registry().increment("serving.deadline_shed", count)

    def _check_deadline(
        self, deadline_s: Optional[float], where: str
    ) -> None:
        if deadline_s is not None and time.monotonic() >= deadline_s:
            self._shed()
            raise DeadlineExceededError(
                f"deadline expired {where}", deadline_s=deadline_s
            )

    def query(
        self,
        source: int,
        k: int = 1,
        deadline_s: Optional[float] = None,
        mode: Optional[str] = None,
        nprobe: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> QueryResult:
        """Answer one query, going through the cache and the microbatcher.

        ``deadline_s`` is an absolute ``time.monotonic()`` deadline: work
        already expired on arrival is shed (never computed), the caller
        never waits past it, and an expired item in the microbatcher
        queue is dropped instead of scored.  Expiry raises
        :class:`~repro.resilience.DeadlineExceededError` (HTTP 504).

        ``mode``/``nprobe`` select the exact or approximate tier (None =
        engine defaults); the *resolved* descriptor is part of the cache
        key, so an ann answer can never be served to an exact caller —
        or to an ann caller with a different ``nprobe`` — and vice
        versa.

        ``request_id`` is the correlation id echoed in the result and
        shipped to shard workers; ``None`` falls back to the id bound to
        the calling thread (the front door's per-request bind) and then
        to a freshly minted one, so every answer is greppable.
        """
        started = time.perf_counter()
        request_id = request_id or current_request_id() or mint_request_id()
        self._check_deadline(deadline_s, "before admission")
        ((source, k),) = self._validate(((source, k),))
        mode, nprobe = self._resolve_descriptor(mode, nprobe)
        key = (self.fingerprint, source, k, mode, nprobe)
        value = self.cache.get(key)
        if value is not None:
            return self._finish(
                [(source, k, value)], True, started,
                request_id=request_id, mode=mode, nprobe=nprobe,
            )[0]
        item = _Pending(
            source, k, mode, nprobe, deadline=deadline_s,
            request_id=request_id,
        )
        submitted = time.perf_counter()
        with self._cond:
            self._ensure_worker_locked()
            self._pending.append(item)
            self._cond.notify_all()
        timeout = (
            None if deadline_s is None
            else max(0.0, deadline_s - time.monotonic())
        )
        if not item.event.wait(timeout):
            # Abandon the item: if the scorer has not picked it up yet it
            # will be shed there; either way nobody consumes the value.
            with self._cond:
                item.abandoned = True
            raise DeadlineExceededError(
                f"query (source={source}, k={k}) missed its deadline "
                "while waiting for the scorer",
                deadline_s=deadline_s,
            )
        if item.error is not None:
            raise item.error
        if not _degraded(item.value):
            # Degraded answers are never cached: once the shard set
            # recovers, the full answer must not lose to a stale partial.
            self.cache.put(key, item.value)
        return self._finish(
            [(source, k, item.value)], False, started,
            request_id=request_id, mode=mode, nprobe=nprobe,
            stages={
                "admit_ms": (submitted - started) * 1e3,
                "score_ms": (time.perf_counter() - submitted) * 1e3,
            },
        )[0]

    def query_many(
        self,
        queries: Sequence[Tuple[int, int]],
        deadline_s: Optional[float] = None,
        mode: Optional[str] = None,
        nprobe: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> List[QueryResult]:
        """Answer a caller-assembled batch directly (no coalescing delay).

        ``queries`` is a sequence of ``(source, k)`` pairs; cache hits are
        served immediately and the misses scored in ``batch_size`` chunks.
        An expired ``deadline_s`` sheds every not-yet-scored chunk and
        raises :class:`~repro.resilience.DeadlineExceededError`.
        ``mode``/``nprobe`` apply to the whole batch (None = engine
        defaults) and are folded into every cache key.  One
        ``request_id`` (resolved like :meth:`query`'s) covers the whole
        batch — a batched HTTP POST is one request.

        The batch is validated, looked up, cached and counted once, and
        each scored chunk is finished once: every answer of a chunk (and
        every cache hit) reports the latency at which its chunk (or the
        lookup) completed, and the answers share that one float.  The
        answers are returned together, in ``queries`` order.
        """
        started = time.perf_counter()
        request_id = request_id or current_request_id() or mint_request_id()
        self._check_deadline(deadline_s, "before admission")
        mode, nprobe = self._resolve_descriptor(mode, nprobe)
        normalized = self._validate(queries)
        fingerprint = self.fingerprint
        keys = [
            (fingerprint, source, k, mode, nprobe)
            for source, k in normalized
        ]
        results: List[Optional[QueryResult]] = [None] * len(normalized)
        hits: List[int] = []
        misses: List[int] = []
        found = self.cache.get_many(keys)
        for position, value in enumerate(found):
            (misses if value is None else hits).append(position)
        finish = functools.partial(
            self._finish, started=started, request_id=request_id,
            mode=mode, nprobe=nprobe,
        )
        if hits:
            answers = finish(
                [(*normalized[p], found[p]) for p in hits], True
            )
            for position, result in zip(hits, answers):
                results[position] = result
        for chunk_start in range(0, len(misses), self.batch_size):
            chunk = misses[chunk_start:chunk_start + self.batch_size]
            if deadline_s is not None and time.monotonic() >= deadline_s:
                self._shed(len(misses) - chunk_start)
                raise DeadlineExceededError(
                    f"batch missed its deadline with "
                    f"{len(misses) - chunk_start} queries unscored",
                    deadline_s=deadline_s,
                )
            values = self._score_batch(
                [(*normalized[p], mode, nprobe, request_id) for p in chunk],
                deadline_s=deadline_s,
            )
            self.cache.put_many([
                (keys[position], value)
                for position, value in zip(chunk, values)
                if not _degraded(value)
            ])
            answers = finish(
                [(*normalized[p], value) for p, value in zip(chunk, values)],
                False,
            )
            for position, result in zip(chunk, answers):
                results[position] = result
        return results

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_batch(
        self,
        batch: Sequence[Tuple[int, int, str, Optional[int], str]],
        deadline_s: Optional[float] = None,
    ) -> List[Tuple]:
        """Score ``(source, k, mode, nprobe, request_id)`` items.

        A value is the cacheable ``(targets, scores, aligned, status)``
        tuple, where ``status`` holds the degraded-answer fields
        ``(degraded, coverage, shards_down)``.  Each query's answer is
        the first ``k`` canonical entries of its group's top-``max(k)``,
        which equals its standalone answer.
        Items sharing a ``(mode, nprobe)`` descriptor coalesce into one
        index call (a microbatch mixing exact and ann callers issues one
        call per descriptor, order preserved).  Degraded answers
        (``status[0]``) may hold fewer than ``k`` candidates;
        callers must not cache them.

        Indexes with a fault-tolerant ``top_k_ex`` (the sharded index)
        answer with their coverage ``meta`` and get each group's request
        ids, which the scatter ships to its workers so a query stays
        greppable across the fan-out.
        """
        if self.verifier is not None:
            # Lazy artifact verification: the background verifier's typed
            # corruption error surfaces on the first batch after it fires.
            self.verifier.raise_if_failed()
        registry = self._registry()
        groups: "OrderedDict[Tuple[str, Optional[int]], List[int]]" = (
            OrderedDict()
        )
        for position, (_, _, mode, nprobe, _) in enumerate(batch):
            groups.setdefault((mode, nprobe), []).append(position)
        values: List[Optional[Tuple]] = [None] * len(batch)
        top_k_ex = getattr(self.index, "top_k_ex", None)
        for (mode, nprobe), positions in groups.items():
            k_max = max(batch[position][1] for position in positions)
            sources = np.array(
                [batch[position][0] for position in positions],
                dtype=np.int64,
            )
            ann_kwargs = (
                {"mode": "ann", "nprobe": nprobe} if mode == "ann" else {}
            )
            with get_tracer().span(
                "serving.score_batch",
                size=len(positions), k=k_max, mode=mode,
            ):
                if top_k_ex is not None:
                    targets, scores, meta = top_k_ex(
                        sources, k_max, deadline_s=deadline_s,
                        request_ids=tuple(
                            batch[position][4] for position in positions
                        ),
                        **ann_kwargs,
                    )
                else:
                    self._check_deadline(deadline_s, "before scoring")
                    targets, scores = self.index.top_k(
                        sources, k_max, **ann_kwargs
                    )
                    meta = None
            status = _HEALTHY if meta is None else (
                bool(meta["degraded"]), float(meta["coverage"]),
                tuple(meta.get("shards_down", ())),
            )
            # One conversion per group; ids come as the shared objects.
            id_rows = self._target_ids[targets].tolist()
            score_rows = scores.tolist()
            finite = np.isfinite(scores)
            clean = finite.all(axis=1).tolist()
            for row, position in enumerate(positions):
                take = batch[position][1]
                ids, row_scores = id_rows[row][:take], score_rows[row][:take]
                if clean[row]:
                    aligned = True
                else:
                    # Non-finite entries (a -1 pad would index the last
                    # id) are dropped; nothing finite left is unaligned.
                    keep = finite[row, :take].tolist()
                    ids = compress(ids, keep)
                    row_scores = compress(row_scores, keep)
                    aligned = any(keep)
                values[position] = (
                    tuple(ids), tuple(row_scores), aligned, status,
                )
        registry.increment("serving.batches")
        registry.record_histogram("serving.batch.size", len(batch))
        return values

    def _take_batch_locked(self) -> List[_Pending]:
        """Pop up to ``batch_size`` live items, shedding dead ones.

        Caller holds ``self._cond``.  Items whose deadline has already
        passed (or whose caller abandoned the wait) are dropped with
        ``serving.deadline_shed`` instead of being scored — expired work
        is never computed.
        """
        batch: List[_Pending] = []
        shed = 0
        now = time.monotonic()
        while self._pending and len(batch) < self.batch_size:
            item = self._pending.popleft()
            expired = item.deadline is not None and now >= item.deadline
            if item.abandoned or expired:
                shed += 1
                item.error = DeadlineExceededError(
                    f"query (source={item.source}, k={item.k}) expired in "
                    "the microbatch queue",
                    deadline_s=item.deadline,
                )
                item.event.set()
                continue
            batch.append(item)
        if shed:
            self._shed(shed)
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                # Coalescing window: wait for a full batch, but never
                # longer than max_delay past the oldest query's arrival.
                deadline = self._pending[0].enqueued + self.max_delay_s
                while (
                    len(self._pending) < self.batch_size
                    and not self._closed
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                if self._closed:
                    return
                batch = self._take_batch_locked()
            if not batch:
                continue
            # Scoring honors the *latest* deadline in the batch: shedding
            # at an earlier item's deadline would starve the others, and
            # each expired caller has already stopped waiting anyway.
            deadlines = [item.deadline for item in batch]
            batch_deadline = (
                None if any(d is None for d in deadlines) else max(deadlines)
            )
            try:
                values = self._score_batch(
                    [
                        (item.source, item.k, item.mode, item.nprobe,
                         item.request_id)
                        for item in batch
                    ],
                    deadline_s=batch_deadline,
                )
                for item, value in zip(batch, values):
                    item.value = value
            except Exception as error:
                # Deliver the failure to every waiting caller (each
                # re-raises); the engine itself stays alive.
                self._registry().increment("serving.errors")
                for item in batch:
                    item.error = error
            finally:
                for item in batch:
                    item.event.set()

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Degraded-state snapshot (the ``/healthz`` payload core).

        ``healthy`` is liveness (the engine can answer *something*);
        ``degraded`` flags reduced coverage (readiness should fail).
        Indexes without shard health (single-process) are always fully
        covered.
        """
        index_health = getattr(self.index, "health", None)
        if index_health is not None:
            report = dict(index_health())
        else:
            report = {
                "degraded": False, "coverage": 1.0, "shards_down": [],
                "shards": [],
            }
        report.setdefault("healthy", True)
        report["closed"] = self._closed
        if self._closed:
            report["healthy"] = False
        if self.verifier is not None:
            failed = self.verifier.error is not None
            report["artifact_verifier"] = {
                "done": self.verifier.done,
                "failed": failed,
            }
            if failed:
                report["healthy"] = False
        return report

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot (the ``/stats`` payload core)."""
        registry = self._registry()
        snapshot = registry.snapshot("serving")

        def counter(name: str) -> int:
            stats = snapshot.get(name)
            return int(stats["value"]) if stats else 0

        hits = counter("serving.cache.hits")
        misses = counter("serving.cache.misses")
        lookups = hits + misses
        latency = snapshot.get("serving.query_latency", {})
        return {
            "fingerprint": self.fingerprint,
            "n_source": self.index.n_source,
            "n_target": self.index.n_target,
            "queries": counter("serving.queries"),
            "batches": counter("serving.batches"),
            "cache": {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
                "hits": hits,
                "misses": misses,
                "evictions": counter("serving.cache.evictions"),
                "hit_rate": hits / lookups if lookups else 0.0,
            },
            "unaligned": counter("serving.unaligned"),
            "degraded": counter("serving.degraded"),
            "deadline_shed": counter("serving.deadline_shed"),
            "slow_queries": {
                "threshold_ms": self.slow_queries.threshold_s * 1e3,
                "total": self.slow_queries.total,
                "top": self.slow_queries.recent(5),
            },
            "ann": {
                "supported": bool(
                    getattr(self.index, "supports_ann", False)
                ),
                "default_mode": self.default_mode,
                "queries": counter("serving.ann.queries"),
                "lists_probed": counter("serving.ann.lists_probed"),
                "rows_probed": counter("serving.ann.rows_probed"),
                "candidates_rescored": counter(
                    "serving.ann.candidates_rescored"
                ),
            },
            "latency_ms": {
                "mean": latency.get("mean", 0.0) * 1e3,
                "max": latency.get("max", 0.0) * 1e3,
                "count": latency.get("count", 0),
                "p50": _ms_or_none(latency.get("p50")),
                "p99": _ms_or_none(latency.get("p99")),
            },
        }
