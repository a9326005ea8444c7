"""Process-pool work scheduler with a deterministic inline fallback.

:class:`WorkerPool` is the single concurrency primitive of the repo:
every embarrassingly-parallel fan-out site (hyper-parameter search,
experiment sweeps, streamed score blocks) expresses its work as a list
of picklable task argument tuples plus a module-level task function,
and the pool runs them either

* **inline** (``workers=0``, the default) — a plain serial loop in the
  parent process, the CI-deterministic reference execution; or
* **in a process pool** (``workers >= 1``) — a
  ``concurrent.futures.ProcessPoolExecutor`` over the ``fork`` start
  method, with results reassembled in submission order.

Determinism contract
--------------------
Parallel execution is bit-identical to inline execution *by
construction*: tasks receive explicit per-task seeds (exactly the seeds
the serial loop would derive), share no mutable state (heavy inputs
travel through :mod:`repro.parallel.shm` as read-only views), and the
parent consumes results in submission order regardless of completion
order.  Nothing about scheduling can therefore change a result.

Failure semantics
-----------------
* An ordinary ``Exception`` raised by a task is **not** retried — it is
  deterministic and would fail again.  It propagates to the caller (or
  is returned as a :class:`TaskFailure` under ``return_exceptions=True``
  for ``continue_on_error``-style consumers).
* A worker **crash** — the pool breaking (``BrokenProcessPool``), a task
  timeout, or a :class:`~repro.resilience.SimulatedKill` escaping a
  worker — is retried with a fresh pool up to ``max_retries`` times,
  then surfaced as a named
  :class:`~repro.resilience.WorkerCrashError` listing the tasks that
  never completed.  The pool never hangs: timeouts bound every wait.
* A **deadline expiry** (``map(..., deadline_s=...)``) is the *caller's*
  budget running out, not a worker fault: still-pending tasks are shed
  as :class:`~repro.resilience.DeadlineExceededError` without recording
  a crash, without a retry round, and without tearing down a persistent
  executor's warm workers.  Crash retries under a deadline re-check the
  remaining budget each round instead of getting a fresh full window.

Workers record metrics into a fresh registry which travels back with
each result and is merged into the parent registry in submission order
(see :meth:`~repro.observability.MetricsRegistry.merge_state`), so
counters, gauges, and histograms match the serial run.  The pool itself
contributes ``parallel.*`` metrics: task count and latency, retries,
crashes, worker utilization, and shared-memory bytes.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    serialize_spans,
    use_registry,
    use_tracer,
)
from ..resilience import DeadlineExceededError, SimulatedKill, WorkerCrashError

__all__ = [
    "WorkerPool",
    "TaskFailure",
    "resolve_workers",
    "get_task_context",
    "in_worker",
    "WORKERS_ENV_VAR",
]

#: Environment variable giving the default worker count when a fan-out
#: site is called with ``workers=None``.  Unset/empty → 0 (inline).
WORKERS_ENV_VAR = "REPRO_WORKERS"

# Parent-side payload inherited by forked workers (never pickled): lets
# tasks reference unpicklable objects (method factories, closures) by
# index.  Only valid between WorkerPool.map() entry and exit.
_task_context: Any = None


def get_task_context() -> Any:
    """The ``context`` object passed to the running :meth:`WorkerPool.map`.

    Workers forked by the pool inherit the parent's copy-on-write memory,
    so the context reaches them without pickling — the mechanism that
    lets the experiment runner ship method factories (lambdas) to tasks.
    Inline tasks see the same object directly.
    """
    return _task_context


# True inside a pool worker process (set by _run_task after the fork).
_in_worker = False


def in_worker() -> bool:
    """True when running inside a :class:`WorkerPool` worker process.

    Fan-out sites use this to pick the right metrics sink (workers must
    record into the pool-installed process registry so their state is
    merged back), and :func:`resolve_workers` uses it to forbid nested
    pools.
    """
    return _in_worker


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve an explicit or environment-default worker count.

    ``None`` reads ``REPRO_WORKERS`` (unset/empty → 0).  0 means inline
    serial execution; platforms without the ``fork`` start method are
    coerced to inline so results stay identical everywhere.  Inside a
    pool worker the answer is always 0: nested process pools would fork
    from a forked child and multiply unboundedly under ``REPRO_WORKERS``.
    """
    if _in_worker:
        return 0
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers and "fork" not in multiprocessing.get_all_start_methods():
        return 0
    return workers


class TaskFailure:
    """A task's ordinary exception, returned under ``return_exceptions``.

    Wraps (rather than raises) so a ``continue_on_error`` consumer can
    record the failure for *this* task and keep the results of the rest.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"TaskFailure({type(self.error).__name__}: {self.error})"


def _run_task(
    fn: Callable,
    args: Tuple,
    context: Any = None,
    has_context: bool = False,
    trace: bool = False,
) -> Tuple[Any, dict, float, bool, Optional[dict]]:
    """Worker-side wrapper: fresh registry, timed call, state shipped back.

    Returns ``(value, registry_state, elapsed, failed, spans)``; an
    ordinary exception is captured as the value with ``failed=True`` so
    the worker's metrics still reach the parent.  ``SimulatedKill`` is a
    ``BaseException`` and escapes — the parent treats it as a crash.

    ``has_context`` installs ``context`` as this worker's task context
    before the call — the per-submission leg of the task-context
    channel: a *persistent* executor's workers forked on an earlier
    round, so fork inheritance alone would hand them that round's
    context forever.  ``trace=True`` records the task's spans into a
    worker-local tracer and ships the serialized tree back as ``spans``
    for the parent to graft (see :meth:`Tracer.graft`); otherwise
    ``spans`` is ``None``.
    """
    global _in_worker, _task_context
    _in_worker = True
    if has_context:
        _task_context = context
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True) if trace else None
    failed = False
    with ExitStack() as scopes:
        scopes.enter_context(use_registry(registry))
        if tracer is not None:
            scopes.enter_context(use_tracer(tracer))
        with registry.timed("parallel.task_time") as timer:
            try:
                value = fn(*args)
            except Exception as error:
                value = error
                failed = True
    spans = serialize_spans(tracer) if tracer is not None and len(tracer) \
        else None
    return value, registry.dump_state(), timer.elapsed, failed, spans


_UNSET = object()


class WorkerPool:
    """Order-preserving scheduler over a process pool (or inline loop).

    Parameters
    ----------
    workers:
        Process count; 0 runs tasks inline in submission order, ``None``
        reads ``REPRO_WORKERS``.
    max_retries:
        Crash retries per scheduling round before a
        :class:`~repro.resilience.WorkerCrashError` is raised.
    task_timeout:
        Seconds a single task may run before its pool is torn down and
        the task counts as crashed (``None`` = unbounded).
    context:
        Arbitrary parent-side object exposed to tasks via
        :func:`get_task_context` (forked workers inherit it unpickled).
    registry:
        Metrics sink; ``None`` falls back to the process registry.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        context: Any = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.workers = resolve_workers(workers)
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.context = context
        self.registry = registry
        self._executor: Optional[
            concurrent.futures.ProcessPoolExecutor
        ] = None

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # ------------------------------------------------------------------
    # Persistent mode: long-lived serving callers (the sharded query
    # path) issue many small map() rounds; forking a fresh pool per
    # round would dominate the latency and discard worker-side caches
    # (shm attachments, per-shard indexes).  start()/close() keep one
    # executor alive across map() calls; a crash mid-round still tears
    # it down and the next round re-forks transparently.
    def start(self) -> "WorkerPool":
        """Keep one executor alive across map() calls (no-op inline)."""
        if self.workers and self._executor is None:
            self._executor = self._make_executor()
        return self

    @property
    def persistent(self) -> bool:
        """True between :meth:`start` and :meth:`close` (and workers > 0)."""
        return self._executor is not None

    def close(self) -> None:
        """Shut the persistent executor down (idempotent; no-op inline)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        tasks: Sequence[Tuple],
        *,
        return_exceptions: bool = False,
        labels: Optional[Sequence[str]] = None,
        hedge_after_s: Optional[float] = None,
        timeout_s: Any = _UNSET,
        deadline_s: Optional[float] = None,
        crash_policy: str = "raise",
        context: Any = _UNSET,
    ) -> List[Any]:
        """Run ``fn(*task)`` for every task; results in submission order.

        ``context`` overrides the pool's construction-time task context
        for this call only.  Unlike the construction-time context it
        must be **picklable**: it is shipped with every submission so
        the workers of a *persistent* executor — forked on an earlier
        round, beyond fork inheritance — still see the value belonging
        to this round (per-request metadata such as request ids).

        ``labels`` (defaulting to task indices) name tasks in crash
        errors and metrics events.  ``hedge_after_s`` arms request
        hedging: any task still unanswered that many seconds after
        submission gets a duplicate submission, and the first replica
        to finish wins (tasks must therefore be pure — every pool task
        in this repo already is, by the determinism contract).  Hedging
        needs at least two workers and is ignored inline.

        ``timeout_s`` overrides the pool's ``task_timeout`` for this
        call only: it is *hang protection* — a task exceeding it counts
        as a worker crash (teardown + retry).  ``deadline_s`` is an
        absolute ``time.monotonic()`` deadline — the *caller's* latency
        budget: once it passes, still-pending tasks are shed as
        :class:`~repro.resilience.DeadlineExceededError` (raised under
        ``crash_policy="raise"``, returned per task as
        :class:`TaskFailure` under ``"return"``) with no crash recorded,
        no retry round, and a persistent executor left warm.  Crash
        retry rounds under a deadline get only the remaining budget,
        never a fresh window.

        ``crash_policy`` picks what happens when the crash retry budget
        runs out: ``"raise"`` (default) raises
        :class:`~repro.resilience.WorkerCrashError` for the whole call,
        ``"return"`` returns a :class:`TaskFailure` wrapping that error
        for each never-completed task while every finished task keeps
        its result — the degraded-answer mode circuit-breaking callers
        need.
        """
        if crash_policy not in ("raise", "return"):
            raise ValueError(
                f"crash_policy must be 'raise' or 'return', got "
                f"{crash_policy!r}"
            )
        tasks = [tuple(task) for task in tasks]
        if labels is None:
            labels = [f"task[{index}]" for index in range(len(tasks))]
        elif len(labels) != len(tasks):
            raise ValueError(
                f"got {len(labels)} labels for {len(tasks)} tasks"
            )
        if not tasks:
            return []
        timeout = self.task_timeout if timeout_s is _UNSET else timeout_s
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout}")
        per_call = context is not _UNSET
        call_context = context if per_call else self.context
        global _task_context
        previous_context = _task_context
        _task_context = call_context
        try:
            if self.workers == 0:
                return self._map_inline(
                    fn, tasks, return_exceptions,
                    deadline_s=deadline_s, crash_policy=crash_policy,
                )
            return self._map_pool(
                fn, tasks, list(labels), return_exceptions,
                hedge_after_s=hedge_after_s,
                timeout=timeout,
                deadline_s=deadline_s,
                crash_policy=crash_policy,
                ship_context=call_context if per_call else None,
                ship=per_call,
            )
        finally:
            _task_context = previous_context

    # ------------------------------------------------------------------
    def _map_inline(
        self,
        fn: Callable,
        tasks: List[Tuple],
        return_exceptions: bool,
        deadline_s: Optional[float] = None,
        crash_policy: str = "raise",
    ) -> List[Any]:
        registry = self._registry()
        results: List[Any] = []
        for index, args in enumerate(tasks):
            if deadline_s is not None and time.monotonic() >= deadline_s:
                # A running task cannot be interrupted inline, but the
                # not-yet-started remainder is shed, never computed.
                shed = len(tasks) - index
                registry.increment("parallel.deadline_shed", shed)
                if crash_policy == "raise":
                    raise DeadlineExceededError(
                        f"deadline expired with {shed} task(s) unstarted",
                        deadline_s=deadline_s,
                    )
                results.extend(
                    TaskFailure(DeadlineExceededError(
                        f"task[{position}] shed: deadline expired before "
                        "it started",
                        deadline_s=deadline_s,
                    ))
                    for position in range(index, len(tasks))
                )
                break
            with registry.timed("parallel.task_time"):
                try:
                    value = fn(*args)
                except Exception as error:
                    if not return_exceptions:
                        raise
                    value = TaskFailure(error)
            registry.increment("parallel.tasks")
            results.append(value)
        return results

    # ------------------------------------------------------------------
    def _hedge(
        self,
        registry: MetricsRegistry,
        executor: concurrent.futures.ProcessPoolExecutor,
        fn: Callable,
        tasks: List[Tuple],
        labels: List[str],
        futures: Dict[int, List[concurrent.futures.Future]],
        hedge_after_s: float,
        submit_extras: Tuple,
    ) -> None:
        """Duplicate-submit tasks still unanswered after ``hedge_after_s``.

        Tail-latency insurance against one slow worker: the straggler's
        replica lands on a free worker and whichever replica finishes
        first supplies the result (see :meth:`_first_result`).  Safe
        because pool tasks are pure.
        """
        primaries = [replicas[0] for replicas in futures.values()]
        concurrent.futures.wait(primaries, timeout=hedge_after_s)
        for index, replicas in futures.items():
            if replicas[0].done():
                continue
            replicas.append(
                executor.submit(_run_task, fn, tasks[index], *submit_extras)
            )
            registry.increment("parallel.hedges")
            registry.emit("parallel.hedge", {"task": labels[index]})

    @staticmethod
    def _first_result(
        replicas: List[concurrent.futures.Future],
        timeout: Optional[float],
    ):
        """Result of the first *usable* replica plus observed kill count.

        Returns ``(payload, kills)`` where ``kills`` counts replicas
        that died with :class:`~repro.resilience.SimulatedKill` before a
        usable one finished.  A crashed primary whose hedge replica is
        still running does **not** fail the task: the wait continues so
        the hedge can deliver — counting the primary's crash exactly
        once instead of triggering a full retry round (which used to
        re-run and potentially re-count the same logical task).  Only
        when *every* replica crashed does ``SimulatedKill`` propagate.
        With no hedging this degenerates to ``replicas[0].result()``
        semantics.
        """
        kills = 0
        pending = list(replicas)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while pending:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise concurrent.futures.TimeoutError()
            done, _ = concurrent.futures.wait(
                pending, timeout=remaining,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if not done:
                raise concurrent.futures.TimeoutError()
            # Prefer a clean completion, in submission order.
            for future in replicas:
                if future in done and future.exception() is None:
                    return future.result(), kills
            for future in list(pending):
                if future not in done:
                    continue
                error = future.exception()
                if isinstance(error, SimulatedKill):
                    # A killed replica; keep waiting on the others.
                    kills += 1
                    pending.remove(future)
                else:
                    # BrokenProcessPool (and anything else escaping the
                    # task wrapper) poisons the whole pool: surface it.
                    return future.result(), kills
        raise SimulatedKill(
            f"all {len(replicas)} replica(s) of the task were killed"
        )

    def _map_pool(
        self,
        fn: Callable,
        tasks: List[Tuple],
        labels: List[str],
        return_exceptions: bool,
        hedge_after_s: Optional[float] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
        crash_policy: str = "raise",
        ship_context: Any = None,
        ship: bool = False,
    ) -> List[Any]:
        registry = self._registry()
        results: List[Any] = [_UNSET] * len(tasks)
        states: List[Any] = [None] * len(tasks)
        # Worker tracing mirrors the parent: spans ship back only when
        # someone is actually tracing, so the default costs nothing.
        trace = get_tracer().enabled
        submit_extras = (ship_context, ship, trace)
        spans: List[Any] = [None] * len(tasks)
        busy_seconds = 0.0
        persistent = self._executor is not None
        executor = self._executor
        started = time.perf_counter()
        expired = False
        try:
            rounds = 0
            while True:
                pending = [i for i in range(len(tasks)) if results[i] is _UNSET]
                if not pending:
                    break
                if expired or (
                    deadline_s is not None
                    and time.monotonic() >= deadline_s
                ):
                    expired = True
                    self._shed_expired(
                        registry, results, labels, pending, deadline_s,
                        crash_policy,
                    )
                    break
                if rounds > self.max_retries:
                    if crash_policy == "return":
                        # Degraded mode: finished tasks keep their
                        # results; the never-completed ones surface as
                        # TaskFailure(WorkerCrashError) for the caller
                        # (a circuit breaker) to account per task.
                        for index in pending:
                            results[index] = TaskFailure(
                                WorkerCrashError(
                                    f"task {labels[index]} never completed "
                                    f"after {rounds} attempt(s)",
                                    tasks=[labels[index]],
                                    attempts=rounds,
                                )
                            )
                        break
                    self._crash_error(labels, pending, rounds)
                if rounds:
                    registry.increment("parallel.retries", len(pending))
                rounds += 1
                if executor is None:
                    executor = self._make_executor()
                    if persistent:
                        self._executor = executor
                futures: Dict[int, List[concurrent.futures.Future]] = {
                    index: [executor.submit(
                        _run_task, fn, tasks[index], *submit_extras
                    )]
                    for index in pending
                }
                if hedge_after_s is not None and self.workers > 1:
                    self._hedge(
                        registry, executor, fn, tasks, labels, futures,
                        hedge_after_s, submit_extras,
                    )
                crashed = False
                for index in pending:
                    wait = timeout
                    if deadline_s is not None:
                        remaining = deadline_s - time.monotonic()
                        if remaining <= 0:
                            expired = True
                            break
                        wait = (
                            remaining if wait is None
                            else min(wait, remaining)
                        )
                    try:
                        payload, kills = self._first_result(
                            futures[index], wait
                        )
                        value, state, elapsed, failed, task_spans = payload
                        for _ in range(kills):
                            # Killed replicas whose hedge still answered:
                            # real crashes, counted once each, but the
                            # task completed — no retry round.
                            self._record_crash(
                                registry, labels[index], "simulated_kill"
                            )
                    except concurrent.futures.TimeoutError:
                        if (
                            deadline_s is not None
                            and time.monotonic() >= deadline_s
                        ):
                            # The caller's budget expired — not evidence
                            # of a stuck worker.  Shed instead of killing
                            # the warm pool and burning a retry round.
                            expired = True
                            break
                        # The worker is stuck; the only safe move is to
                        # tear the pool down and retry the stragglers.
                        self._record_crash(
                            registry, labels[index], "timeout"
                        )
                        busy_seconds += self._harvest_done(
                            registry, futures, pending, results, states,
                            spans, return_exceptions,
                        )
                        executor = self._teardown(executor, kill=True)
                        if persistent:
                            self._executor = None
                        crashed = True
                        break
                    except BrokenProcessPool:
                        # A worker died mid-round.  Attribution is fuzzy
                        # (every outstanding future breaks), so all
                        # unfinished tasks of this round are retried.
                        self._record_crash(
                            registry, labels[index], "broken_pool"
                        )
                        busy_seconds += self._harvest_done(
                            registry, futures, pending, results, states,
                            spans, return_exceptions,
                        )
                        executor = self._teardown(executor, kill=False)
                        if persistent:
                            self._executor = None
                        crashed = True
                        break
                    except SimulatedKill:
                        # The fault harness's stand-in for a worker
                        # death: attribution is exact, the pool survives.
                        self._record_crash(
                            registry, labels[index], "simulated_kill"
                        )
                        crashed = True
                        continue
                    if failed:
                        if not return_exceptions:
                            registry.merge_state(state)
                            raise value
                        value = TaskFailure(value)
                    results[index] = value
                    states[index] = state
                    spans[index] = task_spans
                    busy_seconds += elapsed
                if expired or not crashed:
                    # Hedge losers (and, on expiry, stragglers) that
                    # never started can be dropped; ones already running
                    # finish harmlessly (pure tasks) and free their
                    # worker.
                    for replicas in futures.values():
                        for future in replicas:
                            future.cancel()
                    if not expired and all(
                        result is not _UNSET for result in results
                    ):
                        break
        finally:
            if not persistent and executor is not None:
                # wait=True: every future is consumed by now, so the join
                # is immediate — and it lets the executor deregister its
                # atexit hook instead of erroring at interpreter exit.
                # On deadline expiry a shed task may still be running;
                # waiting for it would blow the latency bound.
                executor.shutdown(wait=not expired, cancel_futures=True)
        wall = time.perf_counter() - started
        # Merge worker registries in submission order so gauges
        # end up exactly as the serial loop would have left them; graft
        # shipped span trees in the same order, under whatever span this
        # map() is running in (the scatter span at a fan-out site).
        tracer = get_tracer()
        for index, state in enumerate(states):
            if state is not None:
                registry.merge_state(state)
            if spans[index]:
                tracer.graft(spans[index], task=labels[index])
            if results[index] is not _UNSET:
                registry.increment("parallel.tasks")
        if wall > 0:
            registry.observe(
                "parallel.worker_utilization",
                busy_seconds / (self.workers * wall),
            )
        return results

    def _harvest_done(
        self,
        registry: MetricsRegistry,
        futures: Dict[int, List[concurrent.futures.Future]],
        pending: List[int],
        results: List[Any],
        states: List[Any],
        spans: List[Any],
        return_exceptions: bool,
    ) -> float:
        """Consume cleanly-finished futures before a round is torn down.

        One stuck or crashed task must not void its siblings' completed
        work: anything already done with a usable payload keeps its
        result and is excluded from the retry (and, under
        ``crash_policy="return"``, from being reported as failed).
        Returns the harvested tasks' busy seconds.
        """
        busy_seconds = 0.0
        for index in pending:
            if results[index] is not _UNSET:
                continue
            for future in futures.get(index, ()):
                if not future.done() or future.exception() is not None:
                    continue
                value, state, elapsed, failed, task_spans = future.result()
                if failed:
                    if not return_exceptions:
                        registry.merge_state(state)
                        raise value
                    value = TaskFailure(value)
                results[index] = value
                states[index] = state
                spans[index] = task_spans
                busy_seconds += elapsed
                break
        return busy_seconds

    # ------------------------------------------------------------------
    def _make_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
        )

    def _teardown(self, executor, kill: bool) -> None:
        if kill:
            # A timed-out worker will not drain its queue; terminate the
            # processes so shutdown cannot block behind the stuck task.
            for process in list(
                getattr(executor, "_processes", {}).values()
            ):
                process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        return None

    def _record_crash(
        self, registry: MetricsRegistry, label: str, kind: str
    ) -> None:
        registry.increment("parallel.worker_crashes")
        registry.emit("parallel.worker_crash", {"task": label, "kind": kind})

    def _shed_expired(
        self,
        registry: MetricsRegistry,
        results: List[Any],
        labels: List[str],
        pending: List[int],
        deadline_s: Optional[float],
        crash_policy: str,
    ) -> None:
        """Shed still-pending tasks whose caller's deadline has passed.

        Deliberately *not* a crash: no ``parallel.worker_crashes``, no
        retry round, no executor teardown — an unauthenticated client
        picking a tiny deadline must not be able to destroy warm workers
        or trip circuit breakers for everyone else.
        """
        registry.increment("parallel.deadline_shed", len(pending))
        registry.emit(
            "parallel.deadline_shed",
            {"tasks": [labels[index] for index in pending]},
        )
        if crash_policy == "raise":
            shown = [labels[index] for index in pending]
            raise DeadlineExceededError(
                f"deadline expired with {len(pending)} task(s) "
                "unfinished: " + ", ".join(shown[:8])
                + ("..." if len(shown) > 8 else ""),
                deadline_s=deadline_s,
            )
        for index in pending:
            results[index] = TaskFailure(
                DeadlineExceededError(
                    f"task {labels[index]} shed: deadline expired before "
                    "completion",
                    deadline_s=deadline_s,
                )
            )

    def _crash_error(
        self, labels: List[str], pending: List[int], attempts: int
    ) -> None:
        failed = [labels[index] for index in pending]
        raise WorkerCrashError(
            f"worker pool gave up after {attempts} attempts; "
            f"{len(failed)} task(s) never completed: "
            + ", ".join(failed[:8])
            + ("..." if len(failed) > 8 else ""),
            tasks=failed,
            attempts=attempts,
        )
