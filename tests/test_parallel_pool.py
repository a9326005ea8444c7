"""Unit tests for repro.parallel: WorkerPool, shared memory, crash paths.

Task functions live at module level so pool workers can unpickle them by
reference.  Everything here keeps workloads tiny — the point is the
scheduler's semantics (ordering, retries, metric merging), not speed.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import AlignmentPair, AttributedGraph
from repro.observability import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    get_tracer,
    use_registry,
    use_tracer,
    validate_chrome_trace,
)
from repro.parallel import (
    WORKERS_ENV_VAR,
    AttachedArrays,
    SharedArrayStore,
    TaskFailure,
    WorkerPool,
    get_task_context,
    load_embeddings,
    load_pair,
    publish_embeddings,
    publish_pair,
    resolve_workers,
)
from repro.resilience import (
    DeadlineExceededError,
    Fault,
    FaultInjector,
    WorkerCrashError,
)


def _square(x):
    return x * x


def _boom(x):
    if x == 2:
        raise ValueError(f"boom {x}")
    return x


def _record_and_square(x):
    from repro.observability import get_registry

    get_registry().increment("test.worker_work", x)
    return x * x


def _context_lookup(index):
    return get_task_context()[index]


def _injected_kill(injector, x):
    # The injector arrives freshly pickled on every (re)submission, so a
    # planned kill re-fires on every retry — a persistent crash.
    injector.at_step(0)
    return x


def _kill_once(marker, x):
    # First attempt drops a marker and dies; the retry finds it and
    # succeeds — a transient crash.
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        FaultInjector([Fault("kill", 0)]).at_step(0)
    return x


def _hard_exit(x):
    if x == 1:
        os._exit(3)
    return x


def _sleep_forever(x):
    time.sleep(60)
    return x


def _slow_kill_once(marker, x):
    # Slow enough to get hedged; the *first* execution (the primary)
    # then dies, leaving the hedge replica to deliver the answer.
    time.sleep(0.3)
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        FaultInjector([Fault("kill", 0)]).at_step(0)
    return x


def _kill_always(x):
    FaultInjector([Fault("kill", 0)]).at_step(0)
    return x


def _mixed_crash(x):
    if x == 1:
        FaultInjector([Fault("kill", 0)]).at_step(0)
    return x


class TestResolveWorkers:
    def test_none_without_env_is_inline(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 0

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(None) == 3

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_workers(-1)

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(0) == 0
        assert resolve_workers(2) == 2

    def test_worker_processes_never_nest(self, monkeypatch):
        from repro.parallel import pool as pool_module

        monkeypatch.setattr(pool_module, "_in_worker", True)
        assert resolve_workers(4) == 0


class TestWorkerPoolBasics:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_results_in_submission_order(self, workers):
        pool = WorkerPool(workers, registry=MetricsRegistry())
        assert pool.map(_square, [(i,) for i in range(7)]) == [
            i * i for i in range(7)
        ]

    def test_empty_tasks(self):
        assert WorkerPool(0, registry=MetricsRegistry()).map(_square, []) == []

    def test_label_count_validated(self):
        pool = WorkerPool(0, registry=MetricsRegistry())
        with pytest.raises(ValueError, match="labels"):
            pool.map(_square, [(1,)], labels=["a", "b"])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0, max_retries=-1)
        with pytest.raises(ValueError):
            WorkerPool(0, task_timeout=0.0)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_context_channel(self, workers):
        # Unpicklable payloads (here: a lambda) reach tasks by index.
        payload = ["alpha", "beta", lambda: "unpicklable"]
        pool = WorkerPool(
            workers, context=payload, registry=MetricsRegistry()
        )
        assert pool.map(_context_lookup, [(0,), (1,)]) == ["alpha", "beta"]
        assert get_task_context() is None  # restored after map()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_exception_propagates(self, workers):
        pool = WorkerPool(workers, registry=MetricsRegistry())
        with pytest.raises(ValueError, match="boom 2"):
            pool.map(_boom, [(i,) for i in range(4)])

    @pytest.mark.parametrize("workers", [0, 2])
    def test_return_exceptions_wraps(self, workers):
        pool = WorkerPool(workers, registry=MetricsRegistry())
        results = pool.map(
            _boom, [(i,) for i in range(4)], return_exceptions=True
        )
        assert results[0] == 0 and results[1] == 1 and results[3] == 3
        assert isinstance(results[2], TaskFailure)
        assert isinstance(results[2].error, ValueError)
        assert "boom" in repr(results[2])


class TestWorkerPoolMetrics:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_task_metrics_recorded(self, workers):
        registry = MetricsRegistry()
        WorkerPool(workers, registry=registry).map(
            _square, [(i,) for i in range(5)]
        )
        assert registry.counter("parallel.tasks").value == 5
        assert registry.histogram("parallel.task_time").count == 5

    def test_worker_registry_state_merged(self):
        registry = MetricsRegistry()
        WorkerPool(2, registry=registry).map(
            _record_and_square, [(i,) for i in range(4)]
        )
        # 0+1+2+3 recorded across worker processes, merged in the parent.
        assert registry.counter("test.worker_work").value == 6

    def test_utilization_observed(self):
        registry = MetricsRegistry()
        WorkerPool(2, registry=registry).map(_square, [(i,) for i in range(4)])
        utilization = registry.gauge("parallel.worker_utilization").last
        assert utilization is not None and 0.0 <= utilization <= 1.0

    def test_inline_uses_process_registry_by_default(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            WorkerPool(0).map(_square, [(1,)])
        assert registry.counter("parallel.tasks").value == 1


class TestCrashHandling:
    def test_simulated_kill_retries_then_named_error(self):
        # A persistent fault: the injector travels to workers by pickle,
        # so a fresh worker re-fires it — the retry budget must run out
        # and surface a *named* error, never a hang.
        registry = MetricsRegistry()
        injector = FaultInjector([Fault("kill", 0)])
        pool = WorkerPool(2, max_retries=2, registry=registry)
        with pytest.raises(WorkerCrashError) as excinfo:
            pool.map(
                _injected_kill,
                [(injector, 1)],
                labels=["faulty-task"],
            )
        assert "faulty-task" in str(excinfo.value)
        assert excinfo.value.tasks == ("faulty-task",)
        assert excinfo.value.attempts == 3  # 1 try + 2 retries
        assert registry.counter("parallel.worker_crashes").value >= 3

    def test_transient_kill_recovers(self, tmp_path):
        # Fault fires once; the retry succeeds and results stay ordered.
        registry = MetricsRegistry()
        marker = str(tmp_path / "fired")
        pool = WorkerPool(2, max_retries=2, registry=registry)
        results = pool.map(_kill_once, [(marker, 7)])
        assert results == [7]
        assert registry.counter("parallel.retries").value >= 1

    def test_worker_death_surfaces_broken_pool(self):
        registry = MetricsRegistry()
        pool = WorkerPool(2, max_retries=1, registry=registry)
        with pytest.raises(WorkerCrashError, match="never completed"):
            pool.map(_hard_exit, [(i,) for i in range(3)])

    def test_timeout_is_a_crash_not_a_hang(self):
        registry = MetricsRegistry()
        pool = WorkerPool(
            1, max_retries=0, task_timeout=0.5, registry=registry
        )
        started = time.perf_counter()
        with pytest.raises(WorkerCrashError):
            pool.map(_sleep_forever, [(1,)])
        assert time.perf_counter() - started < 30.0


class TestSharedMemory:
    def test_roundtrip_and_read_only(self):
        registry = MetricsRegistry()
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        with SharedArrayStore(registry=registry) as store:
            store.put("a", array)
            view = store.get("a")
            np.testing.assert_array_equal(view, array)
            with pytest.raises(ValueError):
                view[0, 0] = 99.0
            with AttachedArrays(store.manifest()) as attached:
                np.testing.assert_array_equal(attached["a"], array)
                with pytest.raises(ValueError):
                    attached["a"][0, 0] = 99.0
        assert registry.counter("parallel.shm_bytes").value == array.nbytes
        assert registry.counter("parallel.shm_arrays").value == 1

    def test_duplicate_name_rejected(self):
        with SharedArrayStore(registry=MetricsRegistry()) as store:
            store.put("a", np.ones(3))
            with pytest.raises(ValueError, match="already published"):
                store.put("a", np.ones(3))

    def test_closed_store_rejects_put(self):
        store = SharedArrayStore(registry=MetricsRegistry())
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.put("a", np.ones(3))

    def test_pair_roundtrip(self):
        rng = np.random.default_rng(5)
        adj = sp.random(9, 9, density=0.3, random_state=5, format="csr")
        adj = ((adj + adj.T) > 0).astype(float)
        pair = AlignmentPair(
            AttributedGraph(adj, rng.standard_normal((9, 4))),
            AttributedGraph(adj, rng.standard_normal((9, 4))),
            {0: 1, 2: 3},
            name="shm-pair",
        )
        with SharedArrayStore(registry=MetricsRegistry()) as store:
            handle = publish_pair(store, pair)
            with AttachedArrays(handle["manifest"]) as arrays:
                loaded = load_pair(handle, arrays)
                assert loaded.name == "shm-pair"
                assert loaded.groundtruth == pair.groundtruth
                np.testing.assert_array_equal(
                    loaded.source.adjacency.toarray(),
                    pair.source.adjacency.toarray(),
                )
                np.testing.assert_array_equal(
                    loaded.target.features, pair.target.features
                )

    def test_embeddings_roundtrip(self):
        rng = np.random.default_rng(6)
        layers = [rng.standard_normal((5, 3)) for _ in range(3)]
        with SharedArrayStore(registry=MetricsRegistry()) as store:
            publish_embeddings(store, "emb", layers)
            with AttachedArrays(store.manifest()) as arrays:
                loaded = load_embeddings(arrays, "emb", 3)
                for original, view in zip(layers, loaded):
                    np.testing.assert_array_equal(view, original)


def _pid(_):
    return os.getpid()


def _sleep_return(seconds):
    time.sleep(seconds)
    return seconds


class TestPersistentPool:
    def test_persistent_executor_reuses_workers(self):
        with WorkerPool(1, registry=MetricsRegistry()) as pool:
            assert pool.persistent
            first = pool.map(_pid, [(0,)])
            second = pool.map(_pid, [(0,)])
            # Same forked worker serves both rounds: the whole point of
            # persistent mode (long-lived serving callers keep their
            # worker-side caches warm).
            assert first == second
        assert not pool.persistent

    def test_non_persistent_pool_forks_per_map(self):
        pool = WorkerPool(1, registry=MetricsRegistry())
        first = pool.map(_pid, [(0,)])
        second = pool.map(_pid, [(0,)])
        assert first != second

    def test_inline_pool_start_is_noop(self):
        with WorkerPool(0, registry=MetricsRegistry()) as pool:
            assert not pool.persistent
            assert pool.map(_square, [(3,)]) == [9]

    def test_close_is_idempotent(self):
        pool = WorkerPool(1, registry=MetricsRegistry()).start()
        pool.close()
        pool.close()
        # A closed persistent pool still works in per-map mode.
        assert pool.map(_square, [(4,)]) == [16]

    def test_crash_recovery_resets_persistent_executor(self, tmp_path):
        marker = str(tmp_path / "crash-marker")
        registry = MetricsRegistry()
        with WorkerPool(1, max_retries=2, registry=registry) as pool:
            assert pool.map(_kill_once, [(marker, 7)]) == [7]
            # The replacement executor keeps serving after the crash.
            assert pool.map(_square, [(5,)]) == [25]
        assert registry.counter("parallel.worker_crashes").value >= 1


class TestHedging:
    def test_slow_task_is_hedged(self):
        registry = MetricsRegistry()
        with WorkerPool(2, registry=registry) as pool:
            results = pool.map(
                _sleep_return, [(0.0,), (0.4,)], hedge_after_s=0.05
            )
        assert results == [0.0, 0.4]
        assert registry.counter("parallel.hedges").value >= 1

    def test_fast_round_does_not_hedge(self):
        registry = MetricsRegistry()
        with WorkerPool(2, registry=registry) as pool:
            results = pool.map(_square, [(2,), (3,)], hedge_after_s=30.0)
        assert results == [4, 9]
        counter = registry.counter("parallel.hedges")
        assert counter.value == 0

    def test_hedging_ignored_inline_and_single_worker(self):
        inline = WorkerPool(0, registry=MetricsRegistry())
        assert inline.map(_square, [(2,)], hedge_after_s=0.0) == [4]
        solo = WorkerPool(1, registry=MetricsRegistry())
        assert solo.map(_square, [(2,)], hedge_after_s=0.0) == [4]


class _FinalizedBlocks:
    """Stands in for store internals after interpreter teardown."""

    def values(self):
        raise AttributeError("module globals were cleared at shutdown")


class TestStoreDestructor:
    def test_del_after_close_is_silent(self):
        store = SharedArrayStore(registry=MetricsRegistry())
        store.put("a", np.ones(3))
        store.close()
        store.__del__()  # explicitly: must never raise

    def test_del_with_finalized_internals_never_raises(self):
        # Regression: __del__ used to call close() unguarded, so GC at
        # interpreter shutdown — when shared_memory internals or the
        # instance's own attributes may already be finalized — printed a
        # spurious traceback on every exit.
        store = SharedArrayStore(registry=MetricsRegistry())
        store.put("a", np.ones(3))
        real_blocks = dict(store._blocks)
        store._blocks = _FinalizedBlocks()
        try:
            store.__del__()
        finally:
            for block in real_blocks.values():
                block.close()
                block.unlink()

    def test_gc_at_exit_emits_no_traceback(self):
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import numpy as np\n"
            "from repro.parallel import SharedArrayStore\n"
            "store = SharedArrayStore()\n"
            "store.put('a', np.ones(4))\n"
            # no close(): the destructor runs during interpreter exit
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert "Traceback" not in result.stderr


class TestHedgeCrashAccounting:
    def test_killed_primary_with_live_hedge_counts_one_crash(self, tmp_path):
        # Regression: a primary that dies *after* its hedge replica was
        # submitted used to both count its crash and trigger a full
        # retry round, re-running (and re-counting) the same logical
        # task.  The crash must be counted exactly once and the hedge's
        # answer must satisfy the task with zero retries.
        registry = MetricsRegistry()
        marker = str(tmp_path / "primary-died")
        with WorkerPool(2, max_retries=2, registry=registry) as pool:
            results = pool.map(
                _slow_kill_once, [(marker, 11)], hedge_after_s=0.05
            )
        assert results == [11]
        assert registry.counter("parallel.hedges").value == 1
        assert registry.counter("parallel.worker_crashes").value == 1
        assert registry.counter("parallel.retries").value == 0

    def test_all_replicas_killed_still_retries(self):
        # When the hedge dies too there is no answer to salvage: the
        # round must retry and eventually surface the named error.
        registry = MetricsRegistry()
        pool = WorkerPool(2, max_retries=1, registry=registry)
        with pytest.raises(WorkerCrashError):
            pool.map(_kill_always, [(1,)], hedge_after_s=0.01)
        assert registry.counter("parallel.retries").value >= 1


class TestCrashPolicyReturn:
    def test_return_policy_yields_task_failures_not_raise(self):
        registry = MetricsRegistry()
        pool = WorkerPool(2, max_retries=1, registry=registry)
        results = pool.map(
            _kill_always, [(1,)], labels=["doomed"],
            crash_policy="return",
        )
        assert len(results) == 1
        assert isinstance(results[0], TaskFailure)
        assert isinstance(results[0].error, WorkerCrashError)
        assert "doomed" in str(results[0].error)

    def test_return_policy_keeps_finished_results(self, tmp_path):
        # One healthy task, one persistently crashing: the survivor's
        # result must come back intact beside the failure.
        registry = MetricsRegistry()
        pool = WorkerPool(2, max_retries=1, registry=registry)
        results = pool.map(
            _mixed_crash, [(0,), (1,)], crash_policy="return",
        )
        assert results[0] == 0
        assert isinstance(results[1], TaskFailure)

    def test_invalid_crash_policy_rejected(self):
        pool = WorkerPool(0, registry=MetricsRegistry())
        with pytest.raises(ValueError, match="crash_policy"):
            pool.map(_square, [(1,)], crash_policy="ignore")


class TestDeadline:
    def test_deadline_sheds_without_crash_or_teardown(self):
        # The review-pinned regression: a caller's deadline expiring must
        # NOT count as a worker crash, must NOT burn retry rounds with
        # fresh windows, and must NOT destroy the persistent executor's
        # warm workers (a client with deadline_ms=1 could otherwise
        # knock the whole tier degraded).
        registry = MetricsRegistry()
        with WorkerPool(2, registry=registry) as pool:
            started = time.perf_counter()
            results = pool.map(
                _sleep_return, [(1.5,)], labels=["slow"],
                deadline_s=time.monotonic() + 0.2,
                return_exceptions=True,
                crash_policy="return",
            )
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0  # one budget, not max_retries budgets
            assert isinstance(results[0], TaskFailure)
            assert isinstance(results[0].error, DeadlineExceededError)
            assert "slow" in str(results[0].error)
            assert registry.counter("parallel.worker_crashes").value == 0
            assert registry.counter("parallel.retries").value == 0
            assert registry.counter("parallel.deadline_shed").value == 1
            # The warm pool survived the expiry and still serves.
            assert pool.persistent
            assert pool.map(_square, [(3,)]) == [9]

    def test_deadline_raise_policy_is_typed(self):
        registry = MetricsRegistry()
        pool = WorkerPool(1, max_retries=2, registry=registry)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="deadline expired"):
            pool.map(
                _sleep_return, [(1.0,)],
                deadline_s=time.monotonic() + 0.1,
            )
        # No retry rounds: the call returns at ~the deadline, not at
        # (max_retries + 1) full windows plus pool rebuilds.
        assert time.perf_counter() - started < 0.9
        assert registry.counter("parallel.worker_crashes").value == 0

    def test_inline_deadline_sheds_unstarted_tasks(self):
        registry = MetricsRegistry()
        pool = WorkerPool(0, registry=registry)
        results = pool.map(
            _sleep_return, [(0.05,), (0.05,), (0.05,)],
            deadline_s=time.monotonic() + 0.02,
            return_exceptions=True,
            crash_policy="return",
        )
        assert results[0] == 0.05  # already running when the clock hit
        for shed in results[1:]:
            assert isinstance(shed, TaskFailure)
            assert isinstance(shed.error, DeadlineExceededError)
        assert registry.counter("parallel.deadline_shed").value == 2

    def test_expired_on_arrival_computes_nothing(self):
        registry = MetricsRegistry()
        pool = WorkerPool(0, registry=registry)
        with pytest.raises(DeadlineExceededError):
            pool.map(_square, [(1,)], deadline_s=time.monotonic() - 0.01)
        assert registry.counter("parallel.tasks").value == 0


class TestTimeoutOverride:
    def test_per_call_timeout_overrides_pool_default(self):
        registry = MetricsRegistry()
        pool = WorkerPool(
            2, max_retries=0, task_timeout=None, registry=registry
        )
        with pytest.raises(WorkerCrashError):
            pool.map(_sleep_forever, [(1,)], timeout_s=0.3)

    def test_invalid_timeout_rejected(self):
        pool = WorkerPool(0, registry=MetricsRegistry())
        with pytest.raises(ValueError, match="timeout_s"):
            pool.map(_square, [(1,)], timeout_s=0.0)


def _traced_double(n):
    with get_tracer().span("worker.task", n=n):
        return n * 2


class TestSpanShipping:
    """Worker spans ship back and graft under the parent's open span."""

    def test_forked_worker_spans_graft_with_pids_and_labels(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with tracer.span("scatter"):
                out = WorkerPool(2).map(
                    _traced_double, [(1,), (2,), (3,)],
                    labels=["a", "b", "c"],
                )
        assert out == [2, 4, 6]
        (scatter,) = [s for s in tracer.spans() if s.name == "scatter"]
        shipped = [s for s in tracer.spans() if s.name == "worker.task"]
        assert len(shipped) == 3
        assert all(s.parent_id == scatter.span_id for s in shipped)
        assert sorted(s.attrs["task"] for s in shipped) == ["a", "b", "c"]
        # Spans crossed a fork: they keep the worker's pid, not ours.
        assert all(s.pid is not None and s.pid != os.getpid()
                   for s in shipped)
        validate_chrome_trace({
            "traceEvents": chrome_trace_events(tracer),
            "displayTimeUnit": "ms",
        })

    def test_inline_workers_record_directly_no_pid(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with tracer.span("scatter"):
                out = WorkerPool(0).map(_traced_double, [(4,)])
        assert out == [8]
        (scatter,) = [s for s in tracer.spans() if s.name == "scatter"]
        (task,) = [s for s in tracer.spans() if s.name == "worker.task"]
        assert task.parent_id == scatter.span_id
        assert task.pid is None  # same process, no graft needed

    def test_disabled_tracer_ships_nothing(self):
        tracer = Tracer(enabled=False)
        with use_tracer(tracer):
            out = WorkerPool(0).map(_traced_double, [(5,)])
        assert out == [10]
        assert len(tracer) == 0
