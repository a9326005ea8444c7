"""Sharded scatter-gather serving: planner, invariance, front door.

The load-bearing property is *bitwise shard invariance*: for any shard
count, :class:`ShardedIndex` answers must equal the single-process
:class:`AlignmentIndex` bit for bit — same targets, same scores, same
tie resolution — because every score is its pair's canonical
``pair_scores`` value and the gather merge uses the index's canonical
order.

The :class:`FrontDoor` tests pin the admission-control taxonomy (429
``OverloadedError`` while full, 503 ``RuntimeError`` once closed) and
the hot-swap drain guarantee: queries in flight on the old engine finish
on it; nothing fails mid-swap.
"""

import threading
import time

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.serving import (
    AlignmentIndex,
    AnnIndex,
    FrontDoor,
    OverloadedError,
    QueryEngine,
    QueryResult,
    ShardedIndex,
    export_artifact,
    load_artifact,
    plan_shards,
    status_for_error,
)

BLOCK = 16


def make_embeddings(seed=0, n_source=40, n_target=97, dims=(8, 4),
                    tie_rows=True, poison_source=None):
    """Random per-layer embeddings, optionally with exact-tie target rows
    (duplicated) and a poisoned (non-finite) source row."""
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((n_source, d)) for d in dims]
    target = [rng.standard_normal((n_target, d)) for d in dims]
    if tie_rows:
        for layer in target:
            # Identical rows score identically against every query —
            # the canonical tie order must break them by ascending id,
            # and shards 10 / 50 / 51 live in different shards at most
            # shard counts.
            layer[50] = layer[10]
            layer[51] = layer[10]
    if poison_source is not None:
        for layer in source:
            layer[poison_source] = np.nan
    return source, target, [0.6, 0.4]


class TestPlanShards:
    def test_partition_covers_all_rows_contiguously(self):
        for n, shards, block in [(97, 4, 16), (64, 2, 16), (100, 3, 7),
                                 (512, 8, 512), (5, 2, 2)]:
            plan = plan_shards(n, shards, block)
            assert plan[0][0] == 0
            assert plan[-1][1] == n
            for (_, stop), (start, _) in zip(plan, plan[1:]):
                assert stop == start

    def test_boundaries_are_block_aligned(self):
        plan = plan_shards(97, 4, 16)
        for start, stop in plan:
            assert start % 16 == 0
            assert stop % 16 == 0 or stop == 97

    def test_shards_clamped_to_block_count(self):
        # 97 rows at block 64 → 2 blocks → at most 2 shards.
        assert len(plan_shards(97, 8, 64)) == 2
        # Full-width block → single shard no matter what was asked.
        assert plan_shards(97, 4, 97) == [(0, 97)]

    def test_block_spread_is_even(self):
        plan = plan_shards(16 * 8, 4, 16)
        sizes = [stop - start for start, stop in plan]
        assert sizes == [32, 32, 32, 32]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_target"):
            plan_shards(0, 2, 16)
        with pytest.raises(ValueError, match="shards"):
            plan_shards(10, 0, 16)
        with pytest.raises(ValueError, match="block_size"):
            plan_shards(10, 2, 0)


class TestBitwiseInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_equals_single_process(self, seed, shards):
        source, target, weights = make_embeddings(seed=seed)
        base = AlignmentIndex(source, target, weights,
                              target_block_size=BLOCK)
        with ShardedIndex(source, target, weights, shards=shards,
                          target_block_size=BLOCK, workers=0) as sharded:
            assert sharded.num_shards == min(
                shards, -(-base.n_target // BLOCK))
            for k in (1, 3, 10, 200):
                expected_t, expected_s = base.top_k(
                    np.arange(base.n_source), k=k)
                actual_t, actual_s = sharded.top_k(
                    np.arange(base.n_source), k=k)
                assert np.array_equal(expected_t, actual_t)
                assert np.array_equal(expected_s, actual_s)

    def test_single_query_padding_matches(self):
        source, target, weights = make_embeddings(seed=3)
        base = AlignmentIndex(source, target, weights,
                              target_block_size=BLOCK)
        with ShardedIndex(source, target, weights, shards=4,
                          target_block_size=BLOCK, workers=0) as sharded:
            expected = base.top_k([7], k=5)
            actual = sharded.top_k([7], k=5)
            assert np.array_equal(expected[0], actual[0])
            assert np.array_equal(expected[1], actual[1])

    def test_exact_ties_resolve_identically(self):
        source, target, weights = make_embeddings(seed=4, tie_rows=True)
        base = AlignmentIndex(source, target, weights,
                              target_block_size=BLOCK)
        with ShardedIndex(source, target, weights, shards=4,
                          target_block_size=BLOCK, workers=0) as sharded:
            # k large enough that the tied trio (10, 50, 51) straddles
            # the k boundary for some query rows.
            for k in (1, 2, 3, 20):
                expected_t, expected_s = base.top_k(
                    np.arange(base.n_source), k=k)
                actual_t, actual_s = sharded.top_k(
                    np.arange(base.n_source), k=k)
                assert np.array_equal(expected_t, actual_t)
                assert np.array_equal(expected_s, actual_s)

    def test_poisoned_rows_sanitize_identically(self):
        source, target, weights = make_embeddings(seed=5, poison_source=6)
        base = AlignmentIndex(source, target, weights,
                              target_block_size=BLOCK)
        with ShardedIndex(source, target, weights, shards=2,
                          target_block_size=BLOCK, workers=0) as sharded:
            expected_t, expected_s = base.top_k([6, 7], k=4)
            actual_t, actual_s = sharded.top_k([6, 7], k=4)
            assert np.array_equal(expected_t, actual_t)
            assert np.array_equal(expected_s, actual_s)
            assert np.all(np.isneginf(actual_s[0]))  # poisoned row

    def test_prune_override_passes_through(self):
        source, target, weights = make_embeddings(seed=6)
        base = AlignmentIndex(source, target, weights,
                              target_block_size=BLOCK)
        with ShardedIndex(source, target, weights, shards=2,
                          target_block_size=BLOCK, workers=0) as sharded:
            expected = base.top_k(np.arange(10), k=3, prune=False)
            actual = sharded.top_k(np.arange(10), k=3, prune=False)
            assert np.array_equal(expected[0], actual[0])
            assert np.array_equal(expected[1], actual[1])


class TestShardedIndexLifecycle:
    def test_validation_mirrors_alignment_index(self):
        source, target, weights = make_embeddings(seed=7)
        with ShardedIndex(source, target, weights, shards=2,
                          target_block_size=BLOCK, workers=0) as sharded:
            with pytest.raises(IndexError, match="out of range"):
                sharded.top_k([999])
            with pytest.raises(ValueError, match="k must be"):
                sharded.top_k([0], k=0)
            with pytest.raises(ValueError, match="non-empty"):
                sharded.top_k(np.empty(0, dtype=np.int64))

    def test_closed_index_rejects_queries(self):
        source, target, weights = make_embeddings(seed=8)
        sharded = ShardedIndex(source, target, weights, shards=2,
                               target_block_size=BLOCK, workers=0)
        sharded.close()
        sharded.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            sharded.top_k([0])

    def test_worker_state_evicted_on_close(self):
        from repro.serving import sharded as sharded_module

        source, target, weights = make_embeddings(seed=9)
        index = ShardedIndex(source, target, weights, shards=2,
                             target_block_size=BLOCK, workers=0)
        index.top_k([0])
        assert index._token in sharded_module._WORKER_STATE
        index.close()
        assert index._token not in sharded_module._WORKER_STATE

    def test_swap_evicts_stale_worker_state(self):
        from repro.serving import sharded as sharded_module

        source, target, weights = make_embeddings(seed=10)
        first = ShardedIndex(source, target, weights, shards=2,
                             target_block_size=BLOCK, workers=0)
        first.top_k([0])
        second = ShardedIndex(source, target, weights, shards=2,
                              target_block_size=BLOCK, workers=0)
        second.top_k([0])
        # Inline workers share this process's state: publishing the new
        # index and querying it must evict the old token (that is what
        # releases the old artifact's memory after a hot swap).
        assert first._token not in sharded_module._WORKER_STATE
        assert second._token in sharded_module._WORKER_STATE
        first.close()
        second.close()

    def test_metrics_populated(self):
        registry = MetricsRegistry()
        source, target, weights = make_embeddings(seed=11)
        with ShardedIndex(source, target, weights, shards=2,
                          target_block_size=BLOCK, workers=0,
                          registry=registry) as sharded:
            sharded.top_k(np.arange(5), k=2)
        names = registry.names("serving.sharded")
        assert "serving.sharded.queries" in names
        assert "serving.sharded.scatters" in names
        assert "serving.sharded.shards" in names


class TestEngineFromArtifact:
    """``QueryEngine.from_artifact`` is the one place an artifact's index
    is chosen; a sharded index serves through the plain engine."""

    def test_engine_answers_match_unsharded_engine(self):
        source, target, weights = make_embeddings(seed=12)
        plain = QueryEngine(
            AlignmentIndex(source, target, weights,
                           target_block_size=BLOCK),
            fingerprint="fp", max_delay_ms=0.5,
        )
        sharded = QueryEngine(
            ShardedIndex(source, target, weights, shards=2,
                         target_block_size=BLOCK, workers=0),
            fingerprint="fp", max_delay_ms=0.5,
        )
        with plain, sharded:
            for src in (0, 5, 11):
                a = plain.query(src, k=4)
                b = sharded.query(src, k=4)
                assert a.targets == b.targets
                assert a.scores == b.scores
            many_a = plain.query_many([(1, 2), (2, 3), (3, 1)])
            many_b = sharded.query_many([(1, 2), (2, 3), (3, 1)])
            for ra, rb in zip(many_a, many_b):
                assert ra.targets == rb.targets
                assert ra.scores == rb.scores

    def test_picks_the_index_for_the_artifact(self, tmp_path):
        source, target, weights = make_embeddings(seed=15, tie_rows=False)
        plain = str(tmp_path / "plain")
        export_artifact(plain, source, target, weights, pair_name="plain")
        ann = str(tmp_path / "ann")
        export_artifact(ann, source, target, weights, pair_name="ann",
                        ann_clusters=4)
        for path, shards, kind in [
            (plain, 1, AlignmentIndex), (ann, 1, AnnIndex),
            (plain, 2, ShardedIndex), (ann, 2, ShardedIndex),
        ]:
            registry = MetricsRegistry()
            engine = QueryEngine.from_artifact(
                load_artifact(path), shards=shards, workers=0,
                target_block_size=BLOCK, registry=registry,
            )
            with engine:
                assert type(engine.index) is kind
                supports_ann = getattr(engine.index, "supports_ann", False)
                assert supports_ann == (path == ann)
                engine.query(0, k=3)
            # Unsharded engines never publish into shared memory.
            shm_bytes = registry.counter("parallel.shm_bytes").value
            assert (shm_bytes > 0) == (shards > 1)

    def test_close_closes_sharded_index(self, tmp_path):
        source, target, weights = make_embeddings(seed=13)
        path = str(tmp_path / "artifact")
        export_artifact(path, source, target, weights, pair_name="close")
        engine = QueryEngine.from_artifact(
            load_artifact(path), shards=2, workers=0,
            target_block_size=BLOCK,
        )
        index = engine.index
        engine.start()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            index.top_k([0])

    def test_from_artifact(self, tmp_path):
        source, target, weights = make_embeddings(seed=14, tie_rows=False)
        path = str(tmp_path / "artifact")
        export_artifact(path, source, target, weights, pair_name="shard")
        artifact = load_artifact(path)
        engine = QueryEngine.from_artifact(
            artifact, shards=2, workers=0, target_block_size=BLOCK,
        )
        with engine:
            result = engine.query(0, k=3)
            assert len(result.targets) == 3
        assert engine.fingerprint == artifact.fingerprint


# ----------------------------------------------------------------------
# Front door: admission control + hot swap
# ----------------------------------------------------------------------
class _StubEngine:
    """Controllable engine: optionally blocks queries on an event."""

    def __init__(self, name, blocking=False):
        self.fingerprint = name
        self.blocking = blocking
        self.release = threading.Event()
        self.closed = False
        self.queries = 0

    class index:  # noqa: N801 (mimics engine.index attribute access)
        n_source = 100
        n_target = 100

    def start(self):
        return self

    def close(self):
        self.closed = True
        self.release.set()

    def stats(self):
        return {"fingerprint": self.fingerprint, "queries": self.queries}

    def query(self, source, k=1, deadline_s=None, mode=None,
              nprobe=None, request_id=None):
        if self.closed:
            raise RuntimeError("engine is closed")
        if self.blocking:
            assert self.release.wait(timeout=10.0)
        self.queries += 1
        return QueryResult(source=int(source), k=int(k), targets=(0,),
                           scores=(1.0,), aligned=True, cached=False,
                           latency_s=0.0)

    def query_many(self, queries, deadline_s=None, mode=None,
                   nprobe=None, request_id=None):
        return [self.query(source, k) for source, k in queries]


class TestFrontDoorAdmission:
    def test_overload_rejects_with_429_taxonomy(self):
        registry = MetricsRegistry()
        engine = _StubEngine("fp1", blocking=True)
        front = FrontDoor(engine, max_pending=2, registry=registry)
        started = threading.Barrier(3)
        results = []

        def blocked_query():
            started.wait(timeout=5.0)
            results.append(front.query(1))

        threads = [threading.Thread(target=blocked_query) for _ in range(2)]
        for thread in threads:
            thread.start()
        started.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while front.stats()["frontdoor"]["pending"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(OverloadedError) as excinfo:
            front.query(3)
        assert status_for_error(excinfo.value) == 429
        engine.release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(results) == 2
        assert registry.counter("serving.frontdoor.rejected").value == 1
        # Back under the bound: admitted again.
        assert front.query(4).aligned

    def test_query_many_weight_counts_batch_size(self):
        engine = _StubEngine("fp1", blocking=True)
        front = FrontDoor(engine, max_pending=3)
        worker = threading.Thread(
            target=lambda: front.query_many([(1, 1), (2, 1)])
        )
        worker.start()
        deadline = time.monotonic() + 5.0
        while front.stats()["frontdoor"]["pending"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # 2 in flight + a 2-query batch would exceed max_pending=3.
        with pytest.raises(OverloadedError):
            front.query_many([(3, 1), (4, 1)])
        # A single query still fits.
        engine.release.set()
        worker.join(timeout=5.0)
        assert front.query(5).aligned

    def test_closed_front_door_is_503_not_429(self):
        front = FrontDoor(_StubEngine("fp1"), max_pending=2)
        front.close()
        with pytest.raises(RuntimeError) as excinfo:
            front.query(0)
        assert not isinstance(excinfo.value, OverloadedError)
        assert status_for_error(excinfo.value) == 503

    def test_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            FrontDoor(_StubEngine("fp"), max_pending=0)
        with pytest.raises(ValueError, match="drain_timeout"):
            FrontDoor(_StubEngine("fp"), drain_timeout_s=0)


class TestFrontDoorReload:
    def test_swap_flips_fingerprint_and_closes_old(self):
        old = _StubEngine("fp-old")
        new = _StubEngine("fp-new")
        front = FrontDoor(old, builder=lambda path: new).start()
        assert front.fingerprint == "fp-old"
        assert front.reload("/new/artifact") == "fp-new"
        assert front.fingerprint == "fp-new"
        assert old.closed
        assert not new.closed
        assert front.query(1).aligned
        assert front.stats()["frontdoor"]["swaps"] == 1

    def test_inflight_query_finishes_on_old_engine(self):
        old = _StubEngine("fp-old", blocking=True)
        new = _StubEngine("fp-new")
        front = FrontDoor(old, builder=lambda path: new,
                          drain_timeout_s=10.0).start()
        answers = []
        worker = threading.Thread(
            target=lambda: answers.append(front.query(2))
        )
        worker.start()
        deadline = time.monotonic() + 5.0
        while front.stats()["frontdoor"]["pending"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)

        swap_done = threading.Event()

        def swap():
            front.reload("/new/artifact")
            swap_done.set()

        swapper = threading.Thread(target=swap)
        swapper.start()
        # The reload drains: it must not close the old engine (which
        # would fail the in-flight query) while the query is pending.
        time.sleep(0.2)
        assert not old.closed
        old.release.set()
        worker.join(timeout=5.0)
        swapper.join(timeout=5.0)
        assert swap_done.is_set()
        assert len(answers) == 1 and answers[0].aligned
        assert old.closed
        assert front.fingerprint == "fp-new"

    def test_failed_build_leaves_old_engine_serving(self):
        old = _StubEngine("fp-old")

        def bad_builder(path):
            raise ValueError(f"artifact {path!r} is broken")

        front = FrontDoor(old, builder=bad_builder).start()
        with pytest.raises(ValueError, match="broken"):
            front.reload("/bad")
        assert not old.closed
        assert front.fingerprint == "fp-old"
        assert front.query(1).aligned

    def test_concurrent_reload_rejected_as_overload(self):
        old = _StubEngine("fp-old")
        building = threading.Event()
        finish = threading.Event()

        def slow_builder(path):
            building.set()
            assert finish.wait(timeout=10.0)
            return _StubEngine("fp-new")

        front = FrontDoor(old, builder=slow_builder).start()
        worker = threading.Thread(target=lambda: front.reload("/a"))
        worker.start()
        assert building.wait(timeout=5.0)
        with pytest.raises(OverloadedError, match="reload"):
            front.reload("/b")
        finish.set()
        worker.join(timeout=5.0)
        assert front.fingerprint == "fp-new"

    def test_reload_without_builder_is_client_error(self):
        front = FrontDoor(_StubEngine("fp")).start()
        with pytest.raises(ValueError, match="builder"):
            front.reload("/x")
        assert status_for_error(ValueError("x")) == 400

    def test_queries_never_fail_across_repeated_swaps(self):
        """Sustained queries + repeated hot swaps: zero failures."""
        engines = [_StubEngine(f"fp{i}") for i in range(6)]
        serial = iter(engines[1:])
        front = FrontDoor(
            engines[0], max_pending=64,
            builder=lambda path: next(serial),
        ).start()
        stop = threading.Event()
        failures = []
        answered = [0]

        def hammer():
            while not stop.is_set():
                try:
                    front.query(1)
                    answered[0] += 1
                except Exception as error:  # pragma: no cover - must not happen
                    failures.append(error)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(5):
            time.sleep(0.02)
            front.reload("/next")
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not failures
        assert answered[0] > 0
        assert front.stats()["frontdoor"]["swaps"] == 5
        assert front.fingerprint == "fp5"
        assert all(engine.closed for engine in engines[:5])


class TestReloadBackoff:
    """Crash-loop protection: failed swaps arm an exponential backoff."""

    def _front(self, builder, **kwargs):
        kwargs.setdefault("reload_backoff_s", 0.05)
        kwargs.setdefault("reload_backoff_factor", 2.0)
        registry = kwargs.pop("registry", MetricsRegistry())
        front = FrontDoor(
            _StubEngine("fp-old"), builder=builder,
            registry=registry, **kwargs,
        ).start()
        return front, registry

    def test_three_failed_swaps_old_engine_keeps_serving(self):
        builds = []

        def doomed_builder(path):
            builds.append(path)
            raise ValueError(f"artifact {path} is corrupt")

        front, registry = self._front(doomed_builder)
        for attempt in range(3):
            with pytest.raises(ValueError, match="corrupt"):
                front.reload(f"/bad-{attempt}")
            # Old engine untouched and still answering.
            assert front.fingerprint == "fp-old"
            assert front.query(1).targets == (0,)
            # The very next attempt inside the window is rejected up
            # front -- the builder is not even invoked.
            with pytest.raises(OverloadedError, match="backing off"):
                front.reload("/bad-again")
            # Wait out the window (0.05 * 2**attempt, small on purpose).
            time.sleep(0.05 * (2 ** attempt) + 0.05)
        assert builds == ["/bad-0", "/bad-1", "/bad-2"]
        assert front.stats()["frontdoor"]["reload_failures"] == 3
        failures = registry.counter("serving.frontdoor.reload_failures")
        rejected = registry.counter("serving.frontdoor.reload_rejected")
        assert failures.value == 3
        assert rejected.value == 3
        front.close()

    def test_backoff_rejection_carries_retry_after(self):
        def doomed_builder(path):
            raise RuntimeError("no good")

        front, _ = self._front(doomed_builder, reload_backoff_s=5.0)
        with pytest.raises(RuntimeError, match="no good"):
            front.reload("/bad")
        with pytest.raises(OverloadedError) as excinfo:
            front.reload("/bad")
        assert status_for_error(excinfo.value) == 429
        assert 0.0 < excinfo.value.retry_after_s <= 5.0
        health = front.health()
        assert health["healthy"]
        assert not health["ready"]          # backing off => not ready
        assert health["reload_backoff_s"] > 0.0
        front.close()

    def test_successful_swap_resets_the_window(self):
        state = {"fail": True}

        def flaky_builder(path):
            if state["fail"]:
                raise RuntimeError("transient")
            return _StubEngine("fp-new")

        front, registry = self._front(flaky_builder)
        with pytest.raises(RuntimeError, match="transient"):
            front.reload("/a")
        time.sleep(0.11)
        state["fail"] = False
        assert front.reload("/a") == "fp-new"
        assert front.fingerprint == "fp-new"
        health = front.health()
        assert health["ready"]
        assert health["reload_backoff_s"] == 0.0
        # The consecutive-failure streak is gone: a later failure backs
        # off from the base window again, not a doubled one.
        state["fail"] = True
        with pytest.raises(RuntimeError, match="transient"):
            front.reload("/b")
        time.sleep(0.06)
        with pytest.raises(RuntimeError, match="transient"):
            front.reload("/b")
        assert front.stats()["frontdoor"]["reload_failures"] == 3
        front.close()
