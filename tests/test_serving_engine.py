"""Tests for the microbatched, cached QueryEngine and its LRU cache."""

import copy
import dataclasses
import gc
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import MetricsRegistry, SlowQueryLog
from repro.serving import (
    AlignmentIndex, QueryEngine, QueryResult, StripedLRUCache,
)


def make_index(seed=0, n_source=30, n_target=80, dims=(8, 4),
               registry=None, **kwargs):
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((n_source, d)) for d in dims]
    target = [rng.standard_normal((n_target, d)) for d in dims]
    kwargs.setdefault("target_block_size", 32)
    return AlignmentIndex(source, target, [0.5, 0.5], registry=registry,
                          **kwargs)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def engine(registry):
    with QueryEngine(make_index(registry=registry), fingerprint="fp0",
                     max_delay_ms=1.0, registry=registry) as engine:
        yield engine


class TestStripedLRUCache:
    def test_put_get(self, registry):
        cache = StripedLRUCache(8, stripes=2, registry=registry)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert registry.get("serving.cache.hits").value == 1
        assert registry.get("serving.cache.misses").value == 1

    def test_lru_eviction_order(self, registry):
        cache = StripedLRUCache(2, stripes=1, registry=registry)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a" → "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert registry.get("serving.cache.evictions").value == 1

    def test_capacity_bound(self, registry):
        cache = StripedLRUCache(10, stripes=4, registry=registry)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) <= 10
        assert registry.get("serving.cache.evictions").value >= 90

    def test_capacity_never_overshoots(self, registry):
        # Regression: the per-stripe limit used to be ceil(capacity /
        # stripes), so capacity=9 over 8 stripes retained up to 16
        # entries — total residency must respect the documented bound.
        cache = StripedLRUCache(9, stripes=8, registry=registry)
        for i in range(200):
            cache.put(i, i)
        assert len(cache) <= 9

    def test_capacity_bound_under_concurrent_fill(self, registry):
        cache = StripedLRUCache(9, stripes=8, registry=registry)
        observed = []

        def filler(offset):
            for i in range(300):
                cache.put((offset, i), i)
                if i % 25 == 0:
                    observed.append(len(cache))

        threads = [threading.Thread(target=filler, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 9
        assert max(observed) <= 9

    def test_more_stripes_than_capacity(self, registry):
        # Stripes are clamped to capacity, so no stripe gets a zero
        # limit that would make every put a self-eviction *and* none
        # exceeds the bound.
        cache = StripedLRUCache(2, stripes=16, registry=registry)
        for i in range(50):
            cache.put(i, i)
        assert 1 <= len(cache) <= 2

    def test_zero_capacity_disables(self, registry):
        cache = StripedLRUCache(0, registry=registry)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear(self):
        cache = StripedLRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(0, 6),
        stripes=st.integers(1, 4),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(0, 9), max_size=6),
            ),
            max_size=12,
        ),
    )
    def test_batch_calls_match_single_calls(self, capacity, stripes, ops):
        batched, single = MetricsRegistry(), MetricsRegistry()
        a = StripedLRUCache(capacity, stripes=stripes, registry=batched)
        b = StripedLRUCache(capacity, stripes=stripes, registry=single)
        for step, (is_put, keys) in enumerate(ops):
            if is_put:
                items = [(key, (step, key)) for key in keys]
                a.put_many(items)
                for key, value in items:
                    b.put(key, value)
            else:
                assert a.get_many(keys) == [b.get(key) for key in keys]
            # Same residency, in the same LRU order, stripe by stripe.
            assert [list(entries.items()) for _, entries in a._stripes] == [
                list(entries.items()) for _, entries in b._stripes
            ]
        for name in ("hits", "misses", "evictions"):
            counter = f"serving.cache.{name}"
            assert (counter in batched) == (counter in single)
            if counter in batched:
                assert (
                    batched.get(counter).value == single.get(counter).value
                )

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            StripedLRUCache(-1)
        with pytest.raises(ValueError, match="stripes"):
            StripedLRUCache(4, stripes=0)


class TestQuery:
    def test_result_matches_index(self, engine):
        result = engine.query(3, k=4)
        targets, scores = engine.index.top_k(3, k=4)
        assert result.source == 3
        assert result.k == 4
        assert result.aligned and not result.cached
        assert list(result.targets) == list(targets[0])
        assert list(result.scores) == list(scores[0])

    def test_second_query_is_cached_and_identical(self, engine):
        first = engine.query(7, k=2)
        second = engine.query(7, k=2)
        assert not first.cached and second.cached
        assert first.targets == second.targets
        assert first.scores == second.scores

    def test_payload_shape(self, engine):
        payload = engine.query(0, k=1).payload()
        assert set(payload) == {"source", "k", "targets", "scores",
                                "aligned", "cached", "latency_ms",
                                "degraded", "coverage", "shards_down",
                                "request_id"}
        assert payload["request_id"]
        assert payload["degraded"] is False
        assert payload["coverage"] == 1.0
        assert payload["shards_down"] == []
        assert payload["latency_ms"] >= 0.0

    def test_k_clamped(self, engine):
        result = engine.query(0, k=10_000)
        assert result.k == engine.index.n_target
        assert len(result.targets) == engine.index.n_target

    def test_validation(self, engine):
        with pytest.raises(IndexError, match="out of range"):
            engine.query(-1)
        with pytest.raises(IndexError, match="out of range"):
            engine.query(10_000)
        with pytest.raises(ValueError, match="k must be"):
            engine.query(0, k=0)

    @pytest.mark.parametrize("source, k, bad", [
        (1, 2.7, "k"), ("3", 1, "source"), (True, 1, "source"),
        (1.0, 1, "source"), (1, True, "k"), (1, "2", "k"),
    ])
    def test_rejects_non_integer_ids(self, engine, source, k, bad):
        # Regression: int() coerced these to source 1 / 3 or k=2.
        with pytest.raises(ValueError, match=f"{bad} must be an integer"):
            engine.query(source, k=k)
        with pytest.raises(ValueError, match=f"{bad} must be an integer"):
            engine.query_many([(0, 1), (source, k)])

    def test_accepts_numpy_integers(self, engine):
        result = engine.query(np.int32(4), k=np.uint8(3))
        assert type(result.source) is int and type(result.k) is int
        assert result.targets == engine.query(4, k=3).targets

    def test_cache_disabled(self, registry):
        with QueryEngine(make_index(registry=registry), cache_size=0,
                         max_delay_ms=0.0, registry=registry) as engine:
            assert not engine.query(1).cached
            assert not engine.query(1).cached


class TestQueryMany:
    def test_matches_individual_queries(self, engine):
        queries = [(0, 1), (5, 3), (9, 2), (5, 3)]
        results = engine.query_many(queries)
        assert len(results) == 4
        for (source, k), result in zip(queries, results):
            targets, scores = engine.index.top_k(source, k=k)
            assert result.source == source
            assert list(result.targets) == list(targets[0])
            assert list(result.scores) == list(scores[0])
        # duplicates inside one call are both scored (cache lookups all
        # happen up front), but identical — and a later call is a hit
        assert results[1].targets == results[3].targets
        assert results[1].scores == results[3].scores
        assert engine.query_many([(5, 3)])[0].cached

    def test_mixed_k_in_one_batch(self, engine):
        results = engine.query_many([(1, 1), (2, 5), (3, 8)])
        assert [len(r.targets) for r in results] == [1, 5, 8]

    def test_answers_match_single_queries(self, registry):
        # Mixed k, duplicates and cache hits: each batched answer carries
        # what query() would answer, apart from latency and cache state.
        queries = [(0, 1), (5, 3), (9, 2), (5, 3), (2, 80), (7, 4)]
        with QueryEngine(make_index(registry=registry), batch_size=4,
                         max_delay_ms=0.0, registry=registry) as engine:
            engine.query(7, k=4)  # a hit for the batch below
            batched = engine.query_many(queries, request_id="r0")
        with QueryEngine(make_index(registry=registry), cache_size=0,
                         max_delay_ms=0.0, registry=registry) as engine:
            single = [
                engine.query(source, k, request_id="r0")
                for source, k in queries
            ]
        assert [r.cached for r in batched] == [
            False, False, False, False, False, True,
        ]

        def comparable(result):
            payload = result.payload()
            del payload["latency_ms"], payload["cached"]
            return payload

        assert [comparable(r) for r in batched] == [
            comparable(r) for r in single
        ]

    def test_a_chunk_shares_its_latency(self, registry):
        with QueryEngine(make_index(registry=registry), batch_size=4,
                         registry=registry) as engine:
            results = engine.query_many([(i, 2) for i in range(10)])
        chunks = [results[:4], results[4:8], results[8:]]
        for chunk in chunks:
            assert len({id(r.latency_s) for r in chunk}) == 1
        latencies = [chunk[0].latency_s for chunk in chunks]
        assert latencies == sorted(latencies)
        histogram = registry.get("serving.query_latency")
        assert histogram.count == 10
        assert registry.get("serving.queries").value == 10

    def test_chunks_large_batches(self, registry):
        with QueryEngine(make_index(registry=registry), batch_size=4,
                         registry=registry) as engine:
            results = engine.query_many([(i, 1) for i in range(10)])
        assert len(results) == 10
        assert registry.get("serving.batches").value == 3  # 4 + 4 + 2


class TestMicrobatching:
    def test_concurrent_queries_coalesce(self, registry):
        # 4 threads release together; the worker waits up to 500 ms for a
        # full batch of 4, so all land in one index call.
        with QueryEngine(make_index(registry=registry), batch_size=4,
                         max_delay_ms=500.0, registry=registry) as engine:
            barrier = threading.Barrier(4)
            results = [None] * 4
            errors = []

            def worker(position):
                try:
                    barrier.wait()
                    results[position] = engine.query(position, k=2)
                except Exception as error:  # pragma: no cover - fail loudly
                    errors.append(error)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert registry.get("serving.batches").value == 1
            batch_size = registry.get("serving.batch.size")
            assert batch_size.count == 1 and batch_size.maximum == 4
            for position, result in enumerate(results):
                targets, scores = engine.index.top_k(position, k=2)
                assert list(result.targets) == list(targets[0])
                assert list(result.scores) == list(scores[0])

    def test_worker_error_delivered_and_engine_survives(self, engine):
        original = engine.index.top_k

        def explode(*args, **kwargs):
            raise ValueError("injected scoring failure")

        engine.index.top_k = explode
        try:
            with pytest.raises(ValueError, match="injected"):
                engine.query(2)
        finally:
            engine.index.top_k = original
        # the scorer thread survived the failure
        assert engine.query(2).aligned


class TestUnaligned:
    def test_sanitized_row_surfaces_as_unaligned(self, registry):
        rng = np.random.default_rng(1)
        source = [rng.standard_normal((5, 6))]
        source[0][2] = np.nan
        target = [rng.standard_normal((11, 6))]
        index = AlignmentIndex(source, target, [1.0], target_block_size=4,
                               registry=registry)
        with QueryEngine(index, max_delay_ms=0.0,
                         registry=registry) as engine:
            result = engine.query(2, k=3)
            assert not result.aligned
            assert result.targets == ()
            assert result.scores == ()
            assert engine.query(0, k=3).aligned
        assert registry.get("serving.unaligned").value == 1


class PaddedIndex:
    """An index whose rows end in ``(-1, -inf)`` pads, as a degraded or
    short answer does."""

    n_source, n_target = 4, 6

    def top_k(self, sources, k):
        targets = np.full((len(sources), k), -1, dtype=np.int64)
        scores = np.full((len(sources), k), -np.inf)
        targets[:, 0], scores[:, 0] = 2, 0.5
        targets[1:, 1], scores[1:, 1] = 5, 0.25
        return targets, scores


class TestAnswerMemory:
    def test_held_answers_share_their_target_ids(self, registry):
        # Every query_many answer is held: a fresh int per target id
        # per answer cost ~1,000 B per answer; the shared ids ~700 B,
        # and a slotted QueryResult (no __dict__) ~645 B.
        rng = np.random.default_rng(3)
        index = AlignmentIndex(
            [rng.standard_normal((2000, 8))],
            [rng.standard_normal((5000, 8))], [1.0], registry=registry,
        )
        queries = [(source, 10) for source in range(2000)]
        with QueryEngine(index, batch_size=256, cache_size=0,
                         registry=registry) as engine:
            engine.query_many(queries[:300])
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                held = engine.query_many(queries)
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert all(len(result.targets) == 10 for result in held)
            assert (after - before) / len(held) <= 680
            shared = engine._target_ids
            assert all(
                target is shared[target]
                for result in held for target in result.targets
            )

    def test_pads_never_map_to_a_target_id(self, registry):
        # A -1 pad indexing the shared ids would wrap to the last target.
        with QueryEngine(PaddedIndex(), cache_size=0,
                         registry=registry) as engine:
            first, second = engine.query_many([(0, 4), (1, 4)])
            assert first.targets == (2,) and first.scores == (0.5,)
            assert second.targets == (2, 5)
            assert second.scores == (0.5, 0.25)
            assert engine.query(3, k=6).targets == (2,)


class CountingSlowLog(SlowQueryLog):
    """A slow-query log that counts the descriptors built for it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built = 0

    def observe(self, *, descriptor, **kwargs):
        if callable(descriptor):
            def descriptor(build=descriptor):
                self.built += 1
                return build()
        else:
            self.built += 1  # a dict was built before the call
        return super().observe(descriptor=descriptor, **kwargs)


class DegradedIndex:
    """An index whose every answer comes back degraded."""

    def __init__(self, inner):
        self.inner = inner
        self.n_source, self.n_target = inner.n_source, inner.n_target

    def top_k_ex(self, sources, k, **_):
        targets, scores = self.inner.top_k(sources, k)
        meta = {"degraded": True, "coverage": 0.5, "shards_down": (1,)}
        return targets, scores, meta


class TestSlowLogDescriptor:
    def run(self, index, threshold_s, registry):
        with QueryEngine(index, fingerprint="fp0", max_delay_ms=0.0,
                         registry=registry) as engine:
            engine.slow_queries = CountingSlowLog(threshold_s=threshold_s)
            engine.query(0, k=2)
            engine.query(0, k=2)  # a cache hit when healthy
            engine.query_many([(1, 2), (2, 3)])
            return engine.slow_queries

    def test_fast_healthy_queries_build_no_descriptor(self, registry):
        log = self.run(make_index(registry=registry), 60.0, registry)
        assert log.built == 0 and log.total == 0

    def test_slow_queries_still_log_their_descriptor(self, registry):
        log = self.run(make_index(registry=registry), 0.0, registry)
        assert log.built == log.total == 4
        descriptors = [entry["descriptor"] for entry in log.recent(10)]
        assert {d["source"] for d in descriptors} == {0, 1, 2}
        assert all(d["fingerprint"] == "fp0" for d in descriptors)
        assert sum(d["cached"] for d in descriptors) == 1

    def test_zero_threshold_audits_every_answer_once(self, registry):
        with QueryEngine(make_index(registry=registry), batch_size=3,
                         max_delay_ms=0.0, registry=registry) as engine:
            engine.slow_queries = CountingSlowLog(threshold_s=0.0, keep=64)
            engine.query(4, k=2)
            queries = [(source, 2) for source in range(8)]
            engine.query_many(queries)  # source 4 is a cache hit
        log = engine.slow_queries
        assert log.built == log.total == 9
        assert registry.get("serving.slow_queries").value == 9
        audited = sorted(
            entry["descriptor"]["source"] for entry in log.recent(64)
        )
        assert audited == [0, 1, 2, 3, 4, 4, 5, 6, 7]

    def test_degraded_queries_still_log_their_descriptor(self, registry):
        index = DegradedIndex(make_index(registry=registry))
        log = self.run(index, 60.0, registry)
        assert log.built == log.total == 4
        assert all(entry["degraded"] for entry in log.recent(10))


class TestLifecycle:
    def test_close_rejects_new_queries(self, registry):
        engine = QueryEngine(make_index(registry=registry),
                             registry=registry).start()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.query(0)
        engine.close()  # idempotent

    def test_context_manager(self, registry):
        with QueryEngine(make_index(registry=registry),
                         registry=registry) as engine:
            assert engine.query(0).aligned
        with pytest.raises(RuntimeError):
            engine.query(0)

    def test_validation(self, registry):
        index = make_index(registry=registry)
        with pytest.raises(ValueError, match="batch_size"):
            QueryEngine(index, batch_size=0)
        with pytest.raises(ValueError, match="max_delay_ms"):
            QueryEngine(index, max_delay_ms=-1.0)


class TestStats:
    def test_stats_shape_and_hit_rate(self, engine, registry):
        engine.query(0, k=1)
        engine.query(0, k=1)
        stats = engine.stats()
        assert stats["fingerprint"] == "fp0"
        assert stats["n_source"] == engine.index.n_source
        assert stats["queries"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hit_rate"] == 0.5
        assert stats["latency_ms"]["count"] == 2
        assert "serving.query_latency_cached" in registry.names("serving")
        assert "serving.query_latency_uncached" in registry.names("serving")


class TestQueryResult:
    RESULT = QueryResult(
        source=3, k=2, targets=(5, 1), scores=(0.5, 0.25), aligned=True,
        cached=False, latency_s=0.002, degraded=True, coverage=0.5,
        shards_down=(1,), request_id="r1",
    )

    def test_slotted_with_the_same_payload(self):
        assert not hasattr(self.RESULT, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.RESULT.k = 3
        assert self.RESULT.payload() == {
            "source": 3, "k": 2, "targets": [5, 1], "scores": [0.5, 0.25],
            "aligned": True, "cached": False, "latency_ms": 2.0,
            "degraded": True, "coverage": 0.5, "shards_down": [1],
            "request_id": "r1",
        }

    def test_pickle_and_deepcopy_round_trip(self):
        copies = [copy.deepcopy(self.RESULT)] + [
            pickle.loads(pickle.dumps(self.RESULT, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for result in copies:
            assert result == self.RESULT and result is not self.RESULT
            assert result.payload() == self.RESULT.payload()
