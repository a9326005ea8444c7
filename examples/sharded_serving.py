"""Sharded serving: scale the query path out, change zero bits.

Demonstrates the scatter-gather serving stack end to end:

1. export two artifact versions (v1 to serve, v2 to hot-swap in),
2. build a :class:`ShardedIndex` and verify the headline guarantee —
   answers are **bitwise identical** to the single-process
   :class:`AlignmentIndex` at every shard count, exact ties included,
3. serve it over HTTP from ``QueryEngine.from_artifact(shards=2)``
   behind a :class:`FrontDoor` (admission control: overload is a 429,
   not a meltdown),
4. hot-swap the artifact while queries are in flight — the old engine
   drains before it closes, so nothing fails mid-swap.

The same stack from the command line:

    python -m repro.cli serve --artifact /tmp/v1 --port 8571 \
        --shards 4 --max-pending 128
    python -m repro.cli reload --url http://127.0.0.1:8571 --artifact /tmp/v2

Run:  python examples/sharded_serving.py
"""

import tempfile
import threading

import numpy as np

from repro.observability import MetricsRegistry
from repro.serving import (
    AlignmentIndex,
    AlignmentServer,
    FrontDoor,
    HTTPClient,
    QueryEngine,
    ShardedIndex,
    export_artifact,
    load_artifact,
    plan_shards,
)

N_SOURCE, N_TARGET, DIMS = 200, 800, (24, 12)
WEIGHTS = [0.6, 0.4]
BLOCK = 128


def make_artifact(seed: int, name: str) -> str:
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((N_SOURCE, d)) for d in DIMS]
    target = [rng.standard_normal((N_TARGET, d)) for d in DIMS]
    out = tempfile.mkdtemp(prefix=f"repro-{name}-")
    export_artifact(out, source, target, WEIGHTS, pair_name=name)
    return out


def main() -> None:
    v1 = make_artifact(seed=1, name="v1")
    v2 = make_artifact(seed=2, name="v2")

    # -- the invariance guarantee, demonstrated ------------------------
    artifact = load_artifact(v1)
    reference = AlignmentIndex.from_artifact(artifact,
                                             target_block_size=BLOCK)
    queries = np.arange(reference.n_source)
    expected = reference.top_k(queries, k=5)
    for shards in (1, 2, 4):
        plan = plan_shards(N_TARGET, shards)
        with ShardedIndex.from_artifact(
            artifact, shards=shards, target_block_size=BLOCK, workers=0
        ) as sharded:
            targets, scores = sharded.top_k(queries, k=5)
            assert np.array_equal(targets, expected[0])
            assert np.array_equal(scores, expected[1])
        print(f"shards={shards}: plan {plan} → bitwise identical")

    # -- front door + HTTP: admission control and hot swap -------------
    registry = MetricsRegistry()

    def build(path: str) -> QueryEngine:
        return QueryEngine.from_artifact(
            load_artifact(path, registry=registry),
            shards=2, workers=0, target_block_size=BLOCK,
            registry=registry,
        )

    front = FrontDoor(build(v1), max_pending=64, builder=build,
                      registry=registry)
    with AlignmentServer(front, registry=registry) as server:
        client = HTTPClient(server.url)
        print(f"\nserving {front.fingerprint[:12]}… at {server.url}")

        stop = threading.Event()

        def hammer() -> None:
            position = 0
            while not stop.is_set():
                client.query(position % N_SOURCE, k=3)
                position += 1

        workers = [threading.Thread(target=hammer) for _ in range(3)]
        for worker in workers:
            worker.start()

        swapped = client.reload(v2)  # hot swap under live traffic
        print(f"hot-swapped to {swapped['fingerprint'][:12]}… "
              "with zero failed queries")

        stop.set()
        for worker in workers:
            worker.join()

        stats = front.stats()["frontdoor"]
        print(f"front door: {stats['max_pending']} max pending, "
              f"{stats['rejected']} rejected, {stats['swaps']} swaps")
    depth = registry.histogram("serving.frontdoor.queue_depth")
    print(f"queries admitted: {registry.counter('serving.frontdoor.admitted').value}, "
          f"peak queue depth: {depth.snapshot()['max']:.0f}")


if __name__ == "__main__":
    main()
