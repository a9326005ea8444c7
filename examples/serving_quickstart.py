"""Serving quickstart: train once, export an artifact, query forever.

Demonstrates the full serving lifecycle in one process:

1. train GAlign on a small alignment task (the offline step),
2. export the multi-order embeddings + layer weights as a versioned,
   memory-mapped ``repro.artifact/v1`` directory,
3. stand up the stdlib JSON HTTP server over the artifact,
4. query it — over HTTP and in-process — and read the ``serving.*``
   operational stats (query count, cache hit rate, latency).

The same artifact works from the command line:

    python -m repro.cli export-artifact --pair /tmp/pair --out /tmp/artifact
    python -m repro.cli serve --artifact /tmp/artifact --port 8571
    python -m repro.cli query --url http://127.0.0.1:8571 --source 3 --k 5

Run:  python examples/serving_quickstart.py
"""

import tempfile

import numpy as np

from repro.core import GAlignConfig, GAlignTrainer
from repro.graphs import generators, noisy_copy_pair
from repro.observability import MetricsRegistry
from repro.serving import (
    AlignmentServer,
    HTTPClient,
    InProcessClient,
    QueryEngine,
    export_artifact,
    load_artifact,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. Offline: train on a noisy-copy task (the paper's protocol).
    graph = generators.barabasi_albert(
        120, m=2, rng=rng, feature_dim=12, feature_kind="degree"
    )
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    config = GAlignConfig(epochs=30, embedding_dim=32, seed=0)
    model, _ = GAlignTrainer(config, rng).train(pair)
    print(f"trained on {pair}")

    # 2. Freeze the embeddings into an artifact directory.
    out = tempfile.mkdtemp(prefix="repro-artifact-")
    export_artifact(
        out,
        model.embed(pair.source),
        model.embed(pair.target),
        config.resolved_layer_weights(),
        config=config,
        pair_name=pair.name,
    )
    artifact = load_artifact(out)  # memory-mapped by default
    print(f"exported {artifact}")

    # 3. Online: engine (exact index + microbatching + LRU cache) + server.
    registry = MetricsRegistry()
    engine = QueryEngine.from_artifact(
        artifact, target_block_size=64, batch_size=16, cache_size=1024,
        registry=registry,
    )
    with AlignmentServer(engine, registry=registry) as server:
        print(f"serving at {server.url}")

        # 4a. Over HTTP, exactly like an external caller would.
        client = HTTPClient(server.url)
        print(f"healthz: {client.healthz()}")
        for source in (0, 17, 42):
            payload = client.query(source, k=3)
            best = payload["targets"][0]
            truth = pair.groundtruth.get(source)
            mark = "hit " if best == truth else "miss"
            print(f"  source {source:3d} -> targets {payload['targets']} "
                  f"[{mark}] ({payload['latency_ms']:.2f} ms)")

        # Batch POST: one matmul answers the whole list.
        batch = client.query_many([(s, 1) for s in range(20)])
        hits = sum(
            payload["targets"][0] == pair.groundtruth.get(payload["source"])
            for payload in batch
        )
        print(f"batch of {len(batch)}: {hits} ground-truth hits")

        # Repeat queries come from the lock-striped LRU cache.
        cached = client.query(17, k=3)
        print(f"repeat query cached={cached['cached']} "
              f"({cached['latency_ms']:.3f} ms)")

        # 4b. In-process client: same payloads, zero HTTP overhead.
        local = InProcessClient(engine)
        stats = local.stats()
        print(f"stats: queries={stats['queries']} "
              f"cache_hit_rate={stats['cache']['hit_rate']:.2f} "
              f"mean_latency={stats['latency_ms']['mean']:.2f} ms")


if __name__ == "__main__":
    main()
