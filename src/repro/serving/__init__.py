"""Online alignment query serving (the train-once / query-many regime).

Everything GAlign computes offline collapses into a small set of arrays —
per-layer source/target embeddings plus the layer weights θ(l) — and
every alignment question is answerable per-query from them (§VI-C).
This package turns a trained model + pair into a long-lived service:

* :mod:`~repro.serving.artifact` — **AlignmentArtifact**
  (``repro.artifact/v1``/``v2``): versioned, immutable, memory-mapped
  embedding exports with strict load-time validation, torn-write-proof
  export (staging + fsync + ``_COMMITTED`` marker + atomic rename) and
  eager/lazy/off integrity verification naming file and byte offset on
  corruption; v2 adds the ANN aux arrays (centroids, inverted lists,
  int8 codes, scales) under the same guarantees.
* :mod:`~repro.serving.index` — **AlignmentIndex**: exact top-k with
  Cauchy-Schwarz norm-based candidate pruning; bit-identical with
  pruning on or off, scoring and selecting through
  :mod:`repro.core.scoring` like
  :func:`repro.core.streaming.streaming_top_k`.
* :mod:`~repro.serving.ann` — **AnnIndex**: IVF coarse quantizer
  (deterministic seeded k-means) over the target embeddings plus int8
  symmetric per-block quantization with float rescoring; ``mode='ann'``
  + ``nprobe`` trade recall for latency, and ``nprobe == n_clusters``
  is bitwise identical to the exact index.
* :mod:`~repro.serving.engine` — **QueryEngine**: microbatched scoring,
  a lock-striped LRU result cache, ``aligned: false`` surfacing for
  sanitized rows, and ``serving.*`` metrics.
  ``QueryEngine.from_artifact(artifact, shards=N)`` picks the index
  for an artifact: exact, ANN, or sharded when ``N > 1``.
* :mod:`~repro.serving.sharded` — **ShardedIndex**: the target matrix
  split into block-aligned row shards, scored scatter-gather on a
  :class:`~repro.parallel.WorkerPool` behind per-shard circuit
  breakers, merged bit-identically to the single-process index.
* :mod:`~repro.serving.frontdoor` — **FrontDoor**: bounded admission
  (429 :class:`OverloadedError` vs 503 closed/unhealthy) and hot
  artifact swap with zero failed in-flight queries.
* :mod:`~repro.serving.server` — **AlignmentServer**: stdlib-only JSON
  HTTP API (``/healthz``, ``/stats``, ``/query``, ``/admin/reload``)
  with graceful shutdown and an error→status taxonomy.
* :mod:`~repro.serving.client` — in-process and HTTP clients speaking
  the same payload dialect.

CLI: ``repro export-artifact``, ``repro serve``, ``repro query``,
``repro reload``.
"""

from .ann import (
    AnnIndex,
    AnnProber,
    build_ann_state,
    default_nprobe,
    dequantize_int8,
    kmeans_fit,
    quantize_int8,
)
from .artifact import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_V2,
    AlignmentArtifact,
    ArtifactVerifier,
    config_fingerprint,
    export_artifact,
    load_artifact,
    verify_artifact,
)
from .client import HTTPClient, InProcessClient, ServingClientError
from .engine import QueryEngine, QueryResult, StripedLRUCache
from .frontdoor import FrontDoor, OverloadedError
from .index import AlignmentIndex
from .server import AlignmentServer, status_for_error
from .sharded import ShardedIndex, plan_shards

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_V2",
    "AlignmentArtifact",
    "ArtifactVerifier",
    "export_artifact",
    "load_artifact",
    "verify_artifact",
    "config_fingerprint",
    "AlignmentIndex",
    "AnnIndex",
    "AnnProber",
    "build_ann_state",
    "default_nprobe",
    "kmeans_fit",
    "quantize_int8",
    "dequantize_int8",
    "QueryEngine",
    "QueryResult",
    "StripedLRUCache",
    "ShardedIndex",
    "plan_shards",
    "FrontDoor",
    "OverloadedError",
    "AlignmentServer",
    "status_for_error",
    "InProcessClient",
    "HTTPClient",
    "ServingClientError",
]
