"""ANN serving benchmark: QPS-vs-recall@k across the ``nprobe`` sweep.

A synthetic clustered target set 10-100x the Table-II stand-ins plays
the million-node regime at bench scale: queries are noisy copies of
target rows, so the exact answer is known and recall is measurable.
For each ``nprobe`` the bench records recall@1 / recall@10 against the
exact index plus throughput, and writes the full curve to
``BENCH_ann.json``.

Asserted invariants (the rest is reporting):

* ``nprobe == n_clusters`` reproduces the exact answers **bitwise**,
* recall@1 is monotone non-decreasing in ``nprobe`` (within noise),
* some operating point reaches recall@1 >= 0.95.

QPS and the speedup over exact are recorded, not asserted: exact
selection costs about as much as the ANN probe and rescoring at this
scale, so the ratio says more about the machine than about the code.
"""

import time

import numpy as np

from repro.observability import MetricsRegistry, write_bench_json
from repro.serving import AlignmentIndex, AnnIndex

from conftest import BASE_SEED, print_section

N_TARGET = 20_000
N_QUERIES = 256
DIM = 48
N_CLUSTERS = 64
QUERY_K = 10
NPROBES = (1, 2, 4, 8, 16, N_CLUSTERS)


def make_embeddings():
    rng = np.random.default_rng(BASE_SEED)
    centers = rng.standard_normal((N_CLUSTERS, DIM)) * 4.0
    membership = rng.integers(0, N_CLUSTERS, size=N_TARGET)
    target = centers[membership] + 0.3 * rng.standard_normal(
        (N_TARGET, DIM)
    )
    picked = rng.choice(N_TARGET, size=N_QUERIES, replace=False)
    source = target[picked] + 0.1 * rng.standard_normal(
        (N_QUERIES, DIM)
    )
    return [source], [target]


def timed_top_k(index, batches, **kwargs):
    targets = []
    started = time.perf_counter()
    for batch in batches:
        targets.append(index.top_k(batch, k=QUERY_K, **kwargs)[0])
    elapsed = time.perf_counter() - started
    return np.vstack(targets), N_QUERIES / elapsed


def recall(approx, exact, k):
    hits = sum(
        len(set(a[:k].tolist()) & set(e[:k].tolist()))
        for a, e in zip(approx, exact)
    )
    return hits / (len(exact) * k)


def test_ann_recall_curve():
    source, target = make_embeddings()
    registry = MetricsRegistry()
    exact = AlignmentIndex(source, target, [1.0], target_block_size=2048)
    ann = AnnIndex(
        source, target, [1.0], n_clusters=N_CLUSTERS, seed=BASE_SEED,
        target_block_size=2048, registry=registry,
    )
    batches = np.array_split(np.arange(N_QUERIES), N_QUERIES // 32)

    exact_targets, _ = timed_top_k(exact, batches)
    _, exact_qps = timed_top_k(exact, batches)  # warmed

    print_section(
        f"ANN recall/QPS ({N_TARGET} targets, {N_CLUSTERS} clusters, "
        f"k={QUERY_K})"
    )
    print(f"exact            : {exact_qps:8.0f} qps (recall 1.0 by "
          "definition)")

    curve = []
    for nprobe in NPROBES:
        got, qps = timed_top_k(ann, batches, mode="ann", nprobe=nprobe)
        point = {
            "nprobe": nprobe,
            "recall_at_1": recall(got, exact_targets, 1),
            "recall_at_10": recall(got, exact_targets, QUERY_K),
            "qps": qps,
            "speedup": qps / exact_qps,
        }
        curve.append(point)
        print(
            f"nprobe={nprobe:<4d}      : {qps:8.0f} qps "
            f"({point['speedup']:4.1f}x)  recall@1 "
            f"{point['recall_at_1']:.3f}  recall@10 "
            f"{point['recall_at_10']:.3f}"
        )

    # Full probe: bitwise identical, the subsystem's core contract.
    full_t, full_s = ann.top_k(
        np.arange(N_QUERIES), k=QUERY_K, mode="ann", nprobe=N_CLUSTERS
    )
    exact_t, exact_s = exact.top_k(np.arange(N_QUERIES), k=QUERY_K)
    assert np.array_equal(full_t, exact_t)
    assert np.array_equal(full_s, exact_s)

    # Recall is monotone in nprobe (tiny tolerance for rank-boundary
    # churn between equal-recall operating points).
    recalls = [p["recall_at_1"] for p in curve]
    assert all(b >= a - 0.01 for a, b in zip(recalls, recalls[1:])), recalls
    assert curve[-1]["recall_at_1"] == 1.0

    good = [p for p in curve if p["recall_at_1"] >= 0.95]
    assert good, f"no operating point reached recall@1 >= 0.95: {curve}"

    payload = write_bench_json("BENCH_ann.json", registry, run={
        "command": "ann_recall",
        "n_target": N_TARGET,
        "n_queries": N_QUERIES,
        "dim": DIM,
        "n_clusters": N_CLUSTERS,
        "k": QUERY_K,
        "exact_qps": exact_qps,
        "curve": curve,
        "best": max(good, key=lambda p: p["speedup"]),
    })
    assert "serving.ann.queries" in payload["metrics"]
