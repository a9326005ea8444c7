"""Sampled vs dense training (large-graph mode, DESIGN.md extension).

Compares the dense Eq-7 trainer against the sampled estimator of
:mod:`repro.core.sampling` on a mid-size graph: wall-clock per epoch and
final alignment quality.

Expected shape: the sampled trainer's per-epoch cost is lower at equal or
modestly lower Success@1 — the trade large-graph users opt into.
"""

import time
from dataclasses import replace

import numpy as np

from repro.core import (
    GAlignTrainer,
    aggregate_alignment,
    layerwise_alignment_matrices,
)
from repro.eval import format_table
from repro.eval.experiments import galign_config
from repro.graphs import generators, noisy_copy_pair
from repro.metrics import success_at

from conftest import BASE_SEED, print_section

N = 600


def _score(model, config, pair):
    matrices = layerwise_alignment_matrices(
        model.embed(pair.source), model.embed(pair.target)
    )
    scores = aggregate_alignment(matrices, config.resolved_layer_weights())
    return success_at(scores, pair.groundtruth, 1)


def _run():
    rng = np.random.default_rng(BASE_SEED)
    graph = generators.barabasi_albert(N, 2, rng, feature_dim=16,
                                       feature_kind="degree")
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    config = galign_config(epochs=15, embedding_dim=32,
                           num_augmentations=1, seed=BASE_SEED)

    started = time.perf_counter()
    dense_model, _ = GAlignTrainer(config, np.random.default_rng(BASE_SEED)).train(pair)
    dense_seconds = time.perf_counter() - started
    dense_s1 = _score(dense_model, config, pair)

    started = time.perf_counter()
    sampled_trainer = GAlignTrainer(
        replace(config, trainer="sampled", sample_batch_size=128,
                sample_negatives=10),
        np.random.default_rng(BASE_SEED),
    )
    sampled_model, _ = sampled_trainer.train(pair)
    sampled_seconds = time.perf_counter() - started
    sampled_s1 = _score(sampled_model, config, pair)

    return [
        ["dense (Eq 7)", dense_seconds, dense_s1],
        ["sampled", sampled_seconds, sampled_s1],
    ]


def test_sampled_trainer(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_section(f"Sampled vs dense training (BA n={N})")
    print(format_table(["trainer", "train(s)", "Success@1"], rows))

    dense_row, sampled_row = rows
    # The sampled step must be cheaper at this size...
    assert sampled_row[1] < dense_row[1] * 1.2
    # ...without falling apart on quality.
    assert sampled_row[2] > 0.3
