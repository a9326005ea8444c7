"""Malformed inputs fail loudly with GraphValidationError, end to end."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    AlignmentRefiner,
    GAlignConfig,
    GAlignTrainer,
    StreamingAligner,
)
from repro.graphs import AlignmentPair, AttributedGraph, generators
from repro.graphs.io import save_alignment_pair
from repro.observability import MetricsRegistry
from repro.resilience import (
    GraphValidationError,
    validate_graph,
    validate_pair,
)


def _pair_with_features(source_features, target_features=None):
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
    source = AttributedGraph.from_edges(5, edges, source_features)
    target = AttributedGraph.from_edges(
        5, edges,
        source_features if target_features is None else target_features,
    )
    return AlignmentPair(source, target, {i: i for i in range(5)})


@pytest.fixture
def nan_pair():
    features = np.eye(5)
    features[2, 1] = np.nan
    return _pair_with_features(features)


@pytest.fixture
def clean_pair(rng):
    graph = generators.barabasi_albert(20, 2, rng, feature_dim=4)
    return AlignmentPair(graph, graph, {i: i for i in range(20)})


class TestValidateGraph:
    def test_clean_graph_passes(self, small_graph):
        validate_graph(small_graph)

    def test_nan_features_rejected_with_node_index(self):
        features = np.ones((5, 3))
        features[3, 0] = np.nan
        graph = AttributedGraph.from_edges(5, [(0, 1), (2, 3)], features)
        with pytest.raises(GraphValidationError, match="node: 3"):
            validate_graph(graph, name="source")

    def test_inf_features_rejected(self):
        features = np.ones((4, 2))
        features[0, 1] = np.inf
        graph = AttributedGraph.from_edges(4, [(0, 1)], features)
        with pytest.raises(GraphValidationError, match="non-finite"):
            validate_graph(graph)

    def test_zero_node_graph_rejected(self):
        graph = AttributedGraph(np.zeros((0, 0)), np.zeros((0, 1)))
        with pytest.raises(GraphValidationError, match="no nodes"):
            validate_graph(graph)

    def test_error_names_the_graph(self):
        graph = AttributedGraph(np.zeros((0, 0)), np.zeros((0, 1)))
        with pytest.raises(GraphValidationError, match="target graph"):
            validate_graph(graph, name="target")

    def test_failure_counted_in_registry(self):
        registry = MetricsRegistry()
        graph = AttributedGraph(np.zeros((0, 0)), np.zeros((0, 1)))
        with pytest.raises(GraphValidationError):
            validate_graph(graph, registry=registry)
        assert registry.counter("resilience.validation_failures").value == 1

    def test_non_square_adjacency_rejected_at_construction(self):
        with pytest.raises(GraphValidationError, match="square"):
            AttributedGraph(np.ones((3, 4)))

    def test_graph_validation_error_is_value_error(self):
        assert issubclass(GraphValidationError, ValueError)


class TestValidatePair:
    def test_mismatched_attribute_spaces(self):
        pair = _pair_with_features(np.ones((5, 3)), np.ones((5, 4)))
        with pytest.raises(GraphValidationError, match="attribute space"):
            validate_pair(pair)

    def test_nan_pair_rejected(self, nan_pair):
        with pytest.raises(GraphValidationError):
            validate_pair(nan_pair)


class TestTrainerEntryPoints:
    CONFIG = GAlignConfig(epochs=2, embedding_dim=4, num_augmentations=1)

    def test_dense_trainer_rejects_nan_features(self, nan_pair):
        trainer = GAlignTrainer(self.CONFIG, np.random.default_rng(0))
        with pytest.raises(GraphValidationError, match="non-finite"):
            trainer.train(nan_pair)

    def test_train_single_rejects_zero_node_graph(self):
        graph = AttributedGraph(np.zeros((0, 0)), np.zeros((0, 1)))
        trainer = GAlignTrainer(self.CONFIG, np.random.default_rng(0))
        with pytest.raises(GraphValidationError, match="no nodes"):
            trainer.train_single(graph)


class TestRefinerAndStreamingEntryPoints:
    def test_refiner_rejects_nan_features(self, nan_pair, clean_pair):
        config = GAlignConfig(epochs=2, embedding_dim=4)
        model, _ = GAlignTrainer(config, np.random.default_rng(0)).train(
            clean_pair
        )
        refiner = AlignmentRefiner(config)
        with pytest.raises(GraphValidationError, match="non-finite"):
            refiner.refine(nan_pair, model)

    def test_streaming_aligner_rejects_nan_features(self, nan_pair, clean_pair):
        config = GAlignConfig(epochs=2, embedding_dim=4)
        model, _ = GAlignTrainer(config, np.random.default_rng(0)).train(
            clean_pair
        )
        aligner = StreamingAligner(model, config)
        with pytest.raises(GraphValidationError):
            aligner.top_anchors(nan_pair)


class TestCliValidation:
    def test_align_rejects_nan_attributes(self, nan_pair, tmp_path):
        pair_dir = str(tmp_path / "pair")
        save_alignment_pair(nan_pair, pair_dir)
        with pytest.raises(GraphValidationError, match="non-finite"):
            main(["align", "--pair", pair_dir, "--method", "galign",
                  "--epochs", "2", "--dim", "4"])

    def test_align_error_is_actionable(self, nan_pair, tmp_path):
        pair_dir = str(tmp_path / "pair")
        save_alignment_pair(nan_pair, pair_dir)
        with pytest.raises(GraphValidationError, match="clean or impute"):
            main(["align", "--pair", pair_dir, "--method", "regal"])
