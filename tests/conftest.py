"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.graphs import AttributedGraph, generators


def pytest_addoption(parser):
    parser.addoption(
        "--shards",
        type=int,
        default=1,
        help="serve the HTTP test fixtures of test_serving_server.py and "
             "test_serving_http_fuzz.py from QueryEngine.from_artifact("
             "shards=N) (1 = the single-process index; answers must be "
             "identical either way)",
    )


@pytest.fixture(scope="session")
def serving_shards(request):
    """Shard count for serving fixtures (the ``--shards`` option)."""
    shards = request.config.getoption("--shards")
    if shards < 1:
        raise pytest.UsageError("--shards must be >= 1")
    return shards


@pytest.fixture
def rng():
    """Deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_graph(rng):
    """A connected ~30-node attributed graph for fast unit tests."""
    return generators.barabasi_albert(30, m=2, rng=rng, feature_dim=6)


@pytest.fixture
def tiny_graph():
    """A fixed 5-node path-with-chord graph with simple attributes."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
    features = np.eye(5)
    return AttributedGraph.from_edges(5, edges, features)
