"""Edge-path coverage: small behaviours not exercised elsewhere."""

import numpy as np
import pytest

from repro.autograd import Tensor, stack
from repro.graphs import AttributedGraph


class TestTensorEdgePaths:
    def test_rmatmul(self):
        left = np.array([[1.0, 2.0]])
        right = Tensor([[3.0], [4.0]], requires_grad=True)
        out = left @ right
        out.sum().backward()
        assert out.data[0, 0] == pytest.approx(11.0)
        np.testing.assert_allclose(right.grad, [[1.0], [2.0]])

    def test_stack_axis1(self, rng):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = stack([a, b], axis=1)
        assert out.shape == (3, 2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)))

    def test_radd_rsub_rmul_chain_gradients(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = 1.0 + x       # radd
        z = 10.0 - y      # rsub
        w = 3.0 * z       # rmul
        w.backward()
        # w = 3(10 - (1 + x)) → dw/dx = -3.
        assert x.grad[0] == pytest.approx(-3.0)

    def test_rtruediv_gradient(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        (8.0 / x).backward()
        # d(8/x)/dx = -8/x² = -0.5.
        assert x.grad[0] == pytest.approx(-0.5)


class TestGraphEdgePaths:
    def test_from_networkx_with_features(self, rng):
        import networkx as nx

        nxg = nx.path_graph(4)
        features = rng.normal(size=(4, 3))
        graph = AttributedGraph.from_networkx(nxg, features=features)
        np.testing.assert_array_equal(graph.features, features)

    def test_with_features_keeps_labels(self):
        graph = AttributedGraph.from_edges(
            2, [(0, 1)], node_labels=["a", "b"]
        )
        updated = graph.with_features(np.ones((2, 3)))
        assert updated.node_labels == ["a", "b"]

    def test_edge_list_empty_graph(self):
        graph = AttributedGraph(np.zeros((3, 3)))
        assert graph.edge_list().shape == (0, 2)

    def test_subgraph_empty_selection_rejected_or_empty(self):
        graph = AttributedGraph.from_edges(3, [(0, 1)])
        sub = graph.subgraph([])
        assert sub.num_nodes == 0


class TestReportingEdgePaths:
    def test_format_table_empty_rows(self):
        from repro.eval import format_table

        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_comparison_table_missing_method(self):
        from repro.eval import format_comparison_table
        from repro.eval.runner import MethodSummary

        summary = MethodSummary(method="M", map=0.5, auc=0.9,
                                success_at_1=0.4, success_at_10=0.7,
                                time_seconds=1.0)
        results = {"d1": {"M": summary}, "d2": {}}
        text = format_comparison_table(results)
        assert "-" in text  # missing cells rendered as dashes
