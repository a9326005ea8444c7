"""Tests for the consistency / adaptivity / combined losses."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (
    Tensor,
    TapeRecorder,
    frobenius_norm,
    gram_residual_norm,
)
from repro.core import (
    GAlignConfig,
    MultiOrderGCN,
    adaptivity_loss,
    combined_loss,
    consistency_loss,
)
from repro.graphs import propagation_matrix


def embeddings_for(graph, seed=0, **kwargs):
    config = GAlignConfig(num_layers=2, embedding_dim=8, **kwargs)
    model = MultiOrderGCN(graph.num_features, config, np.random.default_rng(seed))
    return model.forward(graph)


def counting_csr(matrix, products):
    """``matrix`` as a CSR that appends to ``products`` on each sparse ×
    dense product, its transpose's included."""

    class CountingCSC(sp.csc_matrix):
        def _matmul_multivector(self, other):
            products.append("CᵀH")
            return super()._matmul_multivector(other)

    class CountingCSR(sp.csr_matrix):
        def _matmul_multivector(self, other):
            products.append("CH")
            return super()._matmul_multivector(other)

        def transpose(self, axes=None, copy=False):
            return CountingCSC(super().transpose(axes, copy))

    return CountingCSR(matrix)


class TestConsistencyLoss:
    def test_positive_scalar(self, small_graph):
        prop = propagation_matrix(small_graph)
        loss = consistency_loss(prop, embeddings_for(small_graph))
        assert loss.data.size == 1
        assert float(loss.data) > 0.0

    def test_requires_trained_layer(self, small_graph):
        prop = propagation_matrix(small_graph)
        with pytest.raises(ValueError):
            consistency_loss(prop, [Tensor(small_graph.features)])

    def test_zero_when_gram_matches_target(self, tiny_graph):
        prop = propagation_matrix(tiny_graph)
        # Construct H with H Hᵀ == C exactly via eigendecomposition.
        dense = prop.toarray()
        values, vectors = np.linalg.eigh(dense)
        values = np.clip(values, 0.0, None)  # PSD part
        h = vectors @ np.diag(np.sqrt(values))
        psd_target = h @ h.T
        loss = consistency_loss(prop, [Tensor(tiny_graph.features), Tensor(h)])
        expected = np.linalg.norm(dense - psd_target)
        assert float(loss.data) == pytest.approx(expected, abs=1e-6)

    def test_gradient_flows_to_weights(self, small_graph):
        config = GAlignConfig(num_layers=1, embedding_dim=4)
        model = MultiOrderGCN(
            small_graph.num_features, config, np.random.default_rng(0)
        )
        prop = propagation_matrix(small_graph)
        loss = consistency_loss(prop, model.forward(small_graph, prop))
        loss.backward()
        assert model.weights[0].grad is not None
        assert np.any(model.weights[0].grad != 0.0)


class TestEq7WithoutDenseGram:
    """Eq 7 through ``‖C‖² − 2⟨H, CH⟩ + ‖HᵀH‖²``: exact, in O(n·d) memory."""

    N, D = 2000, 16

    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["symmetric", "asymmetric"])
    def test_exact_and_allocates_no_square_array(self, symmetric):
        n, d = self.N, self.D
        rng = np.random.default_rng(5)
        target = sp.random(n, n, density=5 / n, random_state=5,
                           format="csr")
        if symmetric:
            target = (target + target.T).tocsr()
        hidden = Tensor(rng.normal(size=(n, d)) * 0.1, requires_grad=True)
        embeddings = [Tensor(np.zeros((n, 1))), hidden]

        tracemalloc.start()
        try:
            loss = consistency_loss(target, embeddings)
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One n×n float64 array is 32 MB; the sparse form needs ~1 MB.
        assert peak < n * n * 8 / 8, f"peak {peak / 1e6:.1f} MB"
        value, grad = float(loss.data), hidden.grad.copy()

        hidden.zero_grad()
        dense = frobenius_norm(Tensor(target.toarray()) - hidden @ hidden.T)
        dense.backward()
        assert value == pytest.approx(float(dense.data), rel=1e-10, abs=0)
        scale = np.abs(hidden.grad).max()
        assert np.abs(grad - hidden.grad).max() <= 1e-10 * scale
        del dense

        recorder = TapeRecorder()
        with recorder:
            term = consistency_loss(target, embeddings)
        tape = recorder.finalize([term], dtype="float32")
        hidden.zero_grad()
        (replayed,) = tape.replay()
        replayed.backward()
        assert replayed.data.dtype == np.float32
        assert float(replayed.data) == pytest.approx(value, rel=1e-5, abs=0)
        assert np.abs(hidden.grad - grad).max() <= 1e-5 * scale

    @pytest.mark.parametrize("symmetric,expected", [
        (True, ["CH"]), (False, ["CH", "CᵀH"]),
    ], ids=["symmetric", "asymmetric"])
    def test_sparse_products_per_forward_and_backward(self, symmetric,
                                                      expected):
        # A symmetric C reuses the forward's CH for the backward's CᵀH.
        target = sp.random(30, 30, density=0.2, random_state=3,
                           format="csr")
        if symmetric:
            target = (target + target.T).tocsr()
        products = []
        counted = counting_csr(target, products)
        hidden = Tensor(np.random.default_rng(3).normal(size=(30, 4)),
                        requires_grad=True)
        gram_residual_norm(counted, hidden).backward()
        assert products == expected
        counted_grad = hidden.grad.copy()
        hidden.zero_grad()
        dense = frobenius_norm(Tensor(target.toarray()) - hidden @ hidden.T)
        dense.backward()
        np.testing.assert_allclose(counted_grad, hidden.grad, rtol=1e-9)

    def test_duplicate_entries_count_once_each(self):
        # A non-canonical CSR (a repeated (row, col)) means the sum of its
        # duplicates, as the dense form does.
        target = sp.csr_matrix(
            (np.array([0.5, 0.25, 1.0, 0.75]), np.array([1, 1, 0, 2]),
             np.array([0, 2, 3, 4])), shape=(3, 3),
        )
        assert not target.has_canonical_format
        hidden = Tensor(np.random.default_rng(2).normal(size=(3, 2)),
                        requires_grad=True)
        loss = consistency_loss(target, [hidden, hidden])
        dense = frobenius_norm(Tensor(target.toarray()) - hidden @ hidden.T)
        assert float(loss.data) == pytest.approx(float(dense.data), rel=1e-12)


class TestAdaptivityLoss:
    def test_zero_for_identical_embeddings(self, small_graph):
        embeddings = embeddings_for(small_graph)
        identity = np.arange(small_graph.num_nodes)
        loss = adaptivity_loss(embeddings, embeddings, identity, threshold=1.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-3)

    def test_positive_for_different_embeddings(self, small_graph):
        a = embeddings_for(small_graph, seed=0)
        b = embeddings_for(small_graph, seed=1)
        identity = np.arange(small_graph.num_nodes)
        loss = adaptivity_loss(a, b, identity, threshold=10.0)
        assert float(loss.data) > 0.0

    def test_threshold_masks_large_differences(self, small_graph):
        a = embeddings_for(small_graph, seed=0)
        b = embeddings_for(small_graph, seed=1)
        identity = np.arange(small_graph.num_nodes)
        masked = adaptivity_loss(a, b, identity, threshold=1e-9)
        assert float(masked.data) == pytest.approx(0.0)

    def test_correspondence_reorders(self, small_graph, rng):
        from repro.graphs import apply_permutation, random_permutation
        from repro.core import GraphAugmenter

        # With permutation-only augmentation (no noise), the adaptivity
        # loss must vanish by Prop 1 when correspondence is honored.
        augmenter = GraphAugmenter(structure_noise=0.0, attribute_noise=0.0,
                                   num_views=1, permute=True)
        view = augmenter.augment_once(small_graph, rng)
        config = GAlignConfig(num_layers=2, embedding_dim=8)
        model = MultiOrderGCN(small_graph.num_features, config, np.random.default_rng(0))
        original = model.forward(small_graph)
        augmented = model.forward(view.graph)
        loss = adaptivity_loss(original, augmented, view.correspondence, threshold=1.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-3)

    def test_rejects_non_permutation_correspondence(self, small_graph):
        a = embeddings_for(small_graph, seed=0)
        b = embeddings_for(small_graph, seed=1)
        squashed = np.zeros(small_graph.num_nodes, dtype=int)
        with pytest.raises(ValueError, match="one-to-one"):
            adaptivity_loss(a, b, squashed)

    def test_rejects_layer_mismatch(self, small_graph):
        a = embeddings_for(small_graph)
        with pytest.raises(ValueError):
            adaptivity_loss(a, a[:-1], np.arange(small_graph.num_nodes))


class TestCombinedLoss:
    def test_gamma_weighting(self):
        j = combined_loss(Tensor(2.0), Tensor(4.0), gamma=0.75)
        assert float(j.data) == pytest.approx(0.75 * 2.0 + 0.25 * 4.0)

    def test_none_adaptivity_passthrough(self):
        j = combined_loss(Tensor(3.0), None, gamma=0.5)
        assert float(j.data) == pytest.approx(3.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            combined_loss(Tensor(1.0), Tensor(1.0), gamma=-0.1)
