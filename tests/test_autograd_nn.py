"""Tests for the nn module layer: Module, Linear, Sequential, mse_loss."""

import numpy as np
import pytest

from repro.autograd import Tensor, Adam, nn


@pytest.fixture
def nprng():
    return np.random.default_rng(1)


class TestModuleBase:
    def test_parameters_collects_children(self, nprng):
        model = nn.Sequential(
            nn.Linear(4, 8, nprng), nn.Tanh(), nn.Linear(8, 2, nprng)
        )
        params = model.parameters()
        assert len(params) == 4  # 2 weights + 2 biases
        assert all(p.requires_grad for p in params)

    def test_train_eval_propagates(self, nprng):
        model = nn.Sequential(nn.Tanh(), nn.Linear(2, 2, nprng))
        model.eval()
        assert not model.training
        assert not model[0].training
        model.train()
        assert model[0].training

    def test_zero_grad(self, nprng):
        layer = nn.Linear(3, 2, nprng)
        out = layer(Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_register_parameter_requires_grad(self, nprng):
        module = nn.Module()
        with pytest.raises(ValueError):
            module.register_parameter(Tensor(np.ones(2)))

    def test_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)


class TestLinear:
    def test_shapes(self, nprng):
        layer = nn.Linear(5, 3, nprng)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self, nprng):
        layer = nn.Linear(5, 3, nprng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_bias_applied(self, nprng):
        layer = nn.Linear(2, 2, nprng)
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = 5.0
        out = layer(Tensor(np.ones((1, 2))))
        np.testing.assert_allclose(out.data, 5.0)

    def test_validates_sizes(self, nprng):
        with pytest.raises(ValueError):
            nn.Linear(0, 3, nprng)

    def test_trains_to_fit_linear_map(self, nprng):
        target_w = np.array([[2.0], [-1.0]])
        x = nprng.normal(size=(64, 2))
        y = x @ target_w
        layer = nn.Linear(2, 1, nprng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            layer.zero_grad()
            loss = nn.mse_loss(layer(Tensor(x)), Tensor(y))
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, target_w, atol=0.05)


class TestLosses:
    def test_mse_zero_for_exact(self):
        x = Tensor(np.ones((3, 2)))
        assert nn.mse_loss(x, Tensor(np.ones((3, 2)))).item() == 0.0


class TestSequential:
    def test_indexing_and_len(self, nprng):
        model = nn.Sequential(nn.Linear(2, 2, nprng), nn.Tanh())
        assert len(model) == 2
        assert isinstance(model[1], nn.Tanh)

    def test_activations_chain(self, nprng):
        model = nn.Sequential(nn.Tanh(), nn.Tanh())
        x = np.array([-5.0, 0.5, 5.0])
        out = model(Tensor(x))
        np.testing.assert_allclose(out.data, np.tanh(np.tanh(x)), rtol=1e-15)
