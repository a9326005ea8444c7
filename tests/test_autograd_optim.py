"""Unit tests for optimizers and initializers."""

import numpy as np
import pytest

from repro.autograd import Tensor, Adam, clip_grad_norm, init


def quadratic_loss(param):
    """(param - 3)^2 summed; unique minimum at 3."""
    diff = param - 3.0
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_bias_correction_first_step(self):
        # With bias correction the first Adam step ~= lr * sign(grad).
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.5)
        opt.zero_grad()
        (p * 4.0).sum().backward()
        opt.step()
        assert float(p.data[0]) == pytest.approx(-0.5, rel=1e-3)

    def test_validates_betas(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.999))

    def test_weight_decay_shrinks(self):
        p = Tensor(np.full(2, 10.0), requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p.sum() * 0.0).backward()  # zero task gradient
        opt.step()
        assert np.all(p.data < 10.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_non_grad_params(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.zeros(2))], lr=0.1)

    def test_skips_params_without_grad_buffer(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()  # no backward yet: must be a no-op, not a crash
        np.testing.assert_array_equal(p.data, np.ones(2))


class TestClipGradNorm:
    def test_clips_when_above(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clip_when_below(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])

    def test_nan_gradient_raises(self):
        # Regression: every comparison against a NaN norm is False, so
        # the clip used to be silently skipped and the poisoned
        # gradients went straight into the optimizer step.
        from repro.resilience import TrainingDivergedError

        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.array([1.0, np.nan, 2.0])
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            clip_grad_norm([p], max_norm=1.0)

    def test_inf_gradient_raises(self):
        from repro.resilience import TrainingDivergedError

        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([np.inf, 0.0])
        with pytest.raises(TrainingDivergedError):
            clip_grad_norm([p], max_norm=1.0)


class TestInit:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        t = init.xavier_uniform((100, 100), rng)
        bound = np.sqrt(6.0 / 200)
        assert t.requires_grad
        assert np.all(np.abs(t.data) <= bound)

    def test_uniform_validates_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init.uniform((2, 2), rng, low=1.0, high=0.0)

    def test_zeros(self):
        t = init.zeros((3, 2))
        assert t.requires_grad
        np.testing.assert_array_equal(t.data, np.zeros((3, 2)))

    def test_fan_requires_2d(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init.xavier_uniform((5,), rng)
