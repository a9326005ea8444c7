"""Unit tests for free-function ops: spmm, concat, norms, masks, softmax."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (
    Tensor,
    spmm,
    concat,
    stack,
    frobenius_norm,
    gated_row_distance,
    gram_residual_norm,
    normalize_rows,
    softmax,
    log_softmax,
    gradcheck,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSpmm:
    def test_matches_dense(self, rng):
        sparse = sp.random(6, 6, density=0.4, random_state=1, format="csr")
        dense = Tensor(rng.normal(size=(6, 3)))
        out = spmm(sparse, dense)
        np.testing.assert_allclose(out.data, sparse.toarray() @ dense.data)

    def test_gradient(self, rng):
        sparse = sp.random(5, 5, density=0.5, random_state=2, format="csr")
        dense = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        gradcheck(lambda d: spmm(sparse, d), [dense])

    def test_rejects_dense_left_operand(self, rng):
        with pytest.raises(TypeError):
            spmm(np.eye(3), Tensor(np.ones((3, 1))))

    def test_accepts_coo(self, rng):
        sparse = sp.random(4, 4, density=0.5, random_state=3, format="coo")
        out = spmm(sparse, Tensor(np.ones((4, 2))))
        np.testing.assert_allclose(out.data, sparse.toarray() @ np.ones((4, 2)))


class TestConcatStack:
    def test_concat_values(self, rng):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 6)

    def test_concat_gradient_splits(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        gradcheck(lambda x, y: concat([x, y], axis=1), [a, b])

    def test_concat_axis0_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        gradcheck(lambda x, y: concat([x, y], axis=0), [a, b])

    def test_stack_values_and_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = stack([a, b])
        assert out.shape == (2, 2, 2)
        gradcheck(lambda x, y: stack([x, y], axis=0), [a, b])


def _distance_sum(matrix, threshold=np.inf, eps=1e-12):
    """Eq 9's entry against zeros under the identity: the sum of the
    gated row norms of ``matrix``."""
    zeros = Tensor(np.zeros(np.shape(matrix.data)))
    return gated_row_distance(matrix, zeros, np.arange(len(matrix)),
                              threshold, eps=eps)


class TestNorms:
    def test_row_norms_values(self, rng):
        m = Tensor([[3.0, 4.0], [0.0, 0.0], [6.0, 8.0]])
        # Each threshold admits one more row: norms 0 (+ sqrt(eps)), 5, 10.
        assert _distance_sum(m, threshold=1e-3).item() == pytest.approx(
            1e-6, rel=1e-9)
        assert _distance_sum(m, threshold=6.0).item() == pytest.approx(5.0)
        assert _distance_sum(m).item() == pytest.approx(15.0)

    def test_row_norms_gradient(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
        perm = np.array([2, 0, 3, 1])
        gradcheck(lambda x, y: gated_row_distance(x, y, perm, np.inf), [a, b])

    def test_frobenius_norm_value(self, rng):
        m = Tensor(np.full((2, 2), 2.0))
        assert frobenius_norm(m).item() == pytest.approx(4.0)

    def test_frobenius_gradient(self, rng):
        m = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        gradcheck(lambda a: frobenius_norm(a), [m])

    def test_normalize_rows_unit_norm(self, rng):
        m = Tensor(rng.normal(size=(5, 4)) + 3.0)
        out = normalize_rows(m)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, rtol=1e-6)

    def test_normalize_rows_keeps_direction(self, rng):
        m = Tensor(rng.normal(size=(5, 4)))
        out = normalize_rows(m)
        norms = np.linalg.norm(m.data, axis=1, keepdims=True)
        np.testing.assert_allclose(out.data * norms, m.data, rtol=1e-12)

    def test_normalize_rows_gradient(self, rng):
        m = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        gradcheck(lambda a: normalize_rows(a), [m], atol=1e-4)


class TestThresholdMask:
    """The σ_< gate inside Eq 9's entry: a row counts (and gets gradient)
    only while its distance is below the threshold."""

    def test_identity_below_threshold(self):
        v = Tensor([[0.1, 0.0], [0.0, 0.5], [2.0, 0.0], [0.0, 1.0]])
        # 0.1 and 0.5 pass; 2.0 is above and 1.0 exactly at the gate.
        out = _distance_sum(v, threshold=1.0, eps=0.0)
        assert out.item() == pytest.approx(0.6, rel=1e-15)

    def test_gradient_masked(self):
        a = Tensor(np.array([[0.1, 0.0], [0.0, 0.5], [2.0, 0.0]]),
                   requires_grad=True)
        b = Tensor(np.zeros((3, 2)), requires_grad=True)
        perm = np.array([2, 0, 1])
        gated_row_distance(a, b, perm, threshold=1.0).backward()
        # Kept rows get their unit direction; the gated row gets nothing.
        np.testing.assert_allclose(a.grad, [[1.0, 0.0], [0.0, 1.0],
                                            [0.0, 0.0]])
        # B's row perm[v] gets −(A's row v gradient).
        np.testing.assert_allclose(b.grad, [[0.0, -1.0], [0.0, 0.0],
                                            [-1.0, 0.0]])


class TestGatedRowDistance:
    @pytest.mark.parametrize("correspondence", [
        [0, 0, 1],          # a repeated row
        [0, 1, 3],          # out of range
        [0, 1],             # too short
        [0.0, 1.0, 2.0],    # not integers
    ], ids=["repeated", "out-of-range", "short", "float"])
    def test_rejects_non_permutation(self, correspondence, rng):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)))
        with pytest.raises(ValueError, match="one-to-one"):
            gated_row_distance(a, b, np.array(correspondence), 1.0)

    def test_rejects_row_count_mismatch(self, rng):
        a = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="one-to-one"):
            gated_row_distance(a, b, np.arange(3), 1.0)

    def test_matches_gather_subtract_norm_gate_sum(self, rng):
        a = Tensor(rng.normal(size=(6, 3)))
        b = Tensor(rng.normal(size=(6, 3)))
        perm = rng.permutation(6)
        norms = np.linalg.norm(a.data - b.data[perm], axis=1)
        threshold = float(np.median(norms))
        expected = norms[norms < threshold].sum()
        got = gated_row_distance(a, b, perm, threshold, eps=0.0).item()
        assert got == pytest.approx(expected, rel=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        out = softmax(logits)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=1e-10)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 4))
        a = softmax(Tensor(logits)).data
        b = softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_softmax_gradient(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda a: softmax(a), [logits])

    def test_log_softmax_gradient(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda a: log_softmax(a), [logits])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(
            log_softmax(logits).data, np.log(softmax(logits).data), rtol=1e-10
        )


class TestBackwardGuards:
    """Every op's backward must respect ``requires_grad`` at backward time.

    Toggling a leaf's ``requires_grad`` off after the graph is built is
    the observable difference: concat/stack always guarded, but spmm,
    the σ_< gate, softmax, and log_softmax used to accumulate into the
    (now frozen) leaf anyway.
    """

    OPS = {
        "spmm": lambda t: spmm(
            sp.random(4, 4, density=0.5, random_state=1, format="csr"), t
        ),
        "gated_row_distance": lambda t: gated_row_distance(
            t, Tensor(np.zeros_like(t.data)), np.arange(len(t)), 10.0
        ),
        "normalize_rows": lambda t: normalize_rows(t),
        "softmax": lambda t: softmax(t),
        "log_softmax": lambda t: log_softmax(t),
        "concat": lambda t: concat([t, Tensor(np.ones_like(t.data))], axis=0),
        "stack": lambda t: stack([t, Tensor(np.ones_like(t.data))], axis=0),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_no_grad_into_frozen_leaf(self, name, rng):
        leaf = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = self.OPS[name](leaf).sum()
        leaf.requires_grad = False
        out.backward()
        assert leaf.grad is None

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_grad_flows_when_required(self, name, rng):
        leaf = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        self.OPS[name](leaf).sum().backward()
        assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape


class TestGradcheckCoverage:
    """Every op exported by ``repro.autograd.ops`` passes gradcheck.

    ``GRADCHECKS`` must cover ``ops.__all__`` exactly, so adding an op
    without a finite-difference check fails this suite.
    """

    GRADCHECKS = {
        "spmm": lambda rng: gradcheck(
            lambda d: spmm(
                sp.random(5, 5, density=0.5, random_state=2, format="csr"), d
            ),
            [Tensor(rng.normal(size=(5, 2)), requires_grad=True)],
        ),
        "concat": lambda rng: gradcheck(
            lambda x, y: concat([x, y], axis=1),
            [
                Tensor(rng.normal(size=(2, 3)), requires_grad=True),
                Tensor(rng.normal(size=(2, 2)), requires_grad=True),
            ],
        ),
        "stack": lambda rng: gradcheck(
            lambda x, y: stack([x, y], axis=0),
            [
                Tensor(rng.normal(size=(2, 2)), requires_grad=True),
                Tensor(rng.normal(size=(2, 2)), requires_grad=True),
            ],
        ),
        "frobenius_norm": lambda rng: gradcheck(
            frobenius_norm,
            [Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)],
        ),
        "gram_residual_norm": lambda rng: gradcheck(
            lambda h: gram_residual_norm(
                sp.random(5, 5, density=0.5, random_state=3, format="csr"), h
            ),
            [Tensor(rng.normal(size=(5, 3)), requires_grad=True)],
        ),
        "normalize_rows": lambda rng: gradcheck(
            normalize_rows,
            [Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)],
            atol=1e-4,
        ),
        # Rows away from the threshold: the kink at exactly `threshold`
        # is non-differentiable, which finite differences would straddle.
        "gated_row_distance": lambda rng: gradcheck(
            lambda a, b: gated_row_distance(a, b, np.array([1, 3, 0, 2]), 1.0),
            [
                Tensor(
                    rng.normal(size=(4, 3))
                    * np.array([[0.1], [2.0], [0.2], [3.0]]),
                    requires_grad=True,
                ),
                Tensor(np.zeros((4, 3)), requires_grad=True),
            ],
        ),
        "softmax": lambda rng: gradcheck(
            softmax, [Tensor(rng.normal(size=(3, 4)), requires_grad=True)]
        ),
        "log_softmax": lambda rng: gradcheck(
            log_softmax, [Tensor(rng.normal(size=(3, 4)), requires_grad=True)]
        ),
    }

    def test_covers_every_exported_op(self):
        from repro.autograd import ops

        assert set(self.GRADCHECKS) == set(ops.__all__)

    @pytest.mark.parametrize("name", sorted(GRADCHECKS))
    def test_gradcheck(self, name, rng):
        assert self.GRADCHECKS[name](rng)

