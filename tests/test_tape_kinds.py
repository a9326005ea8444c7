"""Every autograd op kind through the tape, against eager.

One small graph per case puts a single op between single-consumer
elementwise ops (so buffer reuse writes in place around it), captures
it, and replays it twice in float64 under every fusion x buffer-reuse
mode.  The replayed loss and every parameter gradient must be bitwise
equal to eager, and profiling the eager run and the unfused replay must
give the same calls and FLOPs for every (kind, direction) row.  The
cases together must cover every kind in the op table.

The same cases gradcheck every kind: the parameter gradients of eager,
of the unfused tape and of the fused tape (where ``gcn_layer`` and any
later fused entry exist) must match float64 central differences.  The
loss-tail entries (``normalize_rows``, ``gated_row_distance``,
``gram_residual_norm``) are built by eager itself, so their cases run
them in all three; Eq 7's has a case for each of its backward paths
(symmetric and asymmetric C).
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (
    Tensor,
    TapeRecorder,
    concat,
    gated_row_distance,
    gram_residual_norm,
    log_softmax,
    normalize_rows,
    numerical_gradient,
    softmax,
    spmm,
    stack,
)
from repro.autograd.optable import OPS
from repro.observability import OpProfiler

N, D = 5, 3

MODES = [(fuse, reuse) for fuse in (False, True) for reuse in (False, True)]


def _positive(t):
    return t * t + 1.0


#: π for the Eq 9 case: row v of the original matches row PERM[v].
PERM = np.array([3, 0, 4, 1, 2])


#: name -> op applied to the pre-activation ``t`` (shape (N, D)).
CASES = {
    "add-broadcast-row": lambda t, p: t + p.row,
    "add-scalar-left": lambda t, p: 2.0 + t,
    "sub-broadcast-row": lambda t, p: p.row - t,
    "sub-scalar-left": lambda t, p: 2.0 - t,
    "mul-broadcast-row": lambda t, p: t * p.row,
    "mul-scalar-left": lambda t, p: 3.0 * t,
    "div-broadcast-row": lambda t, p: t / _positive(p.row),
    "div-scalar-left": lambda t, p: 3.0 / _positive(t),
    "neg": lambda t, p: -t,
    "pow-square": lambda t, p: t ** 2,
    "pow-reciprocal": lambda t, p: _positive(t) ** -1.0,
    "matmul": lambda t, p: t.matmul(p.w),
    "matmul-raw-left": lambda t, p: p.const.data.T @ t,
    "transpose": lambda t, p: t.transpose(),
    "reshape": lambda t, p: t.reshape(D, -1),
    "getitem-duplicates": lambda t, p: t[np.array([0, 2, 2, 4, 2])],
    "getitem-mask": lambda t, p: t[np.array([True, False, True, True, False])],
    "getitem-tuple": lambda t, p: t[(np.array([0, 1, 1, 3]),
                                     np.array([2, 0, 0, 1]))],
    "getitem-slices": lambda t, p: t[1:4, ::2],
    "sum-all": lambda t, p: t.sum(),
    "sum-axis": lambda t, p: t.sum(axis=0),
    "sum-axis-keepdims": lambda t, p: t.sum(axis=1, keepdims=True),
    "tanh": lambda t, p: t.tanh(),
    "relu": lambda t, p: t.relu(),
    "sigmoid": lambda t, p: t.sigmoid(),
    "exp": lambda t, p: t.exp(),
    "log": lambda t, p: _positive(t).log(),
    "sqrt": lambda t, p: _positive(t).sqrt(),
    "abs": lambda t, p: t.abs(),
    "clip_min": lambda t, p: t.clip_min(0.1),
    "spmm": lambda t, p: spmm(p.adj, t),
    "concat": lambda t, p: concat([p.row, t, p.const], axis=0),
    "stack": lambda t, p: stack([t, p.const], axis=1),
    "softmax": lambda t, p: softmax(t, axis=0),
    "log_softmax": lambda t, p: log_softmax(t, axis=-1),
    "gcn-tanh": lambda t, p: spmm(p.adj, t.matmul(p.w)).tanh(),
    "gcn-relu": lambda t, p: spmm(p.adj, t.matmul(p.w)).relu(),
    # Eq 1's narrow side first: stays three ops, never a gcn_layer.
    "gcn-narrow-first": lambda t, p: spmm(p.adj, p.const).matmul(p.w).tanh(),
    "normalize_rows": lambda t, p: normalize_rows(t),
    # Threshold 2 keeps two rows and gates the other three out.
    "gated_row_distance": lambda t, p: gated_row_distance(
        t, p.const * p.row, PERM, 2.0
    ),
    "gram_residual_norm": lambda t, p: gram_residual_norm(p.adj, t),
    "gram_residual_norm-symmetric": lambda t, p: gram_residual_norm(
        p.adj + p.adj.T, t
    ),
}


def make_case(name, seed=0):
    rng = np.random.default_rng(seed)
    p = SimpleNamespace(
        x=Tensor(rng.normal(size=(N, D)), requires_grad=True),
        row=Tensor(rng.normal(size=(1, D)), requires_grad=True),
        w=Tensor(rng.normal(size=(D, D)) * 0.5, requires_grad=True),
        const=Tensor(rng.normal(size=(N, D))),
        adj=sp.random(N, N, density=0.5, random_state=seed, format="csr"),
    )
    op = CASES[name]

    def loss_fn():
        # mul then add: the add writes over the mul's dying buffer.
        pre = p.x * 1.5 + 0.25
        out = op(pre, p)
        # add then a weighted sum: the add writes over ``out`` when the
        # op's backward does not read it.
        post = out + 0.5
        weights = np.linspace(0.5, 1.5, post.size).reshape(post.shape)
        return (post * weights).sum()

    return loss_fn, [p.x, p.row, p.w]


def _eager(loss_fn, params):
    for param in params:
        param.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.data.tobytes(), [
        None if param.grad is None else param.grad.tobytes()
        for param in params
    ]


def _replayed(tape, params):
    for param in params:
        param.zero_grad()
    (out,) = tape.replay()
    out.backward()
    return out.data.tobytes(), [
        None if param.grad is None else param.grad.tobytes()
        for param in params
    ]


def _capture(loss_fn):
    recorder = TapeRecorder()
    with recorder:
        total = loss_fn()
    return recorder, total


def _rows(profiler):
    return {
        (stat.op, stat.direction): (stat.calls, stat.flops)
        for stat in profiler.stats()
        if not stat.op.startswith("tape.")
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_kind_replays_bitwise_in_every_mode(name):
    loss_fn, params = make_case(name)
    eager = _eager(loss_fn, params)
    recorder, total = _capture(loss_fn)
    for fuse, reuse in MODES:
        tape = recorder.finalize(
            [total], fuse=fuse, reuse_buffers=reuse, dtype="float64"
        )
        if reuse:
            assert tape.inplace > 0, (fuse, reuse)
        for _replay in range(2):
            assert _replayed(tape, params) == eager, (fuse, reuse)


@pytest.mark.parametrize("name", sorted(CASES))
def test_kind_profiles_alike_eager_and_replayed(name):
    loss_fn, params = make_case(name)
    eager_profile = OpProfiler(trace_ops=False)
    with eager_profile.enabled():
        _eager(loss_fn, params)
    recorder, total = _capture(loss_fn)
    tape = recorder.finalize([total], fuse=False, dtype="float64")
    replay_profile = OpProfiler(trace_ops=False)
    with replay_profile.enabled():
        _replayed(tape, params)
    assert _rows(replay_profile) == _rows(eager_profile)


def test_cases_cover_every_table_kind():
    tested = set()
    for name in CASES:
        loss_fn, _params = make_case(name)
        recorder, total = _capture(loss_fn)
        for fuse in (False, True):
            tested.update(recorder.finalize([total], fuse=fuse).op_kinds())
    assert tested == set(OPS)


def _float64_tapes(loss_fn):
    """The unfused and the fused float64 tape of one case."""
    recorder, total = _capture(loss_fn)
    return [
        recorder.finalize([total], fuse=fuse, dtype="float64")
        for fuse in (False, True)
    ]


def _gradients(backward, params):
    for param in params:
        param.zero_grad()
    backward()
    return [
        np.zeros_like(param.data) if param.grad is None else param.grad
        for param in params
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_kind_gradchecks_eager_and_replayed(name):
    loss_fn, params = make_case(name)
    numeric = [
        numerical_gradient(lambda *_: loss_fn(), params, index)
        for index in range(len(params))
    ]
    analytic = {"eager": _gradients(lambda: loss_fn().backward(), params)}
    for fuse, tape in zip((False, True), _float64_tapes(loss_fn)):
        analytic[f"tape fuse={fuse}"] = _gradients(
            lambda: tape.replay()[0].backward(), params
        )
    for path, grads in analytic.items():
        for index, (got, want) in enumerate(zip(grads, numeric)):
            np.testing.assert_allclose(
                got, want, rtol=1e-4, atol=1e-5,
                err_msg=f"{path}, parameter {index}",
            )


def test_gradchecks_cover_every_table_kind():
    checked = set()
    for name in CASES:
        loss_fn, _params = make_case(name)
        for tape in _float64_tapes(loss_fn):
            checked.update(tape.op_kinds())
    assert checked == set(OPS)


def _frozen(array):
    """A read-only copy: any write into it raises."""
    array = np.array(array)
    array.setflags(write=False)
    return array


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_vjp_writes_into_its_incoming_gradient(name):
    """The contract behind gradient adoption: a graph node keeps its
    first gradient contribution without a copy (``accumulated``), which
    is sound only if no pullback or VJP writes into the gradient it is
    given.  Every op of every case, fused and unfused, runs its pullback
    and each VJP with read-only ``g``, ``ins`` and ``out``; the cases
    cover every table kind (``test_cases_cover_every_table_kind``)."""
    loss_fn, _params = make_case(name)
    recorder, total = _capture(loss_fn)
    rng = np.random.default_rng(1)
    for fuse in (False, True):
        tape = recorder.finalize([total], fuse=fuse, reuse_buffers=False)
        tape.replay()
        for op in tape._forward:
            entry = OPS[op.kind]
            ins = [_frozen(tape._values[slot]) for slot in op.inputs]
            out = _frozen(tape._values[op.out])
            g = _frozen(rng.normal(size=out.shape))
            if entry.pullback is not None:
                g = _frozen(entry.pullback(g, ins, out, op.meta))
            for position in range(len(ins)):
                entry.vjps[position](g, ins, out, op.meta)

