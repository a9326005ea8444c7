"""Tests for tape capture + fused replay (repro.autograd.tape).

The contract under test: in float64 a replayed tape is bitwise-equal to
eager execution — forward values, every output's value, and parameter
gradients — in every mode of the (fusion x buffer-reuse) matrix; fused
kernels pass gradcheck; float32 replay agrees to tolerance; and the
trainer/profiler/tracer integrations see compiled execution exactly
where they saw eager execution.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.autograd
from repro.autograd import (
    Tensor,
    TapeRecorder,
    dispatch,
    frobenius_norm,
    gradcheck,
    normalize_rows,
    spmm,
)
from repro.core import GAlignConfig
from repro.core import trainer as trainer_module
from repro.core.trainer import GAlignTrainer
from repro.core.training_loop import CompiledLoss
from repro.graphs import generators, noisy_copy_pair
from repro.observability import OpProfiler, Tracer, format_op_table, use_tracer

#: Bound at import time, before any capture window opens.
EARLY_BOUND = {"prop": repro.autograd.spmm}

MODES = [
    pytest.param(fuse, reuse, id=f"fuse={fuse}-reuse={reuse}")
    for fuse in (False, True)
    for reuse in (False, True)
]


def make_gcn_loss(seed=0, n=14, d=6):
    """A two-layer GCN + gram-loss graph exercising the fusion pattern."""
    rng = np.random.default_rng(seed)
    adjacency = sp.random(n, n, density=0.3, random_state=seed, format="csr")
    features = Tensor(rng.normal(size=(n, d)))
    w1 = Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True)
    w2 = Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True)
    target = rng.normal(size=(n, n))

    def loss_fn():
        h1 = spmm(adjacency, features.matmul(w1)).tanh()
        h2 = spmm(adjacency, h1.matmul(w2)).relu()
        embeddings = normalize_rows(h2)
        gram = embeddings.matmul(embeddings.transpose())
        j_gram = frobenius_norm(Tensor(target) - gram) / float(n)
        j_reg = (h1 * h1).sum() * 0.01
        return j_gram + j_reg, j_gram, j_reg

    return loss_fn, [w1, w2]


def capture(loss_fn):
    recorder = TapeRecorder()
    with recorder:
        total, _j_gram, _j_reg = loss_fn()
    return recorder, total


class TestBitwiseReplay:
    @pytest.mark.parametrize("fuse,reuse", MODES)
    def test_float64_replay_matches_eager_bitwise(self, fuse, reuse):
        loss_fn, params = make_gcn_loss()
        for param in params:
            param.zero_grad()
        eager_total, eager_gram, eager_reg = loss_fn()
        eager_total.backward()
        eager_grads = [param.grad.copy() for param in params]
        eager_loss = eager_total.data.copy()
        eager_terms = (float(eager_gram.data), float(eager_reg.data))

        recorder = TapeRecorder()
        with recorder:
            total, j_gram, j_reg = loss_fn()
        tape = recorder.finalize(
            [total, j_gram, j_reg], order_root=total, fuse=fuse,
            reuse_buffers=reuse, dtype="float64",
        )
        for _replay in range(3):  # replays must not corrupt each other
            for param in params:
                param.zero_grad()
            out, gram, reg = tape.replay()
            out.backward()
            assert out.data.tobytes() == eager_loss.tobytes()
            assert (float(gram.data), float(reg.data)) == eager_terms
            for param, eager_grad in zip(params, eager_grads):
                assert param.grad.tobytes() == eager_grad.tobytes()

    @pytest.mark.parametrize("fuse,reuse", MODES)
    def test_float32_replay_matches_eager_to_tolerance(self, fuse, reuse):
        loss_fn, params = make_gcn_loss()
        for param in params:
            param.zero_grad()
        eager_total, _, _ = loss_fn()
        eager_total.backward()
        eager_grads = [param.grad.copy() for param in params]

        recorder, total = capture(loss_fn)
        tape = recorder.finalize(
            [total], fuse=fuse, reuse_buffers=reuse, dtype="float32"
        )
        for param in params:
            param.zero_grad()
        (out,) = tape.replay()
        out.backward()
        assert out.data.dtype == np.float32
        np.testing.assert_allclose(
            float(out.data), float(eager_total.data), rtol=1e-5
        )
        for param, eager_grad in zip(params, eager_grads):
            # float32 gradients land in the float64 master buffers.
            assert param.grad.dtype == np.float64
            np.testing.assert_allclose(
                param.grad, eager_grad, rtol=1e-4, atol=1e-6
            )

    def test_replay_reads_parameters_live(self):
        loss_fn, params = make_gcn_loss()
        recorder, total = capture(loss_fn)
        tape = recorder.finalize([total], dtype="float64")
        params[0].data += 0.125  # update AFTER finalize
        for param in params:
            param.zero_grad()
        (out,) = tape.replay()
        out.backward()
        replay_loss = float(out.data)
        replay_grad = params[0].grad.copy()
        for param in params:
            param.zero_grad()
        eager_total, _, _ = loss_fn()
        eager_total.backward()
        assert replay_loss == float(eager_total.data)
        assert replay_grad.tobytes() == params[0].grad.tobytes()

    def test_replay_across_optimizer_steps_matches_eager(self):
        from repro.autograd import Adam

        loss_eager, params_eager = make_gcn_loss(seed=3)
        loss_comp, params_comp = make_gcn_loss(seed=3)
        recorder, total = capture(loss_comp)
        tape = recorder.finalize([total], dtype="float64")
        opt_eager = Adam(params_eager, lr=0.05)
        opt_comp = Adam(params_comp, lr=0.05)
        for _step in range(4):
            opt_eager.zero_grad()
            eager_total, _, _ = loss_eager()
            eager_total.backward()
            opt_eager.step()

            opt_comp.zero_grad()
            (out,) = tape.replay()
            out.backward()
            opt_comp.step()
            assert float(out.data) == float(eager_total.data)
        for eager_p, comp_p in zip(params_eager, params_comp):
            assert eager_p.data.tobytes() == comp_p.data.tobytes()


class TestFusion:
    def test_gcn_pattern_fuses(self):
        loss_fn, _params = make_gcn_loss()
        recorder, total = capture(loss_fn)
        tape = recorder.finalize([total], fuse=True, dtype="float64")
        kinds = tape.op_kinds()
        assert kinds.count("gcn_layer") == 2  # one per layer (tanh + relu)
        assert "spmm" not in kinds  # both spmms were absorbed
        assert tape.fused == 2
        unfused = recorder.finalize([total], fuse=False, dtype="float64")
        assert "gcn_layer" not in unfused.op_kinds()
        assert len(tape) == len(unfused) - 2 * 2  # 3 ops -> 1, twice

    def test_multi_consumer_intermediate_blocks_fusion(self):
        rng = np.random.default_rng(0)
        adjacency = sp.random(8, 8, density=0.4, random_state=0, format="csr")
        h = Tensor(rng.normal(size=(8, 4)))
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        recorder = TapeRecorder()
        with recorder:
            pre = spmm(adjacency, h.matmul(w))
            # ``pre`` feeds both tanh and an extra consumer: fusing would
            # delete a value another op still needs.
            total = (pre.tanh().sum() + pre.sum())
        tape = recorder.finalize([total], fuse=True, dtype="float64")
        assert "gcn_layer" not in tape.op_kinds()

    def test_output_intermediate_blocks_fusion(self):
        rng = np.random.default_rng(0)
        adjacency = sp.random(8, 8, density=0.4, random_state=0, format="csr")
        h = Tensor(rng.normal(size=(8, 4)))
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        recorder = TapeRecorder()
        with recorder:
            pre = spmm(adjacency, h.matmul(w))
            total = pre.tanh().sum()
        # The spmm output is a tape output: fusing would drop its value.
        tape = recorder.finalize(
            [total, pre], order_root=total, fuse=True, dtype="float64"
        )
        assert "gcn_layer" not in tape.op_kinds()

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("fuse,reuse", MODES)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_gradcheck_fused_kernel_mode_matrix(
        self, activation, fuse, reuse, dtype
    ):
        """Satellite 4: gradcheck every fused kernel in every mode."""
        rng = np.random.default_rng(1)
        adjacency = sp.random(
            10, 10, density=0.35, random_state=1, format="csr"
        )
        h = Tensor(rng.normal(size=(10, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 5)) * 0.5, requires_grad=True)
        recorder = TapeRecorder()
        with recorder:
            z = spmm(adjacency, h.matmul(w))
            out = z.tanh() if activation == "tanh" else z.relu()
            total = (out * out).sum()
        tape = recorder.finalize(
            [total], fuse=fuse, reuse_buffers=reuse, dtype=dtype
        )
        if fuse:
            assert "gcn_layer" in tape.op_kinds()

        def replay_fn(_h, _w):
            (out,) = tape.replay()
            return out

        if dtype == "float64":
            gradcheck(replay_fn, [h, w])
        else:
            # float32 forward noise floors the finite-difference oracle.
            gradcheck(replay_fn, [h, w], eps=1e-3, atol=5e-2, rtol=5e-2)


class TestBufferReuse:
    def test_buffers_and_inplace_assigned(self):
        loss_fn, _params = make_gcn_loss()
        recorder, total = capture(loss_fn)
        tape = recorder.finalize(
            [total], fuse=True, reuse_buffers=True, dtype="float64"
        )
        assert tape.buffered > 0
        assert tape.inplace > 0
        bare = recorder.finalize(
            [total], fuse=True, reuse_buffers=False, dtype="float64"
        )
        assert bare.buffered == 0 and bare.inplace == 0

    def test_view_sources_never_overwritten(self):
        # transpose produces a numpy view; an in-place op overwriting the
        # view's source would corrupt the transposed value.  The planner
        # must keep both intact.
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        recorder = TapeRecorder()
        with recorder:
            doubled = x * 2.0
            view = doubled.transpose()
            total = (doubled * 3.0).sum() + view.sum()
        x.zero_grad()
        eager = (x.data * 2.0 * 3.0).sum() + (x.data * 2.0).T.sum()
        tape = recorder.finalize([total], reuse_buffers=True, dtype="float64")
        (out,) = tape.replay()
        out.backward()
        assert float(out.data) == pytest.approx(float(eager))
        # d(total)/d(doubled) = 3 + 1, times d(doubled)/dx = 2.
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 8.0))


class TestRecorder:
    def test_pre_capture_graph_tensor_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        outside = x * 2.0  # op node created before capture starts
        recorder = TapeRecorder()
        with pytest.raises(RuntimeError, match="outside the capture"):
            with recorder:
                (outside * 3.0).sum()

    def test_nested_capture_rejected(self):
        with TapeRecorder():
            with pytest.raises(RuntimeError, match="already capturing"):
                with TapeRecorder():
                    pass

    def test_finalize_requires_recorded_output(self):
        recorder = TapeRecorder()
        with recorder:
            Tensor(np.ones(2), requires_grad=True).sum()
        with pytest.raises(ValueError, match="not recorded"):
            recorder.finalize([Tensor(1.0)])

    def test_capture_leaves_no_observer(self):
        with TapeRecorder() as recorder:
            assert dispatch.observers() == (recorder,)
        assert dispatch.observers() == ()

    def test_early_bound_op_reference_is_captured(self):
        # A reference taken before the capture window opens is the same
        # function object the seam observes, so the op joins the tape.
        rng = np.random.default_rng(3)
        adjacency = sp.random(8, 8, density=0.4, random_state=3,
                              format="csr")
        features = Tensor(rng.normal(size=(8, 4)))
        weight = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

        def loss_fn():
            hidden = EARLY_BOUND["prop"](
                adjacency, features.matmul(weight)
            ).tanh()
            return (hidden * hidden).sum()

        eager = loss_fn()
        eager.backward()
        eager_grad = weight.grad.copy()
        recorder = TapeRecorder()
        with recorder:
            total = loss_fn()
        tape = recorder.finalize([total], dtype="float64")
        weight.zero_grad()
        (out,) = tape.replay()
        out.backward()
        assert out.data.tobytes() == eager.data.tobytes()
        assert weight.grad.tobytes() == eager_grad.tobytes()


def profile_pair():
    rng = np.random.default_rng(0)
    graph = generators.barabasi_albert(
        40, 2, rng, feature_dim=8, feature_kind="degree"
    )
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


def galign_config(**overrides):
    base = dict(
        epochs=4, embedding_dim=8, num_layers=2,
        refinement_iterations=2, seed=0,
    )
    base.update(overrides)
    return GAlignConfig(**base)


class TestTrainerIntegration:
    def test_dense_compiled_float64_bitwise(self):
        pair = profile_pair()
        eager_model, eager_log = GAlignTrainer(
            galign_config(), np.random.default_rng(0)
        ).train(pair)
        compiled_model, compiled_log = GAlignTrainer(
            galign_config(compile=True, compile_dtype="float64"),
            np.random.default_rng(0),
        ).train(pair)
        assert compiled_log.total == eager_log.total
        assert compiled_log.consistency == eager_log.consistency
        assert compiled_log.adaptivity == eager_log.adaptivity
        for eager_p, compiled_p in zip(
            eager_model.parameters(), compiled_model.parameters()
        ):
            assert eager_p.data.tobytes() == compiled_p.data.tobytes()

    def test_dense_compiled_float32_tolerance(self):
        pair = profile_pair()
        _, eager_log = GAlignTrainer(
            galign_config(), np.random.default_rng(0)
        ).train(pair)
        _, compiled_log = GAlignTrainer(
            galign_config(compile=True, compile_dtype="float32"),
            np.random.default_rng(0),
        ).train(pair)
        np.testing.assert_allclose(
            compiled_log.total, eager_log.total, rtol=1e-4
        )

    def test_dense_compiled_without_augmentation(self):
        pair = profile_pair()
        eager_kwargs = galign_config(use_augmentation=False)
        _, eager_log = GAlignTrainer(
            eager_kwargs, np.random.default_rng(0)
        ).train(pair)
        _, compiled_log = GAlignTrainer(
            galign_config(
                use_augmentation=False, compile=True, compile_dtype="float64"
            ),
            np.random.default_rng(0),
        ).train(pair)
        assert compiled_log.total == eager_log.total
        assert compiled_log.adaptivity == eager_log.adaptivity == [0.0] * 4

    def test_compiled_tape_runs_the_fused_loss_tail(self, monkeypatch):
        # 8 attributes -> 16 dimensions: layer 1 propagates the features.
        pair = profile_pair()
        losses = []

        class Recording(CompiledLoss):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                losses.append(self)

        class Shapes(dispatch.Observer):
            def __init__(self):
                self.seen = []

            def kernel(self, kind, direction, started, elapsed, flops,
                       shape):
                self.seen.append((kind, direction, shape))

        monkeypatch.setattr(trainer_module, "CompiledLoss", Recording)
        config = galign_config(epochs=2, embedding_dim=16, compile=True)
        shapes = Shapes()
        dispatch.attach(shapes)
        try:
            GAlignTrainer(config, np.random.default_rng(0)).train(pair)
        finally:
            dispatch.detach(shapes)
        (loss,) = losses
        kinds = loss.tape.op_kinds()
        for gone in ("getitem", "sub", "pow", "threshold_mask"):
            assert gone not in kinds
        # Source, target and their views, each at orders 0..k.
        graphs = 2 * (1 + config.num_augmentations)
        assert kinds.count("normalize_rows") == graphs * (
            config.num_layers + 1
        )
        assert kinds.count("gated_row_distance") == (
            2 * config.num_augmentations * config.num_layers
        )
        # Layer 1's sparse product runs at the attribute width; the
        # later layers fuse at the embedding width.
        replayed = [(kind, shape) for kind, direction, shape in shapes.seen
                    if direction == "forward"]
        assert replayed
        attributes = pair.source.num_features
        assert {shape[1] for kind, shape in replayed if kind == "spmm"} == {
            attributes
        }
        assert kinds.count("spmm") == graphs
        assert kinds.count("gcn_layer") == graphs * (config.num_layers - 1)


class TestObservabilityIntegration:
    def test_fused_ops_reach_profiler_and_table(self):
        pair = profile_pair()
        profiler = OpProfiler(trace_ops=False)
        with profiler.enabled():
            GAlignTrainer(
                galign_config(compile=True, compile_dtype="float32"),
                np.random.default_rng(0),
            ).train(pair)
        by_key = {
            (stat.op, stat.direction): stat for stat in profiler.stats()
        }
        assert ("gcn_layer", "forward") in by_key
        assert ("gcn_layer", "backward") in by_key
        forward = by_key[("gcn_layer", "forward")]
        assert forward.calls > 0 and forward.flops > 0
        # The tape's own time: one capture, and one forward plus one
        # reverse-pass loop per replayed epoch.
        assert by_key[("tape.capture", "forward")].calls == 1
        assert by_key[("tape.overhead", "forward")].calls == 3
        assert by_key[("tape.overhead", "backward")].calls == 3
        assert "gcn_layer" in format_op_table(profiler)

    def test_capture_and_replay_spans_traced(self):
        pair = profile_pair()
        tracer = Tracer()
        with use_tracer(tracer):
            GAlignTrainer(
                galign_config(compile=True, compile_dtype="float32"),
                np.random.default_rng(0),
            ).train(pair)
        names = [span.name for span in tracer.spans()]
        assert names.count("tape.capture") == 1
        assert names.count("tape.replay") == 3  # epochs - capture epoch
