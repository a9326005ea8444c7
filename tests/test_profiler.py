"""Tests for the per-op autograd profiler: the dispatch-seam observer
contract, FLOP accounting, backward attribution, and the trace/trainer
integration."""

import threading

import numpy as np
import scipy.sparse as sp

import repro.autograd
from repro.autograd import Tensor, dispatch
from repro.core import GAlignConfig, GAlignTrainer
from repro.graphs import generators, noisy_copy_pair
from repro.observability import (
    MetricsRegistry,
    OpProfiler,
    Tracer,
    format_op_table,
    use_registry,
    use_tracer,
)


#: Bound at import time, before any profiler is enabled.
EARLY_BOUND = {"prop": repro.autograd.spmm}


def _by_key(profiler):
    return {(stat.op, stat.direction): stat for stat in profiler.stats()}


class TestPatching:
    """Nothing is patched: profilers attach to the per-thread seam."""

    def test_no_observer_remains_after_exit(self):
        profiler = OpProfiler()
        with profiler.enabled():
            assert dispatch.observers() == (profiler,)
        assert dispatch.observers() == ()

    def test_early_bound_op_reference_is_profiled(self):
        sparse = sp.identity(3, format="csr")
        profiler = OpProfiler()
        with profiler.enabled():
            EARLY_BOUND["prop"](sparse, Tensor(np.ones((3, 2))))
        assert _by_key(profiler)[("spmm", "forward")].calls == 1

    def test_nested_profilers_both_record(self):
        outer, inner = OpProfiler(), OpProfiler()
        with outer.enabled():
            with inner.enabled():
                a = Tensor(np.ones((2, 2)), requires_grad=True)
                (a @ a).sum().backward()
        for profiler in (outer, inner):
            stats = _by_key(profiler)
            for key in (("matmul", "forward"), ("sum", "forward"),
                        ("matmul", "backward"), ("sum", "backward")):
                assert stats[key].calls == 1, key

    def test_other_thread_ops_are_not_seen(self):
        profiler = OpProfiler()
        with profiler.enabled():
            ones = Tensor(np.ones((2, 2)))
            worker = threading.Thread(target=lambda: ones @ ones)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert profiler.stats() == []

    def test_disabled_profiler_records_nothing(self):
        profiler = OpProfiler()
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a @ a).sum().backward()
        assert profiler.stats() == []


class TestRecording:
    def test_matmul_flops_are_exact(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.random.default_rng(0).random((4, 5)))
            b = Tensor(np.random.default_rng(1).random((5, 6)))
            a @ b
        stat = _by_key(profiler)[("matmul", "forward")]
        assert stat.calls == 1
        assert stat.flops == 2 * 4 * 5 * 6

    def test_spmm_flops_use_nnz(self):
        sparse = sp.random(6, 4, density=0.5, format="csr",
                           random_state=np.random.default_rng(0))
        dense = Tensor(np.random.default_rng(1).random((4, 3)))
        profiler = OpProfiler()
        with profiler.enabled():
            repro.autograd.spmm(sparse, dense)
        stat = _by_key(profiler)[("spmm", "forward")]
        assert stat.flops == 2 * sparse.nnz * 3

    def test_backward_attributed_to_creating_op(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.random.default_rng(0).random((4, 5)),
                       requires_grad=True)
            b = Tensor(np.random.default_rng(1).random((5, 6)),
                       requires_grad=True)
            loss = (a @ b).tanh().sum()
            loss.backward()
        stats = _by_key(profiler)
        forward = stats[("matmul", "forward")]
        backward = stats[("matmul", "backward")]
        assert backward.calls == forward.calls == 1
        # matmul's reverse pass is two matmuls -> 2x forward FLOPs
        assert backward.flops == 2 * forward.flops
        assert ("tanh", "backward") in stats
        assert ("sum", "backward") in stats

    def test_backward_after_exit_is_not_recorded(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.ones((3, 3)), requires_grad=True)
            loss = (a * 2.0).sum()
        calls_inside = _by_key(profiler)[("mul", "forward")].calls
        loss.backward()  # after the context: gradients flow, no records
        assert ("mul", "backward") not in _by_key(profiler)
        assert _by_key(profiler)[("mul", "forward")].calls == calls_inside
        assert a.grad is not None

    def test_data_movement_ops_cost_zero_flops(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.ones((4, 6)))
            a.transpose()
            a.reshape((6, 4))
            a[:2]
        stats = _by_key(profiler)
        for op in ("transpose", "reshape", "getitem"):
            assert stats[(op, "forward")].flops == 0

    def test_total_time_and_reset(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.ones((8, 8)), requires_grad=True)
            (a @ a).sum().backward()
        assert profiler.total_time() > 0.0
        assert profiler.total_time("forward") > 0.0
        assert profiler.total_time("backward") > 0.0
        assert profiler.total_flops() > 0
        profiler.reset()
        assert profiler.stats() == [] and profiler.total_time() == 0.0


class TestTraceIntegration:
    def test_ops_land_in_trace_under_open_span(self):
        tracer = Tracer()
        profiler = OpProfiler(tracer=tracer)
        with profiler.enabled():
            with tracer.span("work"):
                a = Tensor(np.ones((3, 3)), requires_grad=True)
                (a @ a).sum().backward()
        spans = {span.name: span for span in tracer.spans()}
        work = spans["work"]
        assert spans["op.matmul"].parent_id == work.span_id
        assert spans["op.matmul.backward"].parent_id == work.span_id
        assert spans["op.matmul"].attrs["flops"] == 2 * 3 * 3 * 3

    def test_trace_ops_false_keeps_trace_clean(self):
        tracer = Tracer()
        profiler = OpProfiler(tracer=tracer, trace_ops=False)
        with profiler.enabled():
            a = Tensor(np.ones((3, 3)))
            a @ a
        assert len(tracer) == 0
        assert ("matmul", "forward") in _by_key(profiler)


class TestTrainerIntegration:
    def test_training_is_profiled_and_traced(self):
        rng = np.random.default_rng(5)
        graph = generators.barabasi_albert(30, 2, rng, feature_dim=6,
                                           feature_kind="degree")
        pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
        config = GAlignConfig(epochs=3, embedding_dim=8,
                              num_augmentations=1, seed=0)
        registry = MetricsRegistry()
        tracer = Tracer()
        profiler = OpProfiler(tracer=tracer)
        with use_registry(registry), use_tracer(tracer):
            with profiler.enabled():
                GAlignTrainer(config, np.random.default_rng(0)).train(pair)
        spans = tracer.spans()
        epoch_spans = [s for s in spans if s.name == "trainer.epoch"]
        assert [s.attrs["epoch"] for s in epoch_spans] == [0, 1, 2]
        names = {span.name for span in spans}
        assert {"trainer.forward", "trainer.backward", "trainer.step",
                "op.matmul", "op.spmm", "op.spmm.backward"} <= names
        stats = _by_key(profiler)
        assert stats[("spmm", "forward")].calls > 0
        assert stats[("matmul", "backward")].calls > 0
        assert dispatch.observers() == ()

    def test_format_op_table_lists_busiest_ops(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.random.default_rng(0).random((16, 16)),
                       requires_grad=True)
            (a @ a).tanh().sum().backward()
        text = format_op_table(profiler, title="ops", limit=3)
        lines = text.splitlines()
        assert lines[0] == "ops"
        assert len(lines) == 3 + 3  # title + header + rule + limited rows
        full = format_op_table(profiler)
        assert "matmul" in full and "backward" in full
