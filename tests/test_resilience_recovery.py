"""Unit tests for the recovery manager and graceful-degradation paths."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.autograd import Adam, Tensor
from repro.base import AlignmentMethod
from repro.core import AlignmentRefiner, GAlignConfig, GAlignTrainer
from repro.core.streaming import streaming_evaluate, streaming_top_k
from repro.eval import ExperimentRunner, MethodSpec
from repro.graphs import AlignmentPair, generators
from repro.observability import MetricsRegistry
from repro.resilience import RecoveryManager, TrainingDivergedError


class _ToyModel:
    """Minimal state_dict/load_state_dict carrier for RecoveryManager."""

    def __init__(self):
        self.weights = [np.ones((2, 2))]

    def state_dict(self):
        return [w.copy() for w in self.weights]

    def load_state_dict(self, state):
        self.weights = [w.copy() for w in state]


def _manager(registry=None, **kwargs):
    model = _ToyModel()
    optimizer = Adam([Tensor(np.ones((2, 2)), requires_grad=True)], lr=0.1)
    return RecoveryManager(model, optimizer, registry=registry, **kwargs)


def _param(grad):
    return SimpleNamespace(grad=None if grad is None else np.asarray(grad))


class TestHealthChecks:
    def test_healthy_step_passes(self):
        manager = _manager()
        assert manager.check(1.0, [_param([0.1, 0.2])]) is None

    def test_nonfinite_loss_detected(self):
        registry = MetricsRegistry()
        manager = _manager(registry=registry)
        assert manager.check(float("nan"), []) == "nonfinite_loss"
        assert manager.check(float("inf"), []) == "nonfinite_loss"
        assert registry.counter("resilience.nonfinite_loss").value == 2

    def test_nonfinite_gradient_detected(self):
        manager = _manager()
        params = [_param([0.1]), _param([np.nan])]
        assert manager.check(1.0, params) == "nonfinite_gradients"

    def test_missing_gradients_are_fine(self):
        manager = _manager()
        assert manager.check(1.0, [_param(None)]) is None

    def test_spike_only_after_warmup(self):
        registry = MetricsRegistry()
        manager = _manager(registry=registry, divergence_warmup=3,
                           divergence_factor=10.0)
        for _ in range(3):
            assert manager.check(1.0, []) is None
            manager.commit(1.0)
        # Warmed up with best loss 1.0: a 20x loss is now a spike.
        assert manager.check(20.0, []) == "loss_spike"
        assert registry.counter("resilience.loss_spikes").value == 1

    def test_no_spike_before_warmup(self):
        manager = _manager(divergence_warmup=5, divergence_factor=10.0)
        manager.commit(1.0)
        assert manager.check(1000.0, []) is None


class TestRecovery:
    def test_rollback_restores_snapshot(self):
        manager = _manager()
        manager.commit(1.0)
        manager.model.weights[0] += 100.0
        manager.recover("nonfinite_loss", step=3)
        np.testing.assert_array_equal(manager.model.weights[0],
                                      np.ones((2, 2)))

    def test_lr_halving_compounds_across_recoveries(self):
        manager = _manager()
        manager.commit(1.0)  # snapshot stores lr=0.1
        manager.recover("nonfinite_loss", step=1)
        assert manager.optimizer.lr == pytest.approx(0.05)
        # The snapshot restore must not resurrect the original rate.
        manager.recover("nonfinite_loss", step=1)
        assert manager.optimizer.lr == pytest.approx(0.025)

    def test_budget_exhaustion_raises(self):
        manager = _manager(max_recoveries=2)
        manager.commit(1.0)
        manager.recover("nonfinite_loss", step=1)
        manager.recover("nonfinite_loss", step=2)
        with pytest.raises(TrainingDivergedError) as excinfo:
            manager.recover("nonfinite_loss", step=3)
        assert excinfo.value.attempts == 2
        assert "lower the learning rate" in str(excinfo.value)

    def test_zero_budget_fails_on_first_recovery(self):
        manager = _manager(max_recoveries=0)
        with pytest.raises(TrainingDivergedError):
            manager.recover("nonfinite_loss", step=0)

    def test_spike_recovery_resets_baseline(self):
        # A deterministic retry reproduces the same loss; the spike
        # baseline must reset or recovery would re-trigger forever.
        manager = _manager(divergence_warmup=1, divergence_factor=10.0)
        manager.commit(1.0)
        assert manager.check(50.0, []) == "loss_spike"
        manager.recover("loss_spike", step=2)
        assert manager.check(50.0, []) is None

    def test_recovery_emits_event(self):
        registry = MetricsRegistry()
        events = []
        registry.add_hook(lambda event, payload: events.append((event, payload)))
        manager = _manager(registry=registry)
        manager.commit(1.0)
        manager.recover("nonfinite_gradients", step=7)
        assert registry.counter("resilience.recoveries").value == 1
        payload = dict(events)["resilience.recovery"]
        assert payload["step"] == 7
        assert payload["reason"] == "nonfinite_gradients"
        assert payload["attempt"] == 1

    def test_restores_adam_moments(self):
        model = _ToyModel()
        param = Tensor(np.ones(3), requires_grad=True)
        optimizer = Adam([param], lr=0.2)
        manager = RecoveryManager(model, optimizer)
        param.grad = np.ones(3)
        optimizer.step()
        manager.commit(1.0)
        before = optimizer.state_dict()
        param.grad = np.full(3, 5.0)
        optimizer.step()
        manager.recover("nonfinite_loss", step=1)
        after = optimizer.state_dict()
        assert optimizer.lr == pytest.approx(0.1)
        assert after["step_count"] == before["step_count"] == 1
        for key in ("m", "v"):
            np.testing.assert_array_equal(after[key][0], before[key][0])


class _FlakyModel:
    """Wraps a trained model; embeddings go NaN after ``fail_after`` calls."""

    def __init__(self, model, fail_after):
        self._model = model
        self._fail_after = fail_after
        self._calls = 0

    def embed(self, graph, propagation=None):
        self._calls += 1
        embeddings = self._model.embed(graph, propagation)
        if self._calls > self._fail_after:
            return [e * np.nan for e in embeddings]
        return embeddings


class TestRefinerFallback:
    CONFIG = GAlignConfig(epochs=2, embedding_dim=4, num_augmentations=1,
                          refinement_iterations=4)

    @pytest.fixture
    def trained(self, rng):
        graph = generators.barabasi_albert(20, 2, rng, feature_dim=4)
        pair = AlignmentPair(graph, graph, {i: i for i in range(20)})
        model, _ = GAlignTrainer(
            self.CONFIG, np.random.default_rng(0)
        ).train(pair)
        return pair, model

    def test_falls_back_to_best_finite_iteration(self, trained):
        pair, model = trained
        registry = MetricsRegistry()
        # Iteration 0 embeds source+target (2 calls) finitely; iteration 1
        # goes NaN and must trigger the fallback, not propagate.
        flaky = _FlakyModel(model, fail_after=2)
        refiner = AlignmentRefiner(self.CONFIG, registry=registry)
        scores, log = refiner.refine(pair, flaky)
        assert np.all(np.isfinite(scores))
        assert len(log.quality) == 1  # only the pre-refinement iteration
        assert registry.counter("resilience.refine_fallbacks").value == 1

    def test_nonfinite_first_iteration_raises(self, trained):
        pair, model = trained
        refiner = AlignmentRefiner(self.CONFIG)
        with pytest.raises(ValueError, match="numerically broken"):
            refiner.refine(pair, _FlakyModel(model, fail_after=0))

    def test_healthy_refinement_never_counts_fallbacks(self, trained):
        pair, model = trained
        registry = MetricsRegistry()
        refiner = AlignmentRefiner(self.CONFIG, registry=registry)
        refiner.refine(pair, model)
        assert registry.counter("resilience.refine_fallbacks").value == 0


class TestStreamingSanitization:
    def test_nonfinite_entries_become_neg_inf(self):
        registry = MetricsRegistry()
        source = [np.ones((4, 3))]
        target = np.ones((5, 3))
        target[2] = np.nan
        # A -inf column ranks last (5 of 5); a NaN one would rank 0.
        poisoned = streaming_evaluate(source, [target], [1.0],
                                      {i: 2 for i in range(4)},
                                      registry=registry)
        assert poisoned.map == pytest.approx(1 / 5)
        # The finite columns tie at 3.0, so each ranks 4 of 5.
        finite = streaming_evaluate(source, [target], [1.0], {0: 0},
                                    registry=MetricsRegistry())
        assert finite.map == pytest.approx(1 / 4)
        assert registry.counter(
            "resilience.streaming_sanitized_blocks"
        ).value == 1

    def test_sanitized_scores_never_win_top_k(self):
        source = [np.ones((3, 2))]
        target = np.array([[0.5, 0.5], [np.inf, np.inf], [2.0, 2.0]])
        targets, scores = streaming_top_k(source, [target], [1.0], k=1,
                                          registry=MetricsRegistry())
        assert np.all(targets[:, 0] == 2)
        assert np.all(np.isfinite(scores))


class _ExplodingMethod(AlignmentMethod):
    name = "exploding"

    def _align_scores(self, pair, supervision, rng):
        raise RuntimeError("synthetic failure")


class _ConstantMethod(AlignmentMethod):
    name = "constant"

    def _align_scores(self, pair, supervision, rng):
        return np.eye(pair.source.num_nodes)


class TestRunnerContinueOnError:
    @pytest.fixture
    def pair(self, rng):
        graph = generators.barabasi_albert(15, 2, rng, feature_dim=4)
        return AlignmentPair(graph, graph, {i: i for i in range(15)})

    SPECS = [
        MethodSpec("exploding", _ExplodingMethod),
        MethodSpec("constant", _ConstantMethod),
    ]

    def test_default_propagates_method_errors(self, pair):
        runner = ExperimentRunner(repeats=1, registry=MetricsRegistry())
        with pytest.raises(RuntimeError, match="synthetic failure"):
            runner.run_pair(pair, self.SPECS)

    def test_keep_going_records_failure_and_continues(self, pair):
        registry = MetricsRegistry()
        runner = ExperimentRunner(repeats=1, registry=registry,
                                  continue_on_error=True)
        results = runner.run_pair(pair, self.SPECS)
        assert set(results) == {"constant"}
        assert registry.counter("resilience.method_failures").value == 1
        failures = [
            run for run in runner.run_manifest()["runs"] if "error" in run
        ]
        assert failures == [{
            "pair": pair.name,
            "method": "exploding",
            "repeat": 0,
            "error": "RuntimeError: synthetic failure",
        }]

    def test_manifest_records_continue_on_error_flag(self, pair):
        runner = ExperimentRunner(continue_on_error=True,
                                  registry=MetricsRegistry())
        assert runner.run_manifest()["config"]["continue_on_error"] is True
