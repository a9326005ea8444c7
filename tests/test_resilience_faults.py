"""Fault-injection suite: every recovery path exercised deterministically.

Marked ``faults`` (registered in pyproject.toml) and run as part of
tier-1.  Covers the acceptance properties of the resilience subsystem:

* an injected NaN gradient triggers rollback + LR halving, increments
  ``resilience.recoveries``, and training still converges to finite loss;
* a run killed mid-training and resumed from a v2 checkpoint reaches
  the same final weights (within 1e-12) as an uninterrupted run.
"""

import numpy as np
import pytest

from repro.core import (
    GAlignConfig,
    GAlignTrainer,
    load_model,
    load_training_checkpoint,
)
from repro.graphs import generators, noisy_copy_pair
from repro.observability import MetricsRegistry
from repro.resilience import (
    Fault,
    FaultInjector,
    InjectedFault,
    SimulatedKill,
    TrainingDivergedError,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(3)
    graph = generators.barabasi_albert(30, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


def _config(**overrides):
    defaults = dict(epochs=10, embedding_dim=8, num_augmentations=1)
    defaults.update(overrides)
    return GAlignConfig(**defaults)


class TestFaultInjector:
    def test_parse_spec(self):
        injector = FaultInjector.parse("nan_gradient@3, kill@7")
        assert injector.pending() == [
            Fault("nan_gradient", 3), Fault("kill", 7)
        ]

    def test_parse_rejects_malformed_entry(self):
        with pytest.raises(ValueError, match="kind@step"):
            FaultInjector.parse("nan_gradient")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("segfault", 1)

    def test_exception_fires_once_at_configured_step(self):
        injector = FaultInjector([Fault("exception", 2)])
        injector.at_step(0)
        injector.at_step(1)
        with pytest.raises(InjectedFault, match="step 2"):
            injector.at_step(2)
        injector.at_step(2)  # already fired: no second raise
        assert injector.fired == [Fault("exception", 2)]

    def test_kill_is_not_an_ordinary_exception(self):
        injector = FaultInjector([Fault("kill", 0)])
        with pytest.raises(SimulatedKill):
            try:
                injector.at_step(0)
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedKill must not be catchable as Exception")

    def test_firing_is_counted(self):
        registry = MetricsRegistry()
        injector = FaultInjector([Fault("exception", 0)], registry=registry)
        with pytest.raises(InjectedFault):
            injector.at_step(0)
        assert registry.counter("resilience.faults_injected").value == 1


class TestNanGradientRecovery:
    def test_recovery_counted_and_training_converges(self, pair):
        registry = MetricsRegistry()
        injector = FaultInjector([Fault("nan_gradient", 4)],
                                 registry=registry)
        trainer = GAlignTrainer(_config(), np.random.default_rng(7),
                                registry=registry, fault_injector=injector)
        _, log = trainer.train(pair)
        assert registry.counter("resilience.recoveries").value == 1
        assert registry.counter("resilience.nonfinite_gradients").value == 1
        assert len(log.total) == 10
        assert np.isfinite(log.final_loss)

    def test_learning_rate_halved_on_recovery(self, pair):
        registry = MetricsRegistry()
        events = []
        registry.add_hook(lambda event, payload: events.append((event, payload)))
        config = _config(learning_rate=0.02)
        injector = FaultInjector([Fault("nan_gradient", 2)],
                                 registry=registry)
        trainer = GAlignTrainer(config, np.random.default_rng(7),
                                registry=registry, fault_injector=injector)
        trainer.train(pair)
        recoveries = [p for e, p in events if e == "resilience.recovery"]
        assert len(recoveries) == 1
        assert recoveries[0]["reason"] == "nonfinite_gradients"
        assert recoveries[0]["learning_rate"] == pytest.approx(0.01)

    def test_budget_exhaustion_raises_diverged(self, pair):
        # One NaN injection per epoch, budget 2: the third strike raises.
        registry = MetricsRegistry()
        faults = [Fault("nan_gradient", step) for step in range(6)]
        injector = FaultInjector(faults, registry=registry)
        config = _config(max_recoveries=2)
        trainer = GAlignTrainer(config, np.random.default_rng(7),
                                registry=registry, fault_injector=injector)
        with pytest.raises(TrainingDivergedError) as excinfo:
            trainer.train(pair)
        assert excinfo.value.attempts == 2
        assert registry.counter("resilience.recoveries").value == 2


class TestKillResumeDeterminism:
    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["dense-eager", "dense-compiled"]
    )
    def test_resumed_run_matches_uninterrupted(self, pair, tmp_path,
                                               compiled):
        # float64 only: a float32 capture epoch runs eagerly, so a resumed
        # run legitimately differs from an uninterrupted one there.
        config = _config(compile=compiled, compile_dtype="float64")

        def make_trainer(fault_injector=None):
            return GAlignTrainer(config, np.random.default_rng(11),
                                 fault_injector=fault_injector)

        reference_model, reference_log = make_trainer().train(pair)

        path = str(tmp_path / "train.npz")
        injector = FaultInjector([Fault("kill", 6)])
        with pytest.raises(SimulatedKill):
            make_trainer(injector).train(pair, checkpoint_path=path)

        resumed_model, resumed_log = make_trainer().train(
            pair, checkpoint_path=path, resume_from=path
        )
        for reference, resumed in zip(
            reference_model.state_dict(), resumed_model.state_dict()
        ):
            np.testing.assert_allclose(resumed, reference, atol=1e-12,
                                       rtol=0.0)
        assert resumed_log.total == reference_log.total

    def test_resume_restores_loss_history(self, pair, tmp_path):
        path = str(tmp_path / "train.npz")
        injector = FaultInjector([Fault("kill", 5)])
        trainer = GAlignTrainer(_config(), np.random.default_rng(11),
                                fault_injector=injector)
        with pytest.raises(SimulatedKill):
            trainer.train(pair, checkpoint_path=path)
        checkpoint = load_training_checkpoint(path)
        assert checkpoint.epoch == 4  # last completed epoch before the kill
        assert len(checkpoint.log_history["total"]) == 5

    def test_resume_counted_in_registry(self, pair, tmp_path):
        path = str(tmp_path / "train.npz")
        injector = FaultInjector([Fault("kill", 3)])
        with pytest.raises(SimulatedKill):
            GAlignTrainer(
                _config(), np.random.default_rng(11), fault_injector=injector
            ).train(pair, checkpoint_path=path)
        registry = MetricsRegistry()
        GAlignTrainer(_config(), np.random.default_rng(11),
                      registry=registry).train(pair, resume_from=path)
        assert registry.counter("resilience.resumes").value == 1
        assert registry.counter("trainer.epochs").value == 7  # 10 - 3 done

    def test_v2_checkpoint_loads_as_plain_model(self, pair, tmp_path):
        path = str(tmp_path / "train.npz")
        trainer = GAlignTrainer(_config(epochs=4), np.random.default_rng(11))
        model, _ = trainer.train(pair, checkpoint_path=path)
        reloaded, _ = load_model(path)
        for original, restored in zip(
            model.state_dict(), reloaded.state_dict()
        ):
            np.testing.assert_allclose(restored, original, rtol=1e-12)

    def test_checkpoint_every_respects_interval(self, pair, tmp_path):
        path = str(tmp_path / "train.npz")
        registry = MetricsRegistry()
        GAlignTrainer(
            _config(epochs=9), np.random.default_rng(11), registry=registry
        ).train(pair, checkpoint_path=path, checkpoint_every=4)
        # Epochs 4 and 8, plus the final epoch 9.
        assert registry.counter("resilience.checkpoints_saved").value == 3


def _train_in_worker(checkpoint_path, kill_epoch, resume):
    # Runs inside a forked WorkerPool worker: rebuild the pair from its
    # seed (cheaper and more deterministic than pickling it over) and
    # train, optionally with a planned mid-training kill.
    rng = np.random.default_rng(3)
    graph = generators.barabasi_albert(30, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    worker_pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    injector = None
    if kill_epoch is not None:
        injector = FaultInjector([Fault("kill", kill_epoch)])
    trainer = GAlignTrainer(_config(), np.random.default_rng(11),
                            fault_injector=injector)
    model, log = trainer.train(
        worker_pair,
        checkpoint_path=checkpoint_path,
        resume_from=checkpoint_path if resume else None,
    )
    return model.state_dict(), list(log.total)


class TestKillResumeInsideWorker:
    def test_worker_killed_mid_training_resumes_bit_identical(self, tmp_path):
        # The full story in one test: a training task dies *inside a
        # pool worker* (a real forked process, not an inline raise), the
        # parent observes the crash as a typed per-task failure, and a
        # second worker resumes from the checkpoint the dead one left
        # behind — landing on exactly the weights of an uninterrupted
        # run.
        import os

        from repro.observability import MetricsRegistry
        from repro.parallel import TaskFailure, WorkerPool
        from repro.resilience import WorkerCrashError

        registry = MetricsRegistry()
        path = str(tmp_path / "worker-train.npz")
        pool = WorkerPool(2, max_retries=0, registry=registry)

        [failure] = pool.map(
            _train_in_worker, [(path, 6, False)],
            labels=["train-shard"], crash_policy="return",
        )
        assert isinstance(failure, TaskFailure)
        assert isinstance(failure.error, WorkerCrashError)
        assert "train-shard" in str(failure.error)
        assert registry.counter("parallel.worker_crashes").value == 1
        # The kill landed after epoch 6's hooks: the atomic checkpoint
        # of epoch 5 survived the worker's death intact.
        assert os.path.exists(path)
        checkpoint = load_training_checkpoint(path)
        assert checkpoint.epoch == 5

        [(resumed_state, resumed_log)] = pool.map(
            _train_in_worker, [(path, None, True)]
        )
        [(reference_state, reference_log)] = pool.map(
            _train_in_worker, [(str(tmp_path / "ref.npz"), None, False)]
        )
        assert resumed_log == reference_log
        for resumed, reference in zip(resumed_state, reference_state):
            np.testing.assert_allclose(resumed, reference, atol=1e-12,
                                       rtol=0.0)
