"""The resilient epoch loop and the tape capture wrapper of Alg 1.

:class:`~repro.core.trainer.GAlignTrainer` hands its loss to
:func:`run_resilient_training` as a ``compute_losses(epoch)`` callable;
everything around it — zero grads, backward, clip, step, log,
numerical-health guards, rollback recovery, fault-injection hooks, and
v2 checkpoint save/resume — lives here.  With ``config.compile`` the
callable is a :class:`CompiledLoss`.

Resume semantics (the property the kill/resume tests pin down): a
trainer first replays its deterministic prefix (model init, augmented
views) from the run's seed, then this loop overwrites model weights,
optimizer state, and RNG state from the checkpoint and continues at
``epoch + 1``.  An interrupted-and-resumed run therefore takes exactly
the same floating-point steps as an uninterrupted one.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, TapeRecorder, clip_grad_norm
from ..observability import MetricsRegistry, get_tracer
from ..resilience import FaultInjector, RecoveryManager, TrainingDivergedError
from .checkpoint import load_training_checkpoint, save_training_checkpoint
from .config import GAlignConfig
from .model import MultiOrderGCN

__all__ = ["run_resilient_training", "CompiledLoss"]

#: ``compute_losses(epoch)`` → (total loss tensor, consistency, adaptivity).
LossFn = Callable[[int], Tuple[Tensor, float, float]]


def _leaves(tree: Any) -> List[Tensor]:
    """The tensors of a nested list/tuple, depth first, ``None`` skipped."""
    if isinstance(tree, (list, tuple)):
        return [leaf for item in tree for leaf in _leaves(item)]
    return [] if tree is None else [tree]


def _refill(tree: Any, leaves: Iterator) -> Any:
    """``tree`` with each non-``None`` leaf replaced by ``next(leaves)``."""
    if isinstance(tree, (list, tuple)):
        return type(tree)(_refill(item, leaves) for item in tree)
    return None if tree is None else next(leaves)


class CompiledLoss:
    """Capture-once / replay-thereafter wrapper for Alg 1's loss.

    ``loss()`` builds the whole loss — it depends only on the fixed
    graphs and views and on the weights — and returns it as a nested
    list/tuple of tensors (``None`` leaves allowed) whose first leaf is
    the total the backward starts from.

    The first call runs ``loss`` under a
    :class:`~repro.autograd.TapeRecorder` and returns its eager result,
    so the capture epoch is identical to uncompiled training; the tape's
    backward order is fixed by that epoch's total.  Every later call
    replays the tape (fused kernels, reused buffers, no graph rebuild)
    against the parameters' live values and returns the replayed
    tensors in the same structure.  Replay reads only parameter data, so
    it is transparent to rollback recovery and checkpoint resume.
    """

    def __init__(self, loss: Callable[[], Any], dtype: str = "float32") -> None:
        self._loss = loss
        self._dtype = dtype
        #: The compiled tape, available after the first call.
        self.tape = None
        self._layout = None

    def __call__(self, epoch: int) -> Any:
        if self.tape is None:
            recorder = TapeRecorder()
            with get_tracer().span("tape.capture"):
                with recorder:
                    static = self._loss()
            leaves = _leaves(static)
            self.tape = recorder.finalize(
                leaves, order_root=leaves[0], dtype=self._dtype
            )
            # Keep only the structure, so the capture epoch's tensors
            # (and the graph behind them) can be freed.
            self._layout = _refill(static, itertools.repeat(True))
            return static
        return _refill(self._layout, iter(self.tape.replay()))


def _resume(
    resume_from: str,
    model: MultiOrderGCN,
    optimizer,
    rng: Optional[np.random.Generator],
    log,
    registry: MetricsRegistry,
) -> int:
    """Restore a v2 checkpoint into the live objects; return start epoch."""
    checkpoint = load_training_checkpoint(resume_from)
    if checkpoint.input_dim != model.input_dim:
        raise ValueError(
            f"checkpoint {resume_from!r} was trained on input_dim="
            f"{checkpoint.input_dim}, this run uses {model.input_dim}"
        )
    if checkpoint.config.num_layers != model.config.num_layers or (
        checkpoint.config.embedding_dim != model.config.embedding_dim
    ):
        raise ValueError(
            f"checkpoint {resume_from!r} architecture "
            f"(layers={checkpoint.config.num_layers}, "
            f"dim={checkpoint.config.embedding_dim}) does not match the "
            f"configured model (layers={model.config.num_layers}, "
            f"dim={model.config.embedding_dim})"
        )
    model.load_state_dict(checkpoint.weights)
    optimizer.load_state_dict(checkpoint.optimizer_state)
    if rng is not None and checkpoint.rng_state is not None:
        rng.bit_generator.state = checkpoint.rng_state
    # Restore the loss trajectory directly (no re-emission: the restored
    # epochs were already observed by the run that saved them).
    log.total.extend(checkpoint.log_history.get("total", []))
    log.consistency.extend(checkpoint.log_history.get("consistency", []))
    log.adaptivity.extend(checkpoint.log_history.get("adaptivity", []))
    registry.increment("resilience.resumes")
    registry.emit(
        "resilience.resume",
        {"path": resume_from, "epoch": checkpoint.epoch},
    )
    return checkpoint.epoch + 1


def run_resilient_training(
    *,
    model: MultiOrderGCN,
    optimizer,
    config: GAlignConfig,
    registry: MetricsRegistry,
    log,
    compute_losses: LossFn,
    rng: Optional[np.random.Generator] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 1,
    resume_from: Optional[str] = None,
    fault_injector: Optional[FaultInjector] = None,
):
    """Run the guarded epoch loop; returns ``log`` (mutated in place).

    Per epoch: optional fault hooks fire, the loss is computed and
    backpropagated, and the health check runs *before* the optimizer
    step so a non-finite loss/gradient or a loss spike never touches the
    weights — instead the :class:`RecoveryManager` rolls back to the
    last healthy snapshot, halves the learning rate, and the epoch is
    retried under the ``config.max_recoveries`` budget
    (:class:`~repro.resilience.TrainingDivergedError` beyond it).

    With ``checkpoint_path`` set, a v2 training checkpoint is written
    after every ``checkpoint_every``-th completed epoch (atomically, so
    kills during the save cannot corrupt the previous one).
    """
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    start_epoch = 0
    if resume_from is not None:
        start_epoch = _resume(
            resume_from, model, optimizer, rng, log, registry
        )

    recovery = RecoveryManager(
        model,
        optimizer,
        max_recoveries=config.max_recoveries,
        divergence_factor=config.divergence_factor,
        divergence_warmup=config.divergence_warmup,
        registry=registry,
    )
    recovery.commit()  # initial snapshot: first-epoch failures can roll back

    tracer = get_tracer()
    epoch = start_epoch
    while epoch < config.epochs:
        with tracer.span("trainer.epoch", epoch=epoch), \
                registry.timed("trainer.epoch_time"):
            if fault_injector is not None:
                fault_injector.at_step(epoch)
            optimizer.zero_grad()
            with tracer.span("trainer.forward"), registry.timed(
                "trainer.forward_time"
            ):
                total, consistency_value, adaptivity_value = compute_losses(
                    epoch
                )
            with registry.timed("trainer.backward_time"):
                with tracer.span("trainer.backward"):
                    total.backward()
                if fault_injector is not None:
                    fault_injector.corrupt_gradients(
                        epoch, model.parameters()
                    )
                with tracer.span("trainer.clip_grad"):
                    try:
                        grad_norm = clip_grad_norm(
                            model.parameters(), max_norm=5.0
                        )
                        registry.record_histogram(
                            "trainer.grad_norm", grad_norm
                        )
                    except TrainingDivergedError:
                        # Non-finite gradients: leave them unclipped for
                        # the health check below, which rolls the epoch
                        # back instead of stepping the optimizer.
                        registry.increment(
                            "resilience.nonfinite_grad_norm"
                        )
            loss_value = float(total.data)
            reason = recovery.check(loss_value, model.parameters())
            if reason is not None:
                recovery.recover(reason, epoch)
                continue  # retry this epoch from the restored snapshot
            with tracer.span("trainer.step"), registry.timed(
                "trainer.step_time"
            ):
                optimizer.step()
            recovery.commit(loss_value)
        registry.increment("trainer.epochs")
        log.record(loss_value, consistency_value, adaptivity_value)
        epoch += 1
        if checkpoint_path is not None and (
            epoch % checkpoint_every == 0 or epoch == config.epochs
        ):
            save_training_checkpoint(
                checkpoint_path,
                model,
                optimizer,
                epoch - 1,
                rng=rng,
                log=log,
                registry=registry,
            )
    return log
