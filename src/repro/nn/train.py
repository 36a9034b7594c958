"""Richer training infrastructure (Trainer, schedules, callbacks).

:class:`~repro.nn.model.Sequential.fit` covers the paper's fixed-LR SGD
protocol; downstream training wants learning-rate schedules, early
stopping, gradient clipping and checkpoints.  The :class:`Trainer` here
composes those around the same forward/backward core, so APA backends
flow through unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import History, Sequential
from repro.nn.optim import SGD, Optimizer
from repro.obs import tracer as _obs_tracer
from repro.obs.registry import default_registry

__all__ = [
    "LRSchedule",
    "ConstantLR",
    "StepLR",
    "CosineLR",
    "EarlyStopping",
    "Trainer",
    "TrainerCheckpoint",
    "clip_gradients",
]


class LRSchedule:
    """Maps epoch index (0-based) to a learning rate."""

    def rate(self, epoch: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLR(LRSchedule):
    lr: float

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    def rate(self, epoch: int) -> float:
        return self.lr


@dataclass(frozen=True)
class StepLR(LRSchedule):
    """Multiply the rate by ``gamma`` every ``step`` epochs."""

    lr: float
    step: int = 10
    gamma: float = 0.1

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.step < 1 or not (0 < self.gamma <= 1):
            raise ValueError("bad StepLR parameters")

    def rate(self, epoch: int) -> float:
        return self.lr * self.gamma ** (epoch // self.step)


@dataclass(frozen=True)
class CosineLR(LRSchedule):
    """Cosine annealing from ``lr`` to ``lr_min`` over ``total`` epochs."""

    lr: float
    total: int
    lr_min: float = 0.0

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.total < 1 or self.lr_min < 0:
            raise ValueError("bad CosineLR parameters")

    def rate(self, epoch: int) -> float:
        t = min(epoch, self.total) / self.total
        return self.lr_min + 0.5 * (self.lr - self.lr_min) * (1 + math.cos(math.pi * t))


@dataclass
class EarlyStopping:
    """Stop when the monitored metric hasn't improved for ``patience``
    epochs.  Monitors test accuracy when available, else training loss."""

    patience: int = 5
    min_delta: float = 0.0
    _best: float = field(default=-math.inf, repr=False)
    _stale: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")

    def update(self, metric: float) -> bool:
        """Feed this epoch's metric (higher is better); True = stop now."""
        if metric > self._best + self.min_delta:
            self._best = metric
            self._stale = 0
            return False
        self._stale += 1
        return self._stale >= self.patience


@dataclass(frozen=True)
class TrainerCheckpoint:
    """In-memory snapshot of a :class:`Trainer`'s mutable training state.

    Holds deep copies of every model parameter and the optimizer's slot
    state (momentum velocities, Adam moments/step count), so restoring
    resumes the run exactly as it was — the restore path the
    :class:`~repro.robustness.divergence.DivergenceGuard` rollback and
    checkpointing users both need.
    """

    epoch: int
    params: tuple[np.ndarray, ...]
    opt_arrays: dict[str, tuple[np.ndarray, ...]]
    opt_scalars: dict[str, float | int]


# Optimizer slot state captured by Trainer.checkpoint: per-parameter
# array lists and plain counters (Momentum._velocity, Adam._m/_v/_t).
_OPT_ARRAY_SLOTS = ("_velocity", "_m", "_v")
_OPT_SCALAR_SLOTS = ("_t",)


def clip_gradients(params, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad *= scale
    return total


class Trainer:
    """Composable training loop around a :class:`Sequential` model.

    Parameters
    ----------
    model, optimizer, loss:
        The usual trio; optimizer defaults to SGD at the schedule's rate.
    schedule:
        An :class:`LRSchedule`; the optimizer's ``lr`` is set from it at
        the start of every epoch.
    early_stopping:
        Optional :class:`EarlyStopping` monitor.
    grad_clip:
        Optional global-norm gradient clip applied before each step.
    epoch_callback:
        Optional ``fn(epoch_index, history)`` invoked after each epoch
        (checkpointing hook).
    divergence_guard:
        Optional :class:`~repro.robustness.divergence.DivergenceGuard`.
        When set, every epoch's mean loss and parameters are health
        checked; a diverged epoch is rolled back to the last healthy
        checkpoint, the model's matmul backends are downgraded one
        escalation rung, and the epoch reruns (bounded — the guard aborts
        cleanly once its rollback budget is spent).
    """

    def __init__(
        self,
        model: Sequential,
        schedule: LRSchedule | None = None,
        optimizer: Optimizer | None = None,
        loss=None,
        early_stopping: EarlyStopping | None = None,
        grad_clip: float | None = None,
        epoch_callback: Callable[[int, History], None] | None = None,
        divergence_guard=None,
    ) -> None:
        self.model = model
        self.schedule = schedule or ConstantLR(0.1)
        self.optimizer = optimizer or SGD(model.parameters(),
                                          lr=self.schedule.rate(0))
        self.loss = loss or SoftmaxCrossEntropy()
        self.early_stopping = early_stopping
        self.grad_clip = grad_clip
        self.epoch_callback = epoch_callback
        self.divergence_guard = divergence_guard

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, epoch: int = -1) -> TrainerCheckpoint:
        """Snapshot parameters + optimizer slot state (deep copies)."""
        opt_arrays = {
            slot: tuple(np.copy(a) for a in getattr(self.optimizer, slot))
            for slot in _OPT_ARRAY_SLOTS if hasattr(self.optimizer, slot)
        }
        opt_scalars = {
            slot: getattr(self.optimizer, slot)
            for slot in _OPT_SCALAR_SLOTS if hasattr(self.optimizer, slot)
        }
        return TrainerCheckpoint(
            epoch=epoch,
            params=tuple(np.copy(p.value) for p in self.model.parameters()),
            opt_arrays=opt_arrays,
            opt_scalars=opt_scalars,
        )

    def restore(self, checkpoint: TrainerCheckpoint) -> None:
        """Restore a :meth:`checkpoint` snapshot in place.

        Parameter values, gradients (zeroed), and optimizer slot state
        all revert; the model's backends are left untouched — they are
        runtime policy, managed by the caller (or the divergence guard).
        """
        params = self.model.parameters()
        if len(params) != len(checkpoint.params):
            raise ValueError(
                f"checkpoint has {len(checkpoint.params)} parameters, "
                f"model has {len(params)}"
            )
        for p, saved in zip(params, checkpoint.params):
            if p.value.shape != saved.shape:
                raise ValueError(
                    f"parameter shape {p.value.shape} does not match "
                    f"checkpoint shape {saved.shape}"
                )
            p.value[...] = saved
            p.zero_grad()
        for slot, arrays in checkpoint.opt_arrays.items():
            live = getattr(self.optimizer, slot)
            for buf, saved in zip(live, arrays):
                buf[...] = saved
        for slot, value in checkpoint.opt_scalars.items():
            setattr(self.optimizer, slot, value)

    def plan_stats(self) -> dict:
        """Plan-cache and thread-pool counters for this model's backends.

        Walks the model's layer backends (unwrapping guards), resolves
        each one's plan cache (the shared process default unless a layer
        was given a private cache), and returns the deduplicated cache
        stats plus the persistent worker-pool counters — the numbers the
        hot-path bench reports.  Every backend that plans — sequential
        or non-stationary, built by
        :meth:`~repro.core.engine.ExecutionEngine.backend` — exposes
        the same ``plan_cache`` knob.
        """
        from repro.core.plan import resolve_plan_cache
        from repro.parallel.pool import pool_stats

        caches = []
        for layer in getattr(self.model, "layers", []):
            backend = getattr(layer, "backend", None)
            if backend is None:
                continue
            backend = getattr(backend, "inner", backend)  # unwrap guards
            if not hasattr(backend, "plan_cache"):
                continue  # classical backends never plan
            try:
                cache = resolve_plan_cache(backend.plan_cache)
            except TypeError:
                continue
            if cache is not None and all(cache is not c for c in caches):
                caches.append(cache)
        return {
            "plan_caches": [cache.stats() for cache in caches],
            "pool": pool_stats(),
        }

    def _train_step(self, xb: np.ndarray, yb: np.ndarray) -> tuple[float, int]:
        """One forward/backward/update; returns (batch loss, # correct)."""
        logits = self.model.forward(xb, training=True)
        loss = self.loss.forward(logits, yb)
        self.optimizer.zero_grad()
        self.model.backward(self.loss.backward())
        if self.grad_clip is not None:
            clip_gradients(self.optimizer.params, self.grad_clip)
        self.optimizer.step()
        return loss, int((np.argmax(logits, axis=1) == yb).sum())

    def _run_epoch(self, x_train: np.ndarray, y_train: np.ndarray,
                   order: np.ndarray,
                   batch_size: int) -> tuple[float, int, int]:
        """All batches of one epoch; returns (loss sum, correct, batches)."""
        tracer = _obs_tracer.ACTIVE
        total_loss, correct, batches = 0.0, 0, 0
        for start in range(0, x_train.shape[0], batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x_train[idx], y_train[idx]
            if tracer is None:
                loss, ok = self._train_step(xb, yb)
            else:
                with tracer.span("train.step", cat="nn", batch=batches,
                                 size=int(len(idx))):
                    loss, ok = self._train_step(xb, yb)
            total_loss += loss
            correct += ok
            batches += 1
        return total_loss, correct, batches

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        epochs: int,
        batch_size: int,
        x_test: np.ndarray | None = None,
        y_test: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> History:
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError("x/y sample counts differ")
        rng = rng or np.random.default_rng(0)
        history = History()
        n = x_train.shape[0]

        if self.divergence_guard is not None:
            self.divergence_guard.on_train_begin(self)

        epoch = 0
        retry_order = None
        while epoch < epochs:
            self.optimizer.lr = self.schedule.rate(epoch)
            # A rolled-back epoch reruns with the same permutation it
            # failed with, keeping the rng stream — and therefore the
            # whole post-recovery trajectory — aligned with a run that
            # never faulted.
            order = retry_order if retry_order is not None else rng.permutation(n)
            retry_order = None
            tracer = _obs_tracer.ACTIVE
            t0 = time.perf_counter()
            if tracer is None:
                total_loss, correct, batches = self._run_epoch(
                    x_train, y_train, order, batch_size)
            else:
                with tracer.span("train.epoch", cat="nn", epoch=epoch,
                                 lr=self.optimizer.lr):
                    total_loss, correct, batches = self._run_epoch(
                        x_train, y_train, order, batch_size)
            epoch_seconds = time.perf_counter() - t0
            # Counters cover *executed* epochs (rolled-back ones burned
            # real time too); history keeps only the healthy ones.
            registry = default_registry()
            registry.counter("repro_train_epochs_total").inc()
            registry.counter("repro_train_steps_total").inc(batches)
            registry.histogram("repro_train_epoch_seconds").observe(
                epoch_seconds)
            mean_loss = total_loss / batches
            if self.divergence_guard is not None:
                verdict = self.divergence_guard.check(self, epoch, mean_loss)
                if verdict == "rollback":
                    retry_order = order
                    continue  # state recovered — rerun this epoch
                if verdict == "abort":
                    break
            history.train_loss.append(mean_loss)
            history.train_accuracy.append(correct / n)
            history.epoch_seconds.append(epoch_seconds)
            if x_test is not None and y_test is not None:
                history.test_accuracy.append(self.model.accuracy(x_test, y_test))
            if self.epoch_callback is not None:
                self.epoch_callback(epoch, history)
            if self.early_stopping is not None:
                metric = (history.test_accuracy[-1] if history.test_accuracy
                          else -history.train_loss[-1])
                if self.early_stopping.update(metric):
                    break
            epoch += 1
        return history
