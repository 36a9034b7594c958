"""Training-loop guard: detect divergence, roll back, downgrade, resume.

The paper's Fig-5 story is that APA error is harmless *up to a cliff*;
:mod:`repro.experiments.robustness` measures where the cliff is, and this
module reacts before a run falls off it.  :class:`DivergenceGuard` hooks
into :class:`~repro.nn.train.Trainer`: after every epoch it checks the
mean loss and the parameters for NaN/Inf or explosion, and on divergence

1. restores the last healthy :class:`~repro.nn.train.TrainerCheckpoint`,
2. downgrades the model's matmul backends one escalation rung
   (recursion depth to 1 first, then classical gemm), and
3. lets the epoch run again with the recovered state.

Rollbacks are bounded (``max_rollbacks``); past the bound the guard
aborts training cleanly rather than looping, returning whatever history
accumulated — fail soft, never hang.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.backend import ClassicalBackend
from repro.robustness.events import EventLog

__all__ = ["DivergenceGuard", "downgrade_backends"]


def _replacement_for(backend):
    """The next rung down for a backend that must be abandoned."""
    fallback = getattr(backend, "fallback", None)
    return fallback if fallback is not None else ClassicalBackend()


def _is_classical(backend) -> bool:
    """Plain classical gemm: a :class:`ClassicalBackend`, or an
    ``engine.backend()`` without algorithm whose gemm seam is free (a
    fault injector there is a rung to walk down from)."""
    return (getattr(backend, "name", None) == "classical"
            and getattr(backend, "gemm", None) is None)


def downgrade_backends(model, log: EventLog | None = None) -> int:
    """Walk one escalation rung down on every non-classical layer backend.

    Backends running multiple recursion steps are first reduced to one
    step (removing ``phi`` per peeled level from the roundoff exponent);
    backends already at one step — or without the knob — are replaced by
    classical gemm.  Returns the number of layers changed.
    """
    changed = 0
    for i, layer in enumerate(model.layers):
        backend = getattr(layer, "backend", None)
        if backend is None or _is_classical(backend):
            continue
        target = getattr(backend, "inner", backend)
        if getattr(target, "steps", 1) > 1:
            target.steps = 1
            if log is not None:
                log.emit("reduce-steps", f"layer {i}",
                         f"{backend.name}: recursion depth -> 1")
        else:
            layer.backend = _replacement_for(backend)
            if log is not None:
                log.emit("downgrade", f"layer {i}",
                         f"{backend.name} -> {layer.backend.name}")
        changed += 1
    return changed


class DivergenceGuard:
    """Epoch-level divergence detector with rollback + downgrade.

    Parameters
    ----------
    loss_factor:
        An epoch whose mean loss exceeds ``loss_factor`` times the best
        healthy loss seen so far counts as diverged (NaN/Inf always
        does).
    max_rollbacks:
        Total rollbacks allowed before the guard aborts training.
    log:
        Shared :class:`EventLog` for the emitted ``divergence`` /
        ``rollback`` / ``downgrade`` events.
    """

    def __init__(
        self,
        loss_factor: float = 10.0,
        max_rollbacks: int = 3,
        log: EventLog | None = None,
    ) -> None:
        if loss_factor <= 1:
            raise ValueError("loss_factor must be > 1")
        if max_rollbacks < 1:
            raise ValueError("max_rollbacks must be >= 1")
        self.loss_factor = loss_factor
        self.max_rollbacks = max_rollbacks
        # `or` would discard an empty EventLog (it is falsy via __len__)
        self.log = log if log is not None else EventLog()
        self.rollbacks = 0
        self._best_loss = math.inf
        self._checkpoint = None

    # -- hooks called by Trainer.fit -----------------------------------

    def on_train_begin(self, trainer) -> None:
        """Snapshot the initial state so even epoch 0 can roll back."""
        self._checkpoint = trainer.checkpoint(epoch=-1)

    def check(self, trainer, epoch: int, mean_loss: float) -> str:
        """Judge one finished epoch: ``'ok'`` | ``'rollback'`` | ``'abort'``.

        ``'ok'`` epochs are snapshotted as the new rollback target;
        ``'rollback'`` means state was restored and downgraded and the
        epoch should be retried; ``'abort'`` means the rollback budget is
        spent and training should stop with the history so far.
        """
        if not self._diverged(trainer, mean_loss):
            self._best_loss = min(self._best_loss, float(mean_loss))
            self._checkpoint = trainer.checkpoint(epoch=epoch)
            return "ok"

        self.log.emit("divergence", f"epoch {epoch}",
                      f"mean loss {mean_loss!r} "
                      f"(best healthy {self._best_loss:.4g})")
        if self.rollbacks >= self.max_rollbacks:
            self.log.emit("divergence-unrecovered", f"epoch {epoch}",
                          f"rollback budget ({self.max_rollbacks}) spent; "
                          "aborting training")
            return "abort"
        self.rollbacks += 1
        if self._checkpoint is not None:
            trainer.restore(self._checkpoint)
            self.log.emit("rollback", f"epoch {epoch}",
                          f"restored checkpoint of epoch "
                          f"{self._checkpoint.epoch}")
        downgrade_backends(trainer.model, log=self.log)
        return "rollback"

    # -- detection -----------------------------------------------------

    def _diverged(self, trainer, mean_loss: float) -> bool:
        if not math.isfinite(mean_loss):
            return True
        if (math.isfinite(self._best_loss)
                and mean_loss > self.loss_factor * self._best_loss):
            return True
        return any(
            not np.isfinite(p.value).all() for p in trainer.model.parameters()
        )
