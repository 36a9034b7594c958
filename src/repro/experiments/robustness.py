"""Where does training actually break? (failure-injection study)

The paper's Fig 5 shows training is robust to the error of every
Table-1 algorithm (up to ~1e-1 relative error).  The natural follow-up
question — how much *more* matmul error can training absorb? — is
answered here by failure injection:

- :func:`run_error_tolerance_study` sweeps the injected relative error of
  the hidden-layer products over decades (using the surrogate error
  mechanism with a synthetic algorithm whose error scale we control) and
  records final accuracy: the robustness *cliff* sits orders of magnitude
  above the worst catalogued algorithm, which is the strongest version of
  the paper's conclusion;
- :func:`run_bad_lambda_study` injects mis-tuned lambda instead: it
  degrades the same way, confirming the mechanism (error magnitude, not
  lambda per se) is what matters;
- :func:`run_guarded_recovery_study` closes the loop: with a seeded
  fault poisoning the hidden-layer products mid-training, an unguarded
  run collapses to chance while a
  :class:`~repro.robustness.divergence.DivergenceGuard`-equipped run
  rolls back, downgrades the backend, and finishes within noise of the
  un-faulted baseline — the runtime *reacting* to the cliff this module
  otherwise only measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.smirnov import SurrogateAlgorithm
from repro.bench.tables import format_table
from repro.core.backend import ClassicalBackend
from repro.core.engine import default_engine
from repro.data.synth_mnist import load_synth_mnist
from repro.nn.mlp import build_accuracy_mlp

__all__ = [
    "TolerancePoint",
    "run_error_tolerance_study",
    "format_error_tolerance_study",
    "run_bad_lambda_study",
    "RecoveryResult",
    "run_guarded_recovery_study",
    "format_guarded_recovery_study",
]


@dataclass(frozen=True)
class TolerancePoint:
    relative_error: float
    test_accuracy: float
    classical_accuracy: float

    @property
    def gap(self) -> float:
        return self.classical_accuracy - self.test_accuracy


class _DialedErrorAlgorithm(SurrogateAlgorithm):
    """A surrogate whose injected relative error is set directly."""

    def __init__(self, relative_error: float):
        super().__init__(name=f"dialed_{relative_error:.0e}",
                         m=3, n=3, k=3, _rank=20, _sigma=1, _phi=6)
        self._dial = float(relative_error)

    def empirical_error_scale(self, d: int = 23, steps: int = 1) -> float:
        return self._dial


def _train_once(backend, epochs, n_train, n_test, batch_size, lr, seed):
    (x, y), (xt, yt) = load_synth_mnist(n_train=n_train, n_test=n_test,
                                        seed=seed)
    model = build_accuracy_mlp(hidden_backend=backend,
                               rng=np.random.default_rng(seed + 1))
    hist = model.fit(x, y, epochs=epochs, batch_size=batch_size, lr=lr,
                     x_test=xt, y_test=yt, rng=np.random.default_rng(seed + 2))
    return hist.test_accuracy[-1]


def run_error_tolerance_study(
    error_levels: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 3e-1, 6e-1, 1.0),
    epochs: int = 5,
    n_train: int = 3000,
    n_test: int = 600,
    batch_size: int = 150,
    lr: float = 0.2,
    seed: int = 0,
) -> list[TolerancePoint]:
    """Final test accuracy as a function of injected matmul error."""
    classical = _train_once(ClassicalBackend(), epochs, n_train, n_test,
                            batch_size, lr, seed)
    points = []
    for level in error_levels:
        backend = default_engine().backend(
            algorithm=_DialedErrorAlgorithm(level))
        acc = _train_once(backend, epochs, n_train, n_test, batch_size, lr,
                          seed)
        points.append(TolerancePoint(level, acc, classical))
    return points


def format_error_tolerance_study(points: list[TolerancePoint]) -> str:
    rows = [[f"{p.relative_error:.0e}", f"{p.test_accuracy:.4f}",
             f"{p.gap:+.4f}"] for p in points]
    return format_table(
        ["injected rel error", "test accuracy", "gap vs classical"],
        rows,
        title="Failure injection: hidden-product error vs final accuracy",
    )


def run_bad_lambda_study(
    algorithm: str = "smirnov444",
    lambda_scales: tuple[float, ...] = (1.0, 8.0, 64.0),
    epochs: int = 4,
    n_train: int = 2000,
    n_test: int = 400,
    batch_size: int = 100,
    lr: float = 0.2,
    seed: int = 0,
) -> list[TolerancePoint]:
    """Accuracy when lambda is mis-tuned by the given factor.

    A scale of 1.0 is the tuned optimum; larger factors grow the
    approximation error like ``scale**sigma``.
    """
    from repro.algorithms.catalog import get_algorithm
    from repro.core.lam import optimal_lambda

    classical = _train_once(ClassicalBackend(), epochs, n_train, n_test,
                            batch_size, lr, seed)
    alg = get_algorithm(algorithm)
    lam_opt = optimal_lambda(alg, d=23)
    points = []
    for scale in lambda_scales:
        backend = default_engine().backend(algorithm=alg,
                                           lam=lam_opt * scale)
        acc = _train_once(backend, epochs, n_train, n_test, batch_size, lr,
                          seed)
        effective = alg.empirical_error_scale(d=23) * scale**alg.sigma
        points.append(TolerancePoint(effective, acc, classical))
    return points


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of the guarded-vs-unguarded mid-training fault study."""

    clean_accuracy: float
    guarded_accuracy: float
    unguarded_accuracy: float
    rollbacks: int
    guard_events: tuple[str, ...]

    @property
    def guarded_gap(self) -> float:
        return self.clean_accuracy - self.guarded_accuracy

    @property
    def unguarded_gap(self) -> float:
        return self.clean_accuracy - self.unguarded_accuracy


def run_guarded_recovery_study(
    fault_epoch: int = 1,
    epochs: int = 6,
    n_train: int = 900,
    n_test: int = 300,
    batch_size: int = 100,
    lr: float = 0.2,
    seed: int = 0,
    max_rollbacks: int = 2,
) -> RecoveryResult:
    """Inject a mid-training divergence; compare guarded vs unguarded.

    From epoch ``fault_epoch + 1`` on, every hidden-layer product is
    NaN-poisoned (a persistent, seeded fault).  The unguarded run's
    parameters go non-finite and accuracy collapses to chance; the
    guarded run detects the diverged epoch, restores the checkpoint of
    epoch ``fault_epoch``, swaps the poisoned backend for classical
    gemm, and resumes.  Deterministic end to end given ``seed``.
    """
    from repro.nn.train import ConstantLR, Trainer
    from repro.robustness.divergence import DivergenceGuard
    from repro.robustness.inject import FaultSpec

    (x, y), (xt, yt) = load_synth_mnist(n_train=n_train, n_test=n_test,
                                        seed=seed)

    def run(faulted: bool, guarded: bool):
        backend = ClassicalBackend()
        if faulted:
            # Classical gemm with the injector on its (only) gemm call:
            # the fault fires once per layer product.
            backend = default_engine().backend(
                fault=FaultSpec(kind="nan", probability=1.0, seed=seed))
            backend.gemm.active = False

        model = build_accuracy_mlp(hidden_backend=backend,
                                   rng=np.random.default_rng(seed + 1))

        def arm(epoch, history):
            if faulted and epoch == fault_epoch:
                backend.gemm.active = True

        guard = DivergenceGuard(max_rollbacks=max_rollbacks) if guarded else None
        trainer = Trainer(model, schedule=ConstantLR(lr), epoch_callback=arm,
                          divergence_guard=guard)
        hist = trainer.fit(x, y, epochs=epochs, batch_size=batch_size,
                           x_test=xt, y_test=yt,
                           rng=np.random.default_rng(seed + 2))
        return hist.test_accuracy[-1], guard

    clean, _ = run(faulted=False, guarded=False)
    guarded_acc, guard = run(faulted=True, guarded=True)
    unguarded_acc, _ = run(faulted=True, guarded=False)
    return RecoveryResult(
        clean_accuracy=clean,
        guarded_accuracy=guarded_acc,
        unguarded_accuracy=unguarded_acc,
        rollbacks=guard.rollbacks,
        guard_events=tuple(e.kind for e in guard.log),
    )


def format_guarded_recovery_study(result: RecoveryResult) -> str:
    rows = [
        ["clean (no fault)", f"{result.clean_accuracy:.4f}", "-"],
        ["guarded + fault", f"{result.guarded_accuracy:.4f}",
         f"{result.guarded_gap:+.4f}"],
        ["unguarded + fault", f"{result.unguarded_accuracy:.4f}",
         f"{result.unguarded_gap:+.4f}"],
    ]
    table = format_table(
        ["run", "final accuracy", "gap vs clean"],
        rows,
        title="Mid-training fault: guarded rollback vs unguarded collapse",
    )
    events = ", ".join(result.guard_events) or "none"
    return f"{table}\nguard events: {events} ({result.rollbacks} rollback(s))"
