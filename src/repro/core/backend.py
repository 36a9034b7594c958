"""Pluggable matmul backends — the paper's "custom operator" boundary.

The paper swaps TensorFlow's matmul for custom operators: a classical
gemm-backed one (the fair baseline) and one per APA algorithm.  Our neural
network layers take the same seam: anything satisfying
:class:`MatmulBackend` can be injected into a
:class:`~repro.nn.layers.Dense` layer, and it will be used for the
forward product and both backward products.

Backends also count invocations and flops so the timing harness can
attribute training time to individual products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.apa_matmul import apa_matmul, apa_matmul_nonstationary

if TYPE_CHECKING:
    from repro.robustness.policy import EscalationPolicy

__all__ = ["MatmulBackend", "ClassicalBackend", "APABackend", "make_backend"]


@runtime_checkable
class MatmulBackend(Protocol):
    """Anything that multiplies two 2-D arrays."""

    name: str

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray: ...


@dataclass
class _CallStats:
    calls: int = 0
    flops: int = 0

    def record(self, A: np.ndarray, B: np.ndarray) -> None:
        self.calls += 1
        self.flops += 2 * A.shape[0] * A.shape[1] * B.shape[1]

    def reset(self) -> None:
        self.calls = 0
        self.flops = 0


@dataclass
class ClassicalBackend:
    """The baseline: a direct call to BLAS gemm via ``np.matmul``.

    Mirrors the paper's "custom classical operator that directly calls
    gemm".
    """

    name: str = "classical"
    stats: _CallStats = field(default_factory=_CallStats)

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        self.stats.record(A, B)
        return A @ B


@dataclass
class APABackend:
    """Backend running one catalogued (APA or exact fast) algorithm.

    Parameters
    ----------
    algorithm:
        An :class:`~repro.algorithms.spec.AlgorithmLike` (real or
        surrogate), or a tuple/list of them for non-stationary execution
        (paper §6: one algorithm per recursion level, dispatched through
        :func:`~repro.core.apa_matmul.apa_matmul_nonstationary`; requires
        ``steps=1`` — the level list *is* the recursion).
    lam:
        APA parameter; ``None`` picks the theory optimum per call from the
        operand dtype.
    steps:
        Recursion depth of the rule.
    min_dim:
        Products whose smallest dimension is below this fall back to plain
        gemm — fast rules only pay off above a size threshold (paper §3.3:
        crossover near dimension 2000 for standalone products; the NN
        experiments use the rule on the large hidden products only).  The
        default 0 never falls back, which is what the paper's NN setup
        does: the *network builder* decides which layers get the APA
        operator.
    gemm:
        Base-case multiply handed to :func:`apa_matmul`; ``None`` uses
        ``np.matmul``.  The fault injectors in
        :mod:`repro.robustness.inject` hook this seam to poison
        individual sub-products.
    plan_cache:
        Forwarded to :func:`apa_matmul`: ``None`` (default) shares the
        process-wide :class:`~repro.core.plan.PlanCache` — a training
        loop's repeated layer shapes then hit warm plans — ``False``
        builds an uncached plan per call, and a ``PlanCache`` instance
        scopes the plans to this backend.
    """

    algorithm: object
    lam: float | None = None
    steps: int = 1
    min_dim: int = 0
    gemm: object = None
    name: str = ""
    stats: _CallStats = field(default_factory=_CallStats)
    fallback_calls: int = 0
    plan_cache: object = None

    def __post_init__(self) -> None:
        if isinstance(self.algorithm, (tuple, list)):
            self.algorithm = tuple(self.algorithm)
            if not self.algorithm:
                raise ValueError("need at least one algorithm")
            if self.steps != 1:
                raise ValueError(
                    "steps does not apply to a non-stationary algorithm "
                    "list — the level list is the recursion")
            if not self.name:
                self.name = "apa:" + "+".join(
                    a.name for a in self.algorithm)
        if not self.name:
            self.name = f"apa:{self.algorithm.name}"
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.min_dim < 0:
            raise ValueError("min_dim must be >= 0")
        if self.lam is not None and (
            not np.isfinite(self.lam) or self.lam <= 0
        ):
            raise ValueError(f"lam must be finite and > 0, got {self.lam!r}")

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        self.stats.record(A, B)
        if self.min_dim and min(A.shape[0], A.shape[1], B.shape[1]) < self.min_dim:
            self.fallback_calls += 1
            return A @ B
        return self._stack().matmul(A, B)

    def _stack(self):
        """The (empty) backend stack this class is a shim over.

        An empty :class:`~repro.backends.stack.BackendStack` composes
        no stages, so its ``matmul`` *is* the target's — bit-identical
        to the pre-stack code — while keeping one construction path for
        everything that wraps a matmul.  The target reads this
        backend's live knobs per call, so escalation write-backs
        (``lam``/``steps``) keep working through the stack.
        """
        stack = getattr(self, "_stack_obj", None)
        if stack is None:
            from repro.backends.stack import BackendStack

            stack = BackendStack((), target=_APATarget(self))
            self._stack_obj = stack
        return stack


class _APATarget:
    """Terminal adapter running an :class:`APABackend`'s live knobs."""

    __slots__ = ("_backend",)

    def __init__(self, backend: "APABackend") -> None:
        self._backend = backend

    @property
    def name(self) -> str:
        return self._backend.name

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        b = self._backend
        if isinstance(b.algorithm, tuple):
            return apa_matmul_nonstationary(
                A, B, list(b.algorithm), lam=b.lam, gemm=b.gemm,
                plan_cache=b.plan_cache)
        return apa_matmul(A, B, b.algorithm, lam=b.lam,
                          steps=b.steps, gemm=b.gemm,
                          plan_cache=b.plan_cache)


def make_backend(
    algorithm_name: str | None | list[str] | tuple[str, ...],
    lam: float | None = None,
    steps: int = 1,
    min_dim: int = 0,
    guarded: bool = False,
    policy: EscalationPolicy | None = None,
    plan_cache: object = None,
) -> MatmulBackend:
    """Convenience factory: ``None``/``'classical'`` → gemm, else catalog name.

    The classical name must match exactly — near-misses like
    ``'classical_v2'`` raise ``KeyError`` with the known names instead of
    silently handing back the baseline.  A tuple/list of names builds a
    non-stationary backend (one algorithm per recursion level).
    ``guarded=True`` wraps the result in a
    :class:`~repro.robustness.guard.GuardedBackend` running the
    per-call health checks and escalation ``policy`` (an
    :class:`~repro.robustness.policy.EscalationPolicy`, defaulted).
    """
    from repro.backends.resolve import resolve_backend_algorithm

    resolved = resolve_backend_algorithm(algorithm_name)
    if resolved is None:
        backend: MatmulBackend = ClassicalBackend()
    else:
        backend = APABackend(
            algorithm=resolved,
            lam=lam,
            steps=steps,
            min_dim=min_dim,
            plan_cache=plan_cache,
        )
    if guarded:
        from repro.robustness.guard import GuardedBackend

        return GuardedBackend(backend, policy=policy)  # lint: ignore[ENG002]: legacy shim pinned bit-identical; wraps an APABackend, not an engine config
    return backend
