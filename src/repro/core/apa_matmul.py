"""Sequential entry point for bilinear (APA and exact) algorithms.

:func:`apa_matmul` multiplies with a catalogued rule: it validates the
operands, routes surrogates to their error model, picks the default
``lambda``, and runs an :class:`~repro.core.plan.ExecutionPlan` — the
single evaluator of the paper's §3.2 write-once S/T/M/C schedule (see
:mod:`repro.core.plan`).  Operands of any shape are supported through
zero-padding to the next multiple of the rule dims per recursion level;
the result is cropped back.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.spec import AlgorithmLike
from repro.core.engine import default_engine
from repro.core.lam import default_lambda
from repro.core.plan import acquire_plan, plannable
from repro.types import GemmFn

__all__ = ["apa_matmul"]

#: The process-wide engine; bound once — it is never replaced.
_ENGINE = default_engine()


def apa_matmul(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: AlgorithmLike | str,
    lam: float | None = None,
    steps: int | None = None,
    gemm: GemmFn | None = None,
    d: int | None = None,
    plan_cache=None,
) -> np.ndarray:
    """Multiply ``A @ B`` with a catalogued algorithm.

    A thin shim over :meth:`repro.core.engine.ExecutionEngine.sequential`
    — the engine owns tracing and dispatch to the plan, and an active
    :func:`~repro.core.config.execution_context` supplies any parameter
    left unset here.  Results are bit-identical to the pre-engine entry
    point (``tests/test_engine.py`` pins it).

    Parameters
    ----------
    A, B:
        2-D arrays with compatible inner dimension.  Matching float
        operands are used as-is (pass float32 for the paper's
        single-precision setting); mixed float dtypes are promoted to
        ``np.result_type(A, B)`` and integer operands computed in
        float64.
    algorithm:
        An :class:`~repro.algorithms.spec.AlgorithmLike` or catalog name.
        Surrogates are dispatched to
        :func:`repro.core.surrogate.surrogate_matmul`.
    lam:
        APA parameter; defaults to the theory optimum for the operand
        dtype (``optimal_lambda``).  Ignored by exact algorithms.
    steps:
        Recursive levels of the rule (default 1); every level multiplies
        the flop saving and adds ``phi`` to the roundoff exponent.
    gemm:
        Base-case multiply, defaulting to ``np.matmul``.  Injecting a
        custom callable is how the fault injectors and the parallel
        executor hook the sub-products.
    d:
        Precision bits used for the default ``lam``; inferred from the
        operand dtype when omitted.
    plan_cache:
        ``None`` (default) takes plans from the process-wide
        :class:`~repro.core.plan.PlanCache` — repeated identical
        ``(algorithm, shape, dtype, lam, steps)`` calls then reuse one
        precomputed :class:`~repro.core.plan.ExecutionPlan` and its
        pooled workspace arena.  Pass a :class:`PlanCache` to use a
        private cache, or ``False`` to build an uncached plan for this
        call alone.  All three are bit-identical.

    Returns
    -------
    The ``(A.shape[0], B.shape[1])`` product array in the promoted
    operand dtype (float64 for integer operands).
    """
    return _ENGINE.sequential(A, B, algorithm, lam, steps, gemm, d,
                              plan_cache)


def _apa_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: AlgorithmLike | str,
    lam: float | None,
    steps: int,
    gemm: GemmFn | None,
    d: int | None,
    plan_cache,
) -> np.ndarray:
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("apa_matmul expects 2-D operands")
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dims mismatch: {A.shape} @ {B.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lam is not None and (not np.isfinite(lam) or lam <= 0):
        raise ValueError(f"lam must be finite and > 0, got {lam!r}")

    if algorithm.is_surrogate:
        from repro.core.surrogate import surrogate_matmul

        return surrogate_matmul(A, B, algorithm, lam=lam, steps=steps, d=d)

    A, B = plannable(A, B)
    if lam is None:
        lam = default_lambda(algorithm, A.dtype, d, steps)

    plan = acquire_plan(plan_cache, algorithm, A.shape[0], A.shape[1],
                        B.shape[1], A.dtype, lam, steps=steps)
    return plan.execute(A, B, gemm=gemm)

