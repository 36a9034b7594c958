"""Batched APA products (paper §1: "batches of smaller multiplications").

Convolutional and attention workloads often present *many same-shape
products* rather than one large one.  ``engine.matmul`` routes 3-D
operands here, with two execution modes (``batch_mode=``):

- ``'loop'`` — run the fast algorithm per product (right when each
  product is individually above the crossover dimension);
- ``'stacked'`` (default) — exploit that every product shares the coefficient
  evaluation: the linear combinations are applied to all batch items at
  once on a 3-D array (one pass of large, bandwidth-friendly elementwise
  work) and the r sub-products run as batched gemms.  This amortizes
  combination overhead across the batch, which is what makes fast
  algorithms viable for *small* per-item dims.

Stacked mode runs the same :func:`~repro.core.plan.combine` and
:func:`~repro.core.plan.accumulate` as the 2-D paths over 3-D block
views, so each item's result is bit-identical to the 2-D product; the
tests pin that.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.spec import AlgorithmLike

__all__: list[str] = []


def _batched_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: AlgorithmLike,
    lam: float | None,
    mode: str,
    d: int | None,
    plan_cache,
) -> np.ndarray:
    """Multiply ``A[i] @ B[i]`` for every batch item, engine-owned.

    ``A`` has shape ``(batch, M, N)``, ``B`` ``(batch, N, K)``; returns
    ``(batch, M, K)``.  One recursive step.  Surrogates run per item
    through their error model.  Stacked mode shares the cached
    :class:`~repro.core.plan.ExecutionPlan` machinery for its padded
    dims, coefficients, and term lists (the batch axis is per-call, so
    no workspace arena is pooled).

    Reached as ``engine.matmul(A, B, alg, batch_mode=...)``; only
    :mod:`repro.core.engine` may call this (staticcheck ENG001
    enforces it).
    """
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError("batched operands must be 3-D (batch, rows, cols)")
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"batch sizes differ: {A.shape[0]} vs {B.shape[0]}")
    if A.shape[2] != B.shape[1]:
        raise ValueError(f"inner dims mismatch: {A.shape} @ {B.shape}")

    from repro.core.apa_matmul import apa_matmul
    from repro.core.plan import (accumulate, acquire_plan, block_views,
                                 combine, plannable)

    batch, M, N = A.shape
    K = B.shape[2]
    if batch == 0:
        dtype = np.result_type(A.dtype, B.dtype)
        return np.zeros((0, M, K), dtype=dtype)

    if algorithm.is_surrogate or mode == "loop":
        return np.stack([
            apa_matmul(A[i], B[i], algorithm, lam=lam, d=d)
            for i in range(batch)
        ])

    from repro.core.lam import optimal_lambda, precision_bits

    A, B = plannable(A, B)
    dtype = A.dtype
    if lam is None:
        if d is None:
            d = precision_bits(dtype) if dtype.kind == "f" else 52
        lam = optimal_lambda(algorithm, d=d)

    m, n, k = algorithm.m, algorithm.n, algorithm.k
    plan = acquire_plan(plan_cache, algorithm, M, N, K, dtype, lam,
                        mode="batched")
    part = plan.partition
    Mp, Np, Kp = (part.padded_rows_a, part.padded_cols_a,
                  part.padded_cols_b)
    Ap = np.zeros((batch, Mp, Np), dtype=dtype)
    Ap[:, :M, :N] = A
    Bp = np.zeros((batch, Np, Kp), dtype=dtype)
    Bp[:, :N, :K] = B
    a_blocks = block_views(Ap, m, n)
    b_blocks = block_views(Bp, n, k)
    C = np.empty((batch, Mp, Kp), dtype=dtype)
    # One batched gemm over the leading axis per multiplication.
    accumulate(plan.w_terms, (
        np.matmul(combine(s, a_blocks), combine(t, b_blocks))
        for s, t in zip(plan.s_terms, plan.t_terms)), block_views(C, m, k))
    return np.ascontiguousarray(C[:, :M, :K])
