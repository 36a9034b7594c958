"""Numerical execution of metadata surrogates.

A :class:`~repro.algorithms.smirnov.SurrogateAlgorithm` has no coefficient
matrices, so it cannot run through the generic executor.  What the paper's
experiments need from it numerically is a product with *APA-like error*:

- **bilinear in the inputs** — the true APA error is
  ``lambda * E(A, B) + O(lambda**2)`` where each entry of ``E`` is a
  bilinear form in the entries of ``A`` and ``B`` (e.g. Bini's
  ``E11 = -A12 B11``);
- **relative magnitude** set by the algorithm's ``(sigma, phi)`` class:
  ``~2**(-d*sigma/(sigma+s*phi))`` (paper Table 1), a small constant
  factor below the bound in practice (Fig 1);
- **deterministic** given the same operands (a rerun of an APA product
  gives bitwise-identical error).

We synthesize exactly that: ``E = (A * s) @ B`` with a fixed
per-algorithm ±1 sign pattern ``s`` on the inner (contraction) index,
rescaled to the target relative magnitude.  Each entry
``E_ij = sum_k s_k A_ik B_kj`` is a signed sum of the same partial products
that make up ``C_ij`` — a different bilinear form, not a re-weighting of
``C``: its sign does not follow ``C_ij``'s, it is nonzero where ``C`` is
zero, and for zero-mean operands is nearly uncorrelated with ``C``
(normalised inner product ``~ sum(s) / K``).  A sign pattern on the outer
(row/column) indices would factor out of the product and leave
``E = ±C`` entrywise, a step-size jitter rather than an error.

The error magnitude is one function, :func:`surrogate_relative_error`:
the Table-1 valley in ``lambda`` clamped at order unity.  The bad-lambda
study reads it from there, so the error it reports is the error the
product carries.

``emulate_flops=True`` additionally performs the algorithm's true gemm
profile (``r`` products of ``(M/m) x (N/n)`` by ``(N/n) x (K/k)`` blocks)
into a scratch buffer, so wall-clock demos on real multicore hosts exercise
a realistic compute profile; the scratch result is discarded.  Simulated
performance figures do not use this path (they use the cost model), so it
defaults off.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.algorithms.spec import AlgorithmLike
from repro.linalg.blocking import BlockPartition, split_blocks

__all__ = ["surrogate_matmul", "structured_error", "surrogate_relative_error"]


def _sign_vector(seed_text: str, length: int) -> np.ndarray:
    """Deterministic ±1 pattern derived from a text seed."""
    digest = hashlib.sha256(seed_text.encode()).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1.0, 1.0]), size=length)


def structured_error(A: np.ndarray, B: np.ndarray, tag: str) -> np.ndarray:
    """A bilinear, deterministic error matrix shaped like ``A @ B``.

    ``E = (A * s[None, :]) @ B`` with a ±1 sign pattern ``s`` over the
    inner index, seeded by ``tag``.  Bilinear in (A, B) like a true APA
    error tensor, and of comparable Frobenius norm to the product itself
    for zero-mean inputs (callers rescale to the exact target magnitude).
    The signs sit on the contraction index so that they do not factor out:
    ``E`` mixes the partial products ``A_ik B_kj`` with other signs than
    ``C`` does, so ``E_ij`` is not ``±C_ij``.
    """
    s = _sign_vector(tag + ":inner", A.shape[1])
    return (A * s[None, :]) @ B


def surrogate_relative_error(algorithm: AlgorithmLike, lam: float | None,
                             d: int, steps: int = 1) -> float:
    """Relative error :func:`surrogate_matmul` injects at ``lam``.

    At the valley centre (and for ``lam=None``) this is the algorithm's
    ``empirical_error_scale``; a lambda ``t`` times larger multiplies it by
    ``t**sigma`` (approximation branch), a lambda ``t`` times smaller by
    ``t**(s*phi)`` (roundoff branch), and the result is clamped at 1.0.

    The centre is the unrounded theory optimum ``2**(-d/(sigma+s*phi))``,
    not the power of two :func:`~repro.core.lam.optimal_lambda` returns;
    the paper does not say which of the two the measured valley sits on,
    so the tuned power of two lands slightly off the bottom here.
    """
    sigma, phi = algorithm.sigma, algorithm.phi
    lam_opt = 2.0 ** (-d / (sigma + steps * phi))
    rel = algorithm.empirical_error_scale(d=d, steps=steps)
    if lam is not None and lam > 0 and lam != lam_opt:
        ratio = lam / lam_opt
        # Error valley: approximation term scales like lam**sigma, roundoff
        # like lam**-(s*phi); total modelled as the max of the two branches.
        rel = rel * max(ratio**sigma, ratio ** (-steps * phi))
        rel = min(rel, 1.0)
    return rel


def surrogate_matmul(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: AlgorithmLike,
    lam: float | None = None,
    steps: int = 1,
    d: int | None = None,
    inject_error: bool = True,
    emulate_flops: bool = False,
) -> np.ndarray:
    """Multiply ``A @ B`` emulating a surrogate APA algorithm.

    ``lam`` sets the injected relative error through
    :func:`surrogate_relative_error` — the same valley shape a true APA
    algorithm exhibits: approximation error growing like ``lam**sigma``
    above the optimum, roundoff like ``lam**-(s*phi)`` below it.
    """
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("surrogate_matmul expects 2-D operands")
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dims mismatch: {A.shape} @ {B.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")

    from repro.core.lam import working_bits

    dtype = np.result_type(A.dtype, B.dtype)
    d = working_bits(dtype, d)

    if emulate_flops:
        _burn_flop_profile(A, B, algorithm, steps)

    C = A @ B
    if not inject_error:
        return C

    rel = surrogate_relative_error(algorithm, lam, d, steps)

    E = structured_error(A, B, algorithm.name)
    e_norm = np.linalg.norm(E)
    c_norm = np.linalg.norm(C)
    if e_norm == 0 or c_norm == 0:
        return C
    scale = rel * c_norm / e_norm
    return (C + scale * E).astype(dtype, copy=False)


def _burn_flop_profile(A: np.ndarray, B: np.ndarray,
                       algorithm: AlgorithmLike, steps: int) -> None:
    """Perform the surrogate's true gemm profile into scratch buffers.

    One recursive level: ``r`` products of ``(M/m, N/n) @ (N/n, K/k)``
    blocks.  Levels beyond the first reuse the same recursion.  Results are
    discarded — only the compute profile matters.
    """
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    plan = BlockPartition(
        m, n, k, rows_a=A.shape[0], cols_a=A.shape[1], cols_b=B.shape[1], steps=steps
    )
    Ap, Bp = plan.prepare(A, B)

    def level(Ab: np.ndarray, Bb: np.ndarray, depth: int) -> None:
        a_grid = split_blocks(Ab, m, n)
        b_grid = split_blocks(Bb, n, k)
        Sa, Tb = a_grid[0][0], b_grid[0][0]
        for _ in range(algorithm.rank):
            if depth > 1:
                level(Sa, Tb, depth - 1)
            else:
                np.matmul(Sa, Tb)

    level(Ap, Bp, steps)
