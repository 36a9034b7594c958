"""Choosing the APA parameter ``lambda`` (paper §2.3).

The numerical error of an APA algorithm has two opposing contributions:

- the *approximation* error, ``O(lambda**sigma)`` — shrinks as ``lambda``
  shrinks;
- the *roundoff* error, ``O(2**-d * lambda**-(s*phi))`` — grows as
  ``lambda`` shrinks, because coefficients carry negative powers up to
  ``phi`` per recursive step.

Balancing the two (Bini, Lotti & Romani 1980) gives the optimum
``lambda* = Theta(2**(-d / (sigma + s*phi)))`` and minimum error
``O(2**(-d*sigma / (sigma + s*phi)))``.  The paper picks the best of the
five powers of two nearest the theory optimum empirically; we implement
both the closed form and that tuner.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.algorithms.spec import AlgorithmLike

__all__ = ["precision_bits", "working_bits", "optimal_lambda", "level_class",
           "default_lambda", "lambda_candidates", "tune_lambda"]


#: Significand bits per supported dtype; a complex dtype has the
#: precision of its components.
_PRECISION_BITS = {np.dtype(t): bits for t, bits in (
    (np.float16, 10), (np.float32, 23), (np.float64, 52),
    (np.complex64, 23), (np.complex128, 52))}


def precision_bits(dtype: npt.DTypeLike) -> int:
    """Fractional bits ``d`` of the significand for a float dtype.

    23 for float32, 52 for float64 (the ``2**-d`` working precisions the
    paper uses).  A complex dtype has the precision of its components:
    23 for complex64, 52 for complex128.
    """
    dt = np.dtype(dtype)
    bits = _PRECISION_BITS.get(dt)
    if bits is None:
        raise ValueError(f"unsupported floating dtype {dt}")
    return bits


def working_bits(dtype: npt.DTypeLike, d: int | None = None) -> int:
    """The caller's ``d``, else the precision of the compute ``dtype``
    (52 for integer operands, which compute in float64)."""
    if d is not None:
        return d
    dt = np.dtype(dtype)
    return precision_bits(dt) if dt.kind in "fc" else 52


def optimal_lambda(algorithm: AlgorithmLike, d: int = 23,
                   steps: int = 1) -> float:
    """Theory-optimal ``lambda`` rounded to a power of two.

    Exact algorithms have no lambda dependence; 1.0 is returned so callers
    can pass it through unconditionally.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if d <= 0:
        raise ValueError("precision bits d must be positive")
    if algorithm.is_exact or algorithm.phi == 0:
        return 1.0
    sigma = max(algorithm.sigma, 1)
    exponent = -d / (sigma + steps * algorithm.phi)
    return float(2.0 ** round(exponent))


def level_class(algorithms: Sequence[AlgorithmLike]) -> tuple[int, int]:
    """``(sigma, phi)`` of a non-stationary level list (paper §6): levels
    multiply intermediate magnitudes, so ``phi`` sums; the smallest APA
    ``sigma`` (0 if none) dominates."""
    return (min((a.sigma for a in algorithms if a.is_apa), default=0),
            sum(a.phi for a in algorithms))


def default_lambda(algorithm: AlgorithmLike | Sequence[AlgorithmLike],
                   dtype: npt.DTypeLike, d: int | None = None,
                   steps: int = 1) -> float:
    """The ``lambda`` every runner uses when the caller leaves it unset:
    the optimum at :func:`working_bits`, for a level list that of its
    combined :func:`level_class`."""
    d = working_bits(dtype, d)
    if isinstance(algorithm, (tuple, list)):
        sigma, phi = level_class(algorithm)
        exact = not (phi and sigma)
        return 1.0 if exact else float(2.0 ** round(-d / (sigma + phi)))
    return optimal_lambda(algorithm, d=d, steps=steps)


def lambda_candidates(algorithm: AlgorithmLike, d: int = 23,
                      steps: int = 1, count: int = 5) -> list[float]:
    """The ``count`` powers of two nearest the theory optimum (paper §2.3)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    center = optimal_lambda(algorithm, d=d, steps=steps)
    if center == 1.0:
        return [1.0]
    e0 = round(np.log2(center))
    half = count // 2
    lo = e0 - half
    return [float(2.0**e) for e in range(lo, lo + count)]


def tune_lambda(
    algorithm: AlgorithmLike,
    n: int = 256,
    d: int | None = None,
    steps: int = 1,
    count: int = 5,
    dtype: npt.DTypeLike = np.float32,
    rng: np.random.Generator | None = None,
    matmul: Callable[..., np.ndarray] | None = None,
) -> tuple[float, float]:
    """Empirically pick the best of the nearest powers of two.

    Multiplies uniform random ``n x n`` matrices with each candidate
    ``lambda`` and returns ``(best_lambda, best_relative_error)`` measured
    against the float64 classical product (the paper's Fig-1 protocol).

    ``matmul`` defaults to :func:`repro.core.apa_matmul.apa_matmul` (or the
    surrogate executor for surrogates); injectable for testing.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if d is None:
        d = precision_bits(dtype)
    if matmul is None:
        from repro.core.apa_matmul import apa_matmul as matmul  # lazy: avoid cycle

    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)
    C_ref = A.astype(np.float64) @ B.astype(np.float64)
    ref_norm = np.linalg.norm(C_ref)

    best_lam, best_err = 1.0, np.inf
    for lam in lambda_candidates(algorithm, d=d, steps=steps, count=count):
        C_hat = matmul(A, B, algorithm, lam=lam, steps=steps)
        err = float(np.linalg.norm(C_hat.astype(np.float64) - C_ref) / ref_norm)
        if err < best_err:
            best_lam, best_err = lam, err
    return best_lam, best_err
