"""Seeded signed-permutation operand transforms (Malik & Becker 2019).

arXiv 1905.07439 shows that multiplying randomly *rotated* operands
debiases the error of approximate bilinear algorithms: APA error is a
fixed linear functional of the operand entries, so for a worst-case
operand the errors of every sub-product line up; a random orthogonal
change of basis scrambles that alignment, turning a deterministic
worst case into a zero-mean fluctuation with much smaller variance.

We use the cheapest orthogonal family with an exactly representable
inverse: a **signed permutation** ``Q = P·D`` (``P`` a permutation,
``D = diag(±1)``).  Then

``A @ B = (A Q) (Qᵀ B)``

holds *exactly* in floating point — applying ``Q`` permutes columns of
``A`` / rows of ``B`` and flips signs, both lossless — so the transform
changes which linear functional of the data the APA error picks, and
nothing else.  A Gaussian rotation would mix entries more thoroughly
but costs two O(n²·n) products and introduces its own roundoff; the
signed permutation is O(n²) copies and bit-exact, which is why it can
default on without touching the identity guarantees of everything
downstream.

Draws are seeded and counted: call ``k`` of a stack uses
``SeedSequence(entropy=seed, spawn_key=(k,))``, so a fixed seed gives a
reproducible *stream* of transforms (fresh randomness per call — reusing
one permutation would just relabel the worst case) while two stacks
with the same seed replay identical streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["signed_permutation", "apply_signed_permutation"]


def signed_permutation(
    n: int, seed: int = 0, draw: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The ``draw``-th signed permutation of size ``n`` for ``seed``.

    Returns ``(perm, signs)`` with ``perm`` a permutation of
    ``range(n)`` and ``signs`` ±1 integers.  Deterministic in
    ``(n, seed, draw)``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(draw),)))
    perm = rng.permutation(n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    return perm, signs


def apply_signed_permutation(
    A: np.ndarray, B: np.ndarray, seed: int = 0, draw: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Transform ``(A, B) -> (A Q, Qᵀ B)`` for a seeded signed permutation.

    The returned pair multiplies to exactly ``A @ B`` (sign flips and
    permutations are lossless in floating point), but an APA product of
    the transformed pair sees a re-randomized error functional.
    """
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("signed-permutation transform needs 2-D operands")
    k = A.shape[1]
    if B.shape[0] != k:
        raise ValueError(
            f"inner dimensions disagree: {A.shape} @ {B.shape}")
    perm, signs = signed_permutation(k, seed=seed, draw=draw)
    # Cast ±1 to the operand dtype *before* multiplying: int64 signs
    # would promote float32 operands to float64 and silently double the
    # recursion's memory traffic.
    sA = signs.astype(A.dtype, copy=False)
    sB = signs.astype(B.dtype, copy=False)
    A2 = A[:, perm] * sA
    B2 = B[perm, :] * sB[:, None]
    return A2, B2
