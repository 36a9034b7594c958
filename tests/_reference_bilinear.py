"""Reference bilinear recursion: the test oracle for every matmul path.

Written straight from an algorithm's evaluated ``(Un, Vn, Wn)`` and
deliberately independent of :mod:`repro.core.plan`, so bit-identity
pins compare the shipped evaluator against separate code.  Each
combination is a left-to-right sum of its nonzero terms (the first term
initializes it, a lone coefficient-1 term is the block itself), and
each output block sums its products in multiplication order — the
write-once schedule of paper §3.2, evaluated the plain way.
"""

from __future__ import annotations

import numpy as np

from repro.core.lam import optimal_lambda, precision_bits


def _blocks(X, rows, cols):
    br, bc = X.shape[0] // rows, X.shape[1] // cols
    return [X[i * br:(i + 1) * br, j * bc:(j + 1) * bc]
            for i in range(rows) for j in range(cols)]


def _weighted_sum(coeffs, blocks):
    terms = [(c, b) for c, b in zip(coeffs, blocks) if c != 0]
    if not terms:
        return np.zeros_like(blocks[0])
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    total = terms[0][0] * terms[0][1]
    for c, b in terms[1:]:
        total = total + c * b
    return total


def reference_matmul(A, B, algorithm, steps=1, lam=None):
    """``A @ B`` by ``steps`` levels of ``algorithm``, the textbook way.

    ``lam=None`` picks the same theory optimum as ``apa_matmul`` for the
    operands' (matching, float) dtype.
    """
    dtype = A.dtype
    if lam is None:
        lam = optimal_lambda(algorithm, d=precision_bits(dtype), steps=steps)
    Un, Vn, Wn = algorithm.evaluate(lam, dtype=dtype)
    m, n, k = algorithm.m, algorithm.n, algorithm.k

    def recurse(X, Y, level):
        if level == 0:
            return np.matmul(X, Y)
        a, b = _blocks(X, m, n), _blocks(Y, n, k)
        products = [recurse(_weighted_sum(Un[:, i], a),
                            _weighted_sum(Vn[:, i], b), level - 1)
                    for i in range(algorithm.rank)]
        c = [_weighted_sum(Wn[q], products) for q in range(m * k)]
        return np.block([c[i * k:(i + 1) * k] for i in range(m)])

    rows, inner, cols = A.shape[0], A.shape[1], B.shape[1]
    pad = [-(-d // f**steps) * f**steps
           for d, f in ((rows, m), (inner, n), (cols, k))]
    Ap = np.zeros((pad[0], pad[1]), dtype=dtype)
    Ap[:rows, :inner] = A
    Bp = np.zeros((pad[1], pad[2]), dtype=dtype)
    Bp[:inner, :cols] = B
    return recurse(Ap, Bp, steps)[:rows, :cols]
