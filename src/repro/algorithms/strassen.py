"""Strassen's exact ``<2,2,2>`` rank-7 algorithm and the Winograd variant.

Strassen [31] reduced the 8 multiplications of the classical 2x2 rule to 7;
Winograd's rearrangement keeps rank 7 but needs only 15 additions instead
of 18 (useful for the addition-cost ablation — the paper notes additions
are the main impediment to realizing the ideal speedup).

Both rules are verified symbolically in the test suite, so the
transcriptions below are machine-checked against the matmul tensor.
"""

from __future__ import annotations

from repro.algorithms.dsl import rule_to_algorithm
from repro.algorithms.spec import BilinearAlgorithm

__all__ = ["strassen_algorithm", "strassen_winograd_algorithm"]


def strassen_algorithm() -> BilinearAlgorithm:
    """Strassen's original 7-multiplication rule for ``<2,2,2>``.

    M1 = (A11 + A22)(B11 + B22)      C11 = M1 + M4 - M5 + M7
    M2 = (A21 + A22) B11             C12 = M3 + M5
    M3 = A11 (B12 - B22)             C21 = M2 + M4
    M4 = A22 (B21 - B11)             C22 = M1 - M2 + M3 + M6
    M5 = (A11 + A12) B22
    M6 = (A21 - A11)(B11 + B12)
    M7 = (A12 - A22)(B21 + B22)
    """
    a = [
        {(0, 0): 1, (1, 1): 1},      # M1
        {(1, 0): 1, (1, 1): 1},      # M2
        {(0, 0): 1},                 # M3
        {(1, 1): 1},                 # M4
        {(0, 0): 1, (0, 1): 1},      # M5
        {(1, 0): 1, (0, 0): -1},     # M6
        {(0, 1): 1, (1, 1): -1},     # M7
    ]
    b = [
        {(0, 0): 1, (1, 1): 1},      # M1
        {(0, 0): 1},                 # M2
        {(0, 1): 1, (1, 1): -1},     # M3
        {(1, 0): 1, (0, 0): -1},     # M4
        {(1, 1): 1},                 # M5
        {(0, 0): 1, (0, 1): 1},      # M6
        {(1, 0): 1, (1, 1): 1},      # M7
    ]
    c = {
        (0, 0): {0: 1, 3: 1, 4: -1, 6: 1},
        (0, 1): {2: 1, 4: 1},
        (1, 0): {1: 1, 3: 1},
        (1, 1): {0: 1, 1: -1, 2: 1, 5: 1},
    }
    return rule_to_algorithm(
        "strassen222", 2, 2, 2, a, b, c,
        source="Strassen 1969, Numerische Mathematik 13",
    )


def strassen_winograd_algorithm() -> BilinearAlgorithm:
    """The Winograd form of Strassen's algorithm (7 mults, 15 additions).

    With S1 = A21+A22, S2 = S1-A11, S3 = A11-A21, S4 = A12-S2 and
    T1 = B12-B11, T2 = B22-T1, T3 = B22-B12, T4 = T2-B21:

    M1 = A11 B11   M2 = A12 B21   M3 = S4 B22   M4 = A22 T4
    M5 = S1 T1     M6 = S2 T2     M7 = S3 T3

    C11 = M1 + M2
    C12 = M1 + M6 + M5 + M3
    C21 = M1 + M6 + M7 - M4
    C22 = M1 + M6 + M7 + M5

    The S/T combinations below are expanded to raw entries of A and B (the
    rank-decomposition view does not express common subexpressions; the
    addition savings are recovered by greedy subexpression reuse — see
    :mod:`repro.algorithms.cse`).
    """
    a = [
        {(0, 0): 1},                                   # M1: A11
        {(0, 1): 1},                                   # M2: A12
        {(0, 1): 1, (1, 0): -1, (1, 1): -1, (0, 0): 1},  # M3: S4 = A12-S2
        {(1, 1): 1},                                   # M4: A22
        {(1, 0): 1, (1, 1): 1},                        # M5: S1
        {(1, 0): 1, (1, 1): 1, (0, 0): -1},            # M6: S2
        {(0, 0): 1, (1, 0): -1},                       # M7: S3
    ]
    b = [
        {(0, 0): 1},                                   # M1: B11
        {(1, 0): 1},                                   # M2: B21
        {(1, 1): 1},                                   # M3: B22
        {(1, 1): 1, (0, 1): -1, (0, 0): 1, (1, 0): -1},  # M4: T4 = T2-B21
        {(0, 1): 1, (0, 0): -1},                       # M5: T1
        {(1, 1): 1, (0, 1): -1, (0, 0): 1},            # M6: T2
        {(1, 1): 1, (0, 1): -1},                       # M7: T3
    ]
    c = {
        (0, 0): {0: 1, 1: 1},
        (0, 1): {0: 1, 5: 1, 4: 1, 2: 1},
        (1, 0): {0: 1, 5: 1, 6: 1, 3: -1},
        (1, 1): {0: 1, 5: 1, 6: 1, 4: 1},
    }
    return rule_to_algorithm(
        "winograd222", 2, 2, 2, a, b, c,
        source="Winograd's variant of Strassen's algorithm",
    )
