"""Family 2: term-list audit of execution plans (``GEN0xx``).

Every ⟨U,V,W⟩ product runs through :class:`repro.core.plan.ExecutionPlan`,
whose term lists are the paper's §3 code-generation artifact: ``r``
write-once linear combinations of A blocks (``s_terms``) and of B
blocks (``t_terms``), ``r`` gemm calls, then ``r`` scatter lists into
the output blocks of C (``w_terms``).  This family rebuilds those lists
with :func:`repro.core.plan.term_lists` from each algorithm's
coefficients at its default ``lambda`` in float32 (the paper's training
precision, where a coefficient is likeliest to underflow) and checks
the contract the evaluator and the addition-count analytics rely on:

- exactly ``rank`` S, T and W lists (``GEN001``);
- write-once: no block index repeats within one list, and every index
  names a real block of A, B or C (``GEN002``);
- no dead product: every S/T list is non-empty (a zero operand) and
  every W list is non-empty (a product nobody reads) (``GEN003``);
- full coverage: each of the ``m*k`` output blocks of C is reached by
  some W list (``GEN004``).

A coefficient that evaluates to exactly zero at the default ``lambda``
drops out of the term lists, so the audit also catches a Laurent entry
that cancels or underflows.  Nothing here runs a gemm.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.spec import BilinearAlgorithm
from repro.staticcheck.findings import Finding, Severity

__all__ = ["audit_term_lists", "check_plans"]


def _audit_side(terms: tuple, side: str, n_blocks: int,
                location: str) -> list[Finding]:
    """GEN002/GEN003 over one of the S, T or W families."""
    findings: list[Finding] = []
    for i, combo in enumerate(terms):
        if not combo:
            findings.append(Finding(
                "GEN003", Severity.ERROR, location,
                f"dead product {i}: its {side} list is empty",
            ))
        indices = [index for index, _ in combo]
        repeated = sorted({p for p in indices if indices.count(p) > 1})
        if repeated:
            findings.append(Finding(
                "GEN002", Severity.ERROR, location,
                f"{side} list {i} repeats block(s) {repeated}; the "
                "contract is write-once",
            ))
        stray = sorted({p for p in indices if not 0 <= p < n_blocks})
        if stray:
            findings.append(Finding(
                "GEN002", Severity.ERROR, location,
                f"{side} list {i} names block(s) {stray} outside "
                f"0..{n_blocks - 1}",
            ))
    return findings


def audit_term_lists(
    s_terms: tuple,
    t_terms: tuple,
    w_terms: tuple,
    alg: BilinearAlgorithm,
    location: str | None = None,
) -> list[Finding]:
    """Audit one plan's term lists against the ``GEN0xx`` contract."""
    location = location or f"plan:{alg.name}"
    m, n, k, r = alg.m, alg.n, alg.k, alg.rank
    findings: list[Finding] = []
    counts = (len(s_terms), len(t_terms), len(w_terms))
    if counts != (r, r, r):
        findings.append(Finding(
            "GEN001", Severity.ERROR, location,
            f"expected exactly {r} S, T and W lists, found "
            f"{counts[0]}, {counts[1]} and {counts[2]}",
        ))
    findings += _audit_side(s_terms, "S", m * n, location)
    findings += _audit_side(t_terms, "T", n * k, location)
    findings += _audit_side(w_terms, "W", m * k, location)
    reached = {q for combo in w_terms for q, _ in combo}
    missing = sorted(set(range(m * k)) - reached)
    if missing:
        findings.append(Finding(
            "GEN004", Severity.ERROR, location,
            f"output block(s) {missing} of C are never written "
            f"({m * k} expected)",
        ))
    return findings


def check_plans(
    names: Sequence[str] | None = None,
) -> tuple[list[Finding], int]:
    """Audit the float32 term lists of every real catalog algorithm.

    Returns ``(findings, algorithms_audited)``; surrogates (no
    coefficients) are skipped.
    """
    from repro.algorithms.catalog import get_algorithm, list_algorithms
    from repro.core.lam import optimal_lambda
    from repro.core.plan import term_lists

    findings: list[Finding] = []
    audited = 0
    selected = names if names is not None else list_algorithms("real")
    for name in selected:
        alg = get_algorithm(name)
        if alg.is_surrogate:
            continue
        assert isinstance(alg, BilinearAlgorithm)
        terms = term_lists(*alg.evaluate(optimal_lambda(alg, d=23),
                                         dtype=np.float32))
        findings.extend(audit_term_lists(*terms, alg))
        audited += 1
    return findings, audited
