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
  some W list (``GEN004``);
- the compiled op program (:class:`repro.core.plan.Program`), run on
  coefficient vectors, issues exactly ``rank`` products per level,
  feeds each exactly its ``U``/``V`` columns, leaves every C block
  exactly its ``W`` row and never reads a slot before writing it
  (``GEN005``).

A coefficient that evaluates to exactly zero at the default ``lambda``
drops out of the term lists, so the audit also catches a Laurent entry
that cancels or underflows.  Nothing here runs a gemm.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.spec import BilinearAlgorithm
from repro.staticcheck.findings import Finding, Severity

__all__ = ["audit_term_lists", "audit_program", "check_plans"]


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


def _symbolic_run(ops: tuple, slots: list, dim: int, first: int,
                  what: str, problems: list[str]) -> list[tuple] | None:
    """Run ``ops`` on coefficient vectors instead of blocks.

    Each slot holds the vector of inputs (operand blocks or products)
    it is a linear combination of; the ``k``-th product op writes unit
    vector ``first + k``.  Unwritten slots hold ``None``.  Returns the
    ``(x, y)`` vectors each product op read, or ``None`` (with the
    problem noted) at the first read of an unwritten slot.
    """
    operands: list[tuple] = []
    for pos, (fn, x, y, out) in enumerate(ops):
        unread = [s for s in (x, y) if slots[s] is None]
        if unread:
            problems.append(f"{what} op {pos} reads slot {unread[0]} "
                            "before it is written")
            return None
        if fn is None:
            operands.append((slots[x], slots[y]))
            slots[out] = np.eye(1, dim, first + len(operands) - 1)[0]
        else:
            slots[out] = np.zeros(dim) + fn(slots[x], slots[y])
    return operands


def _compare(got, want, what: str, problems: list[str]) -> None:
    if got is None:
        problems.append(f"{what} is never written")
    elif not np.array_equal(got, want):
        problems.append(f"{what} is not its column of U/V/W")


def audit_program(program, alg: BilinearAlgorithm,
                  location: str | None = None) -> list[Finding]:
    """Audit a compiled :class:`~repro.core.plan.Program` (``GEN005``).

    Runs the base and inner level programs and :func:`accumulate`'s
    ``fold`` symbolically: operand block ``p`` and product ``i`` are
    unit vectors, every op acts on coefficient vectors, and product
    ``i`` must read exactly column ``i`` of ``Un``/``Vn`` while C block
    ``q`` must end as exactly row ``q`` of ``Wn``.  That catches a
    dropped, duplicated, stale or misrouted term and any read of a slot
    before its first write.
    """
    location = location or f"plan:{alg.name}"
    Un, Vn, Wn = program.coeffs
    n_a, n_b, n_c = Un.shape[0], Vn.shape[0], Wn.shape[0]
    r = Un.shape[1]
    dim = n_a + n_b + r
    eye = np.eye(dim)
    problems: list[str] = []
    for what, ops in (("base", program.base), ("inner", program.inner)):
        issued = sum(op[0] is None for op in ops)
        if issued != r:
            problems.append(f"{what}: {issued} products issued, "
                            f"expected {r}")
            continue
        slots = [*eye[:n_a + n_b], *[None] * (6 + n_c), *program.consts]
        operands = _symbolic_run(ops, slots, dim, n_a + n_b, what,
                                 problems)
        if operands is None:
            continue
        for i, (x, y) in enumerate(operands):
            _compare(x, np.concatenate([Un[:, i], np.zeros(n_b + r)]),
                     f"{what} product {i}'s S operand", problems)
            _compare(y, np.concatenate([np.zeros(n_a), Vn[:, i],
                                        np.zeros(r)]),
                     f"{what} product {i}'s T operand", problems)
        for q in range(n_c):
            _compare(slots[n_a + n_b + 3 + q],
                     np.concatenate([np.zeros(n_a + n_b), Wn[q]]),
                     f"{what} C block {q}", problems)
    slots = [None, *np.eye(r), *[None] * n_c, *program.consts]
    if _symbolic_run(program.fold, slots, r, 0, "fold",
                     problems) is not None:
        for q in range(n_c):
            _compare(slots[1 + r + q], Wn[q], f"fold C block {q}",
                     problems)
    if not problems:
        return []
    return [Finding("GEN005", Severity.ERROR, location,
                    "compiled program: " + "; ".join(problems))]


def check_plans(
    names: Sequence[str] | None = None,
    seed_defect: str | None = None,
) -> tuple[list[Finding], int]:
    """Audit the float32 term lists and compiled program of every real
    catalog algorithm.

    Returns ``(findings, algorithms_audited)``; surrogates (no
    coefficients) are skipped.  The ``gen-dropped-product`` self-test
    audits strassen222's program with its first product dropped instead,
    which must fail ``GEN005``.
    """
    from repro.algorithms.catalog import get_algorithm, list_algorithms
    from repro.core.lam import optimal_lambda
    from repro.core.plan import Program

    if seed_defect == "gen-dropped-product":
        alg = get_algorithm("strassen222")
        program = Program(*alg.evaluate(1.0, dtype=np.float32))
        first = next(i for i, op in enumerate(program.base) if op[0] is None)
        program.base = program.base[:first] + program.base[first + 1:]
        return audit_program(program, alg, "plan:strassen222:seeded"), 1
    findings: list[Finding] = []
    audited = 0
    selected = names if names is not None else list_algorithms("real")
    for name in selected:
        alg = get_algorithm(name)
        if alg.is_surrogate:
            continue
        assert isinstance(alg, BilinearAlgorithm)
        program = alg.compiled(optimal_lambda(alg, d=23), np.float32)
        findings.extend(audit_term_lists(program.s_terms, program.t_terms,
                                         program.w_terms, alg))
        findings.extend(audit_program(program, alg))
        audited += 1
    return findings, audited
