"""Emit specialized Python source for one recursive step of an algorithm.

The generated function mirrors what the paper's framework emits in C++:

- block views of the (padded) operands — no copies;
- one linear-combination expression per multiplication, with the
  lambda-monomial coefficients inlined as literal expressions
  (``lam``, ``lam**-1``, ``-lam`` ...);
- ``r`` gemm calls;
- unrolled output-combination expressions assembling the result blocks.

Fractions are emitted as exact ratios (``(1/4)``) so the generated module
is readable and reproducible; coefficient arithmetic happens in the
operands' dtype at runtime, identical to the plan evaluator.
"""

from __future__ import annotations

from fractions import Fraction

from repro.algorithms.spec import BilinearAlgorithm
from repro.linalg.laurent import Laurent

__all__ = ["generate_source", "coefficient_expression"]


def _fraction_literal(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"({value.numerator}/{value.denominator})"


def coefficient_expression(coeff: Laurent, var: str = "lam") -> str:
    """Render a Laurent coefficient as a Python expression string.

    ``1 -> '1'``, ``lambda -> 'lam'``, ``-lambda**-1 -> '(-lam**-1)'``,
    ``1 + lambda -> '(1 + lam)'``.
    """
    terms = coeff.terms
    if not terms:
        return "0"
    parts = []
    for exp in sorted(terms):
        c = terms[exp]
        if exp == 0:
            parts.append(_fraction_literal(c))
        else:
            power = var if exp == 1 else f"{var}**{exp}"
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{_fraction_literal(c)}*{power}")
    if len(parts) == 1:
        expr = parts[0]
        # Wrap compound monomials (sign, power, or scale) so they embed
        # safely as factors; bare `lam`, integers, and already-parenthesized
        # fractions need nothing.
        needs_wrap = "lam" in expr and expr != "lam"
        return f"({expr})" if needs_wrap else expr
    return "(" + " + ".join(parts).replace("+ -", "- ") + ")"


def _combo_expression(coeffs, operands: list[str]) -> str:
    """Linear-combination expression like ``A00 - lam*A12``."""
    pieces: list[str] = []
    for coeff, name in zip(coeffs, operands):
        if not coeff:
            continue
        expr = coefficient_expression(coeff)
        if expr == "1":
            term = name
        elif expr == "-1":
            term = f"-{name}"
        else:
            term = f"{expr}*{name}"
        if not pieces:
            pieces.append(term)
        elif term.startswith("-"):
            pieces.append(f"- {term[1:]}")
        else:
            pieces.append(f"+ {term}")
    if not pieces:
        return "0"
    return " ".join(pieces)


def _emit_cse(w, M, operand_names: list[str], prefix: str) -> list[str]:
    """Emit temporaries for a coefficient matrix via CSE; return the
    per-column expression strings (over originals and temporaries)."""
    from repro.codegen.cse import TEMP_BASE, eliminate_common_subexpressions

    plan = eliminate_common_subexpressions(M)
    names = dict(enumerate(operand_names))
    for t, combo in enumerate(plan.temps):
        names[TEMP_BASE + t] = f"{prefix}{t}"
    for t, combo in enumerate(plan.temps):
        ops = sorted(combo)
        expr = _combo_expression([combo[o] for o in ops],
                                 [names[o] for o in ops])
        w(f"    {prefix}{t} = {expr}")
    exprs = []
    for combo in plan.columns:
        ops = sorted(combo)
        exprs.append(_combo_expression([combo[o] for o in ops],
                                       [names[o] for o in ops]))
    return exprs


def generate_source(
    alg: BilinearAlgorithm,
    func_name: str | None = None,
    cse: bool = False,
) -> str:
    """Return the source of a self-contained module implementing ``alg``.

    The module defines ``FUNC_NAME(A, B, lam=..., gemm=None, arena=None)``
    performing one recursive step, padding/cropping as needed.  ``cse=True``
    runs common-subexpression elimination over the linear combinations and
    emits shared temporaries (this is how the Winograd variant's 15-add
    schedule is realized from its rank decomposition).  Surrogates cannot
    be generated (no coefficients).

    ``arena`` accepts a :class:`repro.codegen.cache.KernelArena`: the
    padded-operand staging buffers and the padded output are then reused
    across calls instead of reallocated (the arena is not thread-safe —
    use one per thread).  The arena path always returns a fresh copy so
    the result never aliases pooled memory, and stale pad margins are
    re-zeroed before staging.
    """
    if alg.is_surrogate:
        raise ValueError(f"cannot generate code for surrogate {alg.name!r}")
    m, n, k, r = alg.m, alg.n, alg.k, alg.rank
    func_name = func_name or f"apa_mm_{alg.name}"

    a_names = [f"A{i}{j}" for i in range(m) for j in range(n)]
    b_names = [f"B{i}{j}" for i in range(n) for j in range(k)]

    lines: list[str] = []
    w = lines.append
    w('"""Generated by repro.codegen — do not edit."""')
    w("import numpy as np")
    w("")
    w("")
    w(f"def {func_name}(A, B, lam=1.0, gemm=None, arena=None):")
    w(f'    """One step of {alg.signature()} ({alg.name}); generated code."""')
    w("    if gemm is None:")
    w("        gemm = np.matmul")
    w("    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:")
    w("        raise ValueError('bad operand shapes %r @ %r' % (A.shape, B.shape))")
    w("    M0, N0 = A.shape")
    w("    K0 = B.shape[1]")
    w(f"    Mp = -(-M0 // {m}) * {m}")
    w(f"    Np = -(-N0 // {n}) * {n}")
    w(f"    Kp = -(-K0 // {k}) * {k}")
    w("    if (Mp, Np) != (M0, N0):")
    w("        if arena is None:")
    w("            Ap = np.zeros((Mp, Np), dtype=A.dtype)")
    w("        else:")
    w("            Ap = arena.take('Ap', (Mp, Np), A.dtype)")
    w("            Ap[M0:, :] = 0; Ap[:, N0:] = 0")
    w("        Ap[:M0, :N0] = A")
    w("    else:")
    w("        Ap = A")
    w("    if (Np, Kp) != (B.shape[0], K0):")
    w("        if arena is None:")
    w("            Bp = np.zeros((Np, Kp), dtype=B.dtype)")
    w("        else:")
    w("            Bp = arena.take('Bp', (Np, Kp), B.dtype)")
    w("            Bp[B.shape[0]:, :] = 0; Bp[:, K0:] = 0")
    w("        Bp[:B.shape[0], :K0] = B")
    w("    else:")
    w("        Bp = B")
    w(f"    bm, bn, bk = Mp // {m}, Np // {n}, Kp // {k}")
    for i in range(m):
        for j in range(n):
            w(f"    A{i}{j} = Ap[{i}*bm:{i + 1}*bm, {j}*bn:{j + 1}*bn]")
    for i in range(n):
        for j in range(k):
            w(f"    B{i}{j} = Bp[{i}*bn:{i + 1}*bn, {j}*bk:{j + 1}*bk]")
    w("")
    if cse:
        s_exprs = _emit_cse(w, alg.U, a_names, "Su")
        t_exprs = _emit_cse(w, alg.V, b_names, "Tv")
        for t in range(r):
            w(f"    P{t} = gemm({s_exprs[t]}, {t_exprs[t]})")
    else:
        for t in range(r):
            s_expr = _combo_expression(alg.U[:, t], a_names)
            t_expr = _combo_expression(alg.V[:, t], b_names)
            w(f"    P{t} = gemm({s_expr}, {t_expr})")
    w("")
    w("    if arena is None:")
    w("        C = np.empty((Mp, Kp), dtype=P0.dtype)")
    w("    else:")
    w("        C = arena.take('C', (Mp, Kp), P0.dtype)")
    m_names = [f"P{t}" for t in range(r)]
    if cse:
        c_exprs = _emit_cse(w, alg.W.T, m_names, "Wc")  # output combos are W rows
        for i in range(m):
            for j in range(k):
                q = i * k + j
                w(f"    C[{i}*bm:{i + 1}*bm, {j}*bk:{j + 1}*bk] = {c_exprs[q]}")
    else:
        for i in range(m):
            for j in range(k):
                q = i * k + j
                expr = _combo_expression(alg.W[q, :], m_names)
                w(f"    C[{i}*bm:{i + 1}*bm, {j}*bk:{j + 1}*bk] = {expr}")
    w("    if arena is not None:")
    w("        return np.array(C[:M0, :K0])")
    w("    if (Mp, Kp) != (M0, K0):")
    w("        return np.ascontiguousarray(C[:M0, :K0])")
    w("    return C")
    w("")
    return "\n".join(lines)
