"""Common-subexpression elimination for linear combinations.

The addition count of the naive ("write-once, no reuse") strategy is
``sum_i (nnz(col_i) - 1)``; published algorithm variants like
Strassen-Winograd beat it by *reusing* shared sub-sums (e.g.
``S1 = A21 + A22`` feeds three of Winograd's seven products).  This
module recovers such savings automatically with greedy pairwise CSE:

1. find the signed operand pair ``c1*x + c2*y`` occurring in the most
   combination columns (pairs are matched up to a common scale, so
   ``A - B`` also matches ``-A + B`` and ``2A - 2B``);
2. materialize it as a temporary, rewrite every column through it;
3. repeat until no pair repeats.

Temporaries can themselves contain temporaries, so chains like
Winograd's ``S2 = S1 - A11`` emerge naturally.  The result is an
:class:`EliminationPlan` — an ordered list of temporary definitions plus
rewritten columns — consumed by the addition-cost analytics
(:func:`repro.algorithms.analysis.analyze_algorithm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.linalg.laurent import Laurent

__all__ = ["EliminationPlan", "eliminate_common_subexpressions", "naive_additions"]

#: Operand names: nonnegative ints are original operands; temporaries get
#: ids ``TEMP_BASE + t``.
TEMP_BASE = 1_000_000


@dataclass(frozen=True)
class EliminationPlan:
    """CSE result for one coefficient matrix.

    ``temps[t]`` is the definition of temporary ``TEMP_BASE + t`` as a
    ``{operand_id: Laurent}`` combination (over originals and earlier
    temporaries).  ``columns[i]`` is the rewritten combination of column
    ``i`` in the same form.
    """

    temps: tuple[dict, ...]
    columns: tuple[dict, ...]

    @property
    def additions(self) -> int:
        """Total adds: each k-term combination costs k - 1."""
        total = 0
        for combo in list(self.temps) + list(self.columns):
            total += max(0, len(combo) - 1)
        return total

    def expand(self, index: int) -> dict:
        """Flatten column ``index`` back to original operands (for
        verification that CSE preserved the algebra)."""
        def flatten(combo: dict) -> dict:
            out: dict = {}
            for op, coeff in combo.items():
                if op >= TEMP_BASE:
                    inner = flatten(self.temps[op - TEMP_BASE])
                    for op2, c2 in inner.items():
                        acc = out.get(op2, Laurent.zero()) + coeff * c2
                        if acc:
                            out[op2] = acc
                        else:
                            out.pop(op2, None)
                else:
                    acc = out.get(op, Laurent.zero()) + coeff
                    if acc:
                        out[op] = acc
                    else:
                        out.pop(op, None)
            return out

        return flatten(self.columns[index])


def naive_additions(M: np.ndarray) -> int:
    """Write-once additions without any reuse."""
    total = 0
    for i in range(M.shape[1]):
        nnz = sum(1 for entry in M[:, i] if entry)
        total += max(0, nnz - 1)
    return total


def _normalized_pair(op1: int, c1: Laurent, op2: int, c2: Laurent):
    """Canonical key of a signed pair up to a common scalar factor.

    The pair is keyed by the two operand ids plus the *ratio* ``c2/c1``
    (for monomial coefficients; general Laurent coefficients are keyed
    exactly, which only costs missed matches, never wrong ones).
    """
    if op1 > op2:
        op1, op2, c1, c2 = op2, op1, c2, c1
    t1, t2 = c1.terms, c2.terms
    if len(t1) == 1 and len(t2) == 1:
        (e1, a1), = t1.items()
        (e2, a2), = t2.items()
        return (op1, op2, "ratio", e2 - e1, Fraction(a2) / Fraction(a1))
    return (op1, op2, "exact", tuple(sorted(t1.items())),
            tuple(sorted(t2.items())))


def eliminate_common_subexpressions(
    M: np.ndarray, min_uses: int = 2, max_temps: int = 64
) -> EliminationPlan:
    """Run greedy pairwise CSE on a (rows x r) Laurent coefficient matrix."""
    columns: list[dict] = []
    for i in range(M.shape[1]):
        combo = {row: M[row, i] for row in range(M.shape[0]) if M[row, i]}
        columns.append(combo)

    temps: list[dict] = []
    while len(temps) < max_temps:
        # census of normalized pairs over all current combinations
        census: dict = {}
        for ci, combo in enumerate(columns):
            ops = sorted(combo)
            for a in range(len(ops)):
                for b in range(a + 1, len(ops)):
                    key = _normalized_pair(ops[a], combo[ops[a]],
                                           ops[b], combo[ops[b]])
                    census.setdefault(key, []).append((ci, ops[a], ops[b]))
        best_key, best_uses = None, []
        for key, uses in census.items():
            if len(uses) > len(best_uses):
                best_key, best_uses = key, uses
        if best_key is None or len(best_uses) < min_uses:
            break

        # define the temp from the first use's concrete coefficients
        ci0, opa, opb = best_uses[0]
        ca, cb = columns[ci0][opa], columns[ci0][opb]
        temp_id = TEMP_BASE + len(temps)
        temps.append({opa: ca, opb: cb})

        # rewrite every use: the column's pair equals scale * temp
        for ci, o1, o2 in best_uses:
            combo = columns[ci]
            if o1 not in combo or o2 not in combo:
                continue  # an earlier rewrite in this round consumed it
            # scale s such that combo[o1] == s * ca (monomial division)
            s = _divide(combo[o1] if o1 == opa else combo[o2], ca)
            if s is None:
                continue
            # confirm the second coefficient matches the same scale
            other = combo[o2] if o1 == opa else combo[o1]
            if other != s * cb:
                continue
            del combo[o1]
            del combo[o2]
            combo[temp_id] = s

    return EliminationPlan(temps=tuple(temps), columns=tuple(columns))


def _divide(num: Laurent, den: Laurent) -> Laurent | None:
    """Exact monomial division ``num / den`` (None when not monomial)."""
    tn, td = num.terms, den.terms
    if len(tn) == 1 and len(td) == 1:
        (en, an), = tn.items()
        (ed, ad), = td.items()
        return Laurent({en - ed: Fraction(an) / Fraction(ad)})
    if num == den:
        return Laurent.one()
    return None
