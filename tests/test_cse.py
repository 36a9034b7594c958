"""Tests for common-subexpression elimination."""

from __future__ import annotations

import pytest

from repro.algorithms.catalog import get_algorithm, list_algorithms
from repro.algorithms.cse import (
    eliminate_common_subexpressions,
    naive_additions,
)


#: The greedy census is quadratic in the coefficient count; the XL
#: tensor-product rules are exercised by one dedicated capped test below
#: instead of every parametrized case.
CSE_TEST_ALGORITHMS = [n for n in list_algorithms("real")
                       if get_algorithm(n).rank <= 120]


def total_cse_additions(alg) -> int:
    pu = eliminate_common_subexpressions(alg.U)
    pv = eliminate_common_subexpressions(alg.V)
    pw = eliminate_common_subexpressions(alg.W.T)
    return pu.additions + pv.additions + pw.additions


def total_naive_additions(alg) -> int:
    return (naive_additions(alg.U) + naive_additions(alg.V)
            + naive_additions(alg.W.T))


class TestEliminationAlgebra:
    @pytest.mark.parametrize("name", CSE_TEST_ALGORITHMS)
    def test_expansion_reproduces_every_column(self, name):
        """Correctness invariant: flattening the CSE plan recovers the
        original combinations exactly — on all three coefficient sides of
        every real algorithm."""
        alg = get_algorithm(name)
        for M in (alg.U, alg.V, alg.W.T):
            plan = eliminate_common_subexpressions(M)
            for i in range(M.shape[1]):
                truth = {r: M[r, i] for r in range(M.shape[0]) if M[r, i]}
                assert plan.expand(i) == truth

    def test_never_worse_than_naive(self):
        for name in CSE_TEST_ALGORITHMS:
            alg = get_algorithm(name)
            assert total_cse_additions(alg) <= total_naive_additions(alg)

    def test_xl_algorithm_capped_run(self):
        """The rank-343 rule still compresses under a temp cap (full CSE
        on XL rules is quadratic; see analysis.analyze_algorithm)."""
        alg = get_algorithm("strassen888")
        plan = eliminate_common_subexpressions(alg.U, max_temps=12)
        assert len(plan.temps) == 12
        assert plan.additions < naive_additions(alg.U)

    def test_winograd_reaches_fifteen_additions(self):
        """The textbook result: the Winograd variant's rank decomposition
        compresses from 24 naive additions to 15."""
        alg = get_algorithm("winograd222")
        assert total_naive_additions(alg) == 24
        assert total_cse_additions(alg) == 15

    def test_strassen_has_no_sharing(self):
        """Plain Strassen's combinations share no pairs — CSE finds
        nothing and the count stays at 18."""
        alg = get_algorithm("strassen222")
        assert total_cse_additions(alg) == total_naive_additions(alg) == 18

    def test_tensor_square_compresses_substantially(self):
        """Tensor-product algorithms repeat structure by construction;
        CSE must find a lot (paper §3: additions are the bottleneck)."""
        alg = get_algorithm("strassen444")
        assert total_cse_additions(alg) < 0.7 * total_naive_additions(alg)

    def test_sign_and_scale_invariant_matching(self):
        """A pair and its negation/scaling share one temporary."""
        from repro.algorithms.spec import coeff_matrix

        # columns: (x0 + x1), (-x0 - x1), (2x0 + 2x1)
        M = coeff_matrix(2, 3, {
            (0, 0): 1, (1, 0): 1,
            (0, 1): -1, (1, 1): -1,
            (0, 2): 2, (1, 2): 2,
        })
        plan = eliminate_common_subexpressions(M)
        assert len(plan.temps) == 1
        assert plan.additions == 1  # one temp add; columns are rescales

    def test_max_temps_cap(self):
        alg = get_algorithm("strassen444")
        plan = eliminate_common_subexpressions(alg.U, max_temps=3)
        assert len(plan.temps) <= 3
