"""The plan term-list auditor (GEN rules)."""

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm, list_algorithms
from repro.core.lam import optimal_lambda
from repro.core.plan import PlanCache, term_lists
from repro.staticcheck import LintConfig, run_lint
from repro.staticcheck.codecheck import audit_term_lists
from repro.staticcheck.findings import Severity


def _bini_terms():
    """bini322's float32 term lists as mutable lists of lists."""
    alg = get_algorithm("bini322")
    terms = term_lists(*alg.evaluate(optimal_lambda(alg), dtype=np.float32))
    return alg, [list(map(list, side)) for side in terms]


def _rule_ids(alg, s, t, w):
    return sorted({f.rule_id for f in audit_term_lists(s, t, w, alg)})


def test_catalog_plans_audit_clean():
    result = run_lint(LintConfig(families=("plans",)))
    real = [n for n in list_algorithms("real")
            if not get_algorithm(n).is_surrogate]
    assert result.findings == ()
    assert result.checked == {"plan term lists": len(real)}
    assert result.exit_code() == 0


@pytest.mark.parametrize("name", ["bini322", "strassen444"])
def test_cached_plan_term_lists_audit_clean(name):
    """The lists the evaluator actually runs, not a re-derivation."""
    alg = get_algorithm(name)
    plan = PlanCache().plan_for(alg, 12, 8, 8, np.float64,
                                lam=optimal_lambda(alg, d=52))
    assert audit_term_lists(plan.s_terms, plan.t_terms, plan.w_terms,
                            alg) == []


def test_missing_product_is_gen001():
    alg, (s, t, w) = _bini_terms()
    findings = audit_term_lists(s[:-1], t[:-1], w[:-1], alg)
    assert [f.rule_id for f in findings] == ["GEN001"]
    assert findings[0].severity is Severity.ERROR
    assert findings[0].location == "plan:bini322"


def test_repeated_block_is_gen002():
    alg, (s, t, w) = _bini_terms()
    s[0].append(s[0][0])
    assert _rule_ids(alg, s, t, w) == ["GEN002"]


def test_out_of_range_block_is_gen002():
    alg, (s, t, w) = _bini_terms()
    w[1].append((alg.m * alg.k, 1.0))
    findings = audit_term_lists(s, t, w, alg)
    assert [f.rule_id for f in findings] == ["GEN002"]
    assert "outside" in findings[0].message


def test_empty_list_is_gen003():
    alg, (s, t, w) = _bini_terms()
    assert [q for q, _ in w[1]] == [0], "fixture drift"
    w[1] = []  # block 0 stays covered by product 0
    assert _rule_ids(alg, s, t, w) == ["GEN003"]
    alg, (s, t, w) = _bini_terms()
    s[2] = []
    assert _rule_ids(alg, s, t, w) == ["GEN003"]


def test_uncovered_output_block_is_gen004():
    alg, (s, t, w) = _bini_terms()
    for combo in w:
        combo[:] = [(q, c) for q, c in combo if q != 1]
    findings = audit_term_lists(s, t, w, alg)
    assert [f.rule_id for f in findings] == ["GEN004"]
    assert "[1]" in findings[0].message
