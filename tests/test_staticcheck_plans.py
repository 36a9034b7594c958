"""The plan term-list auditor (GEN rules)."""

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm, list_algorithms
from repro.core.lam import optimal_lambda
from repro.core.plan import PlanCache, Program, term_lists
from repro.staticcheck import LintConfig, run_lint
from repro.staticcheck.codecheck import audit_program, audit_term_lists
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


# ----------------------------------------------------------------------
# GEN005: the compiled op program
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", [n for n in list_algorithms("real")
                                  if not get_algorithm(n).is_surrogate])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compiled_programs_audit_clean(name, dtype):
    alg = get_algorithm(name)
    program = Program(*alg.evaluate(optimal_lambda(alg), dtype=dtype))
    assert audit_program(program, alg) == []


def _bini_program():
    alg = get_algorithm("bini322")
    return alg, Program(*alg.evaluate(optimal_lambda(alg),
                                      dtype=np.float32))


def test_dropped_product_is_gen005():
    alg, program = _bini_program()
    first = next(i for i, op in enumerate(program.inner) if op[0] is None)
    program.inner = program.inner[:first] + program.inner[first + 1:]
    findings = audit_program(program, alg)
    assert [f.rule_id for f in findings] == ["GEN005"]
    assert "inner" in findings[0].message
    assert f"expected {alg.rank}" in findings[0].message


def test_accumulate_before_start_is_gen005():
    alg, program = _bini_program()
    # Swap the fold's first op (which starts a block) behind the rest.
    program.fold = program.fold[1:] + program.fold[:1]
    messages = [f.message for f in audit_program(program, alg)]
    assert len(messages) == 1 and "fold op" in messages[0]
    assert "before it is written" in messages[0]


def test_read_before_write_is_gen005():
    alg, program = _bini_program()
    fn, x, y, out = program.base[0]
    scratch = alg.m * alg.n + alg.n * alg.k + 3 + alg.m * alg.k
    program.base = ((fn, scratch, y, out),) + program.base[1:]
    messages = [f.message for f in audit_program(program, alg)]
    assert messages and f"reads slot {scratch}" in messages[0]


def test_fold_scratch_read_before_write_is_gen005():
    alg, program = _bini_program()
    fn, x, y, out = program.fold[0]
    program.fold = ((fn, 0, y, out),) + program.fold[1:]
    messages = [f.message for f in audit_program(program, alg)]
    assert messages and "fold op 0 reads slot 0" in messages[0]


def test_stale_product_is_gen005():
    # A first product that waits in slot P must be folded in before the
    # next product overwrites P; moving that read past the next product
    # gives a wrong C that every slot is still written before it is read.
    alg, program = _bini_program()
    ops = list(program.inner)
    P = program.P
    j = next(i for i, op in enumerate(ops) if op[0] is not None
             and P in op[1:3] and any(o[0] is None for o in ops[i + 1:]))
    nxt = next(i for i in range(j + 1, len(ops)) if ops[i][0] is None)
    ops.insert(nxt, ops.pop(j))
    program.inner = tuple(ops)
    messages = [f.message for f in audit_program(program, alg)]
    assert len(messages) == 1
    assert "inner C block" in messages[0] and "reads slot" not in messages[0]


def test_misrouted_term_is_gen005():
    alg, program = _bini_program()
    fn, x, y, out = program.fold[-1]
    n_c = alg.m * alg.k
    c0 = 1 + alg.rank
    moved = c0 + (out - c0 + 1) % n_c
    program.fold = program.fold[:-1] + ((fn, x, y, moved),)
    messages = [f.message for f in audit_program(program, alg)]
    assert len(messages) == 1 and "fold C block" in messages[0]


def test_seeded_program_defect_fails_the_gate():
    result = run_lint(LintConfig(families=("plans",),
                                 seed_defect="gen-dropped-product"))
    assert {f.rule_id for f in result.findings} == {"GEN005"}
    assert result.exit_code() == 1
