"""The symbolic algorithm checker (APA rules) and the finding model."""

import json

import pytest

from repro.algorithms.bini import bini322_algorithm
from repro.algorithms.catalog import (
    EXPECTED_PROPERTIES,
    AlgorithmProperties,
    get_algorithm,
    list_algorithms,
)
from repro.algorithms.spec import BilinearAlgorithm, coeff_matrix
from repro.algorithms.strassen import strassen_algorithm
from repro.staticcheck import Finding, Severity, render_json, render_text
from repro.staticcheck.algcheck import (
    bini322_m10_ocr_defect,
    check_algorithm,
    check_catalog,
    check_table_consistency,
    coefficient_growth,
    derive_properties,
)
from repro.staticcheck.rules import RULES, describe_rules


# ----------------------------------------------------------------------
# findings & rules plumbing
# ----------------------------------------------------------------------


def test_severity_ordering_and_parse():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert Severity.parse("error") is Severity.ERROR
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_finding_render_and_json_roundtrip():
    f = Finding("APA001", Severity.ERROR, "catalog:x", "mismatch",
                detail="rank: derived 9 != stored 10")
    assert "catalog:x: error: APA001: mismatch" in f.render()
    data = json.loads(render_json([f]))
    assert data == [{
        "rule": "APA001", "severity": "error", "location": "catalog:x",
        "message": "mismatch", "detail": "rank: derived 9 != stored 10",
    }]


def test_render_text_orders_errors_first():
    fs = [
        Finding("APA004", Severity.WARNING, "catalog:a", "warn"),
        Finding("APA000", Severity.ERROR, "catalog:b", "boom"),
    ]
    lines = render_text(fs).splitlines()
    assert lines[0].startswith("catalog:b")


def test_rule_catalog_is_complete_and_described():
    for rid in ("APA000", "APA001", "APA002", "APA003", "APA004", "APA005",
                "GEN001", "GEN002", "GEN003", "GEN004",
                "PAR001", "PAR002", "NUM001", "NUM002"):
        assert rid in RULES
    text = describe_rules()
    assert "APA003" in text and "PAR001" in text


# ----------------------------------------------------------------------
# symbolic re-derivation
# ----------------------------------------------------------------------


def test_derive_properties_matches_pinned_table_for_bini322():
    derived, report = derive_properties(bini322_algorithm())
    assert report.valid and not report.is_exact
    assert derived == EXPECTED_PROPERTIES["bini322"]


def test_clean_catalog_has_no_findings():
    findings = check_catalog()
    assert findings == []


def test_table1_and_expected_properties_agree():
    assert check_table_consistency() == []


def test_every_catalog_name_has_expected_properties():
    assert sorted(EXPECTED_PROPERTIES) == sorted(list_algorithms("all"))


def test_surrogate_metadata_mismatch_flagged():
    alg = get_algorithm("smirnov444")
    wrong = AlgorithmProperties((4, 4, 4), 46, 1, 4, 39)  # phi off by one
    findings = check_algorithm(alg, wrong)
    assert [f.rule_id for f in findings] == ["APA001"]
    assert "phi" in findings[0].detail


# ----------------------------------------------------------------------
# the seeded Bini M10 corruption (the bug this subsystem exists for)
# ----------------------------------------------------------------------


def test_ocr_defective_bini_fails_the_gate():
    bad = bini322_m10_ocr_defect()
    findings = check_algorithm(bad, EXPECTED_PROPERTIES["bini322"])
    assert any(f.rule_id == "APA000" and f.severity is Severity.ERROR
               for f in findings)


def test_ocr_defect_duplicates_m9_b_part():
    bad = bini322_m10_ocr_defect()
    # The corruption's signature: M10's V column equals M9's.
    assert all(bad.V[s, 8] == bad.V[s, 9] for s in range(bad.V.shape[0]))
    good = bini322_algorithm()
    assert any(good.V[s, 8] != good.V[s, 9] for s in range(good.V.shape[0]))


def test_check_catalog_overrides_do_not_touch_cache():
    bad = bini322_m10_ocr_defect()
    findings = check_catalog(names=["bini322"], overrides={"bini322": bad})
    assert any(f.rule_id == "APA000" for f in findings)
    # the shared catalog entry is untouched
    assert check_catalog(names=["bini322"]) == []


# ----------------------------------------------------------------------
# structural rules on synthetic algorithms
# ----------------------------------------------------------------------


def _with_extra_column(alg: BilinearAlgorithm, u_col, v_col, w_col):
    """Append one triplet column (dicts of row -> value)."""
    r = alg.rank
    U = coeff_matrix(alg.U.shape[0], r + 1)
    V = coeff_matrix(alg.V.shape[0], r + 1)
    W = coeff_matrix(alg.W.shape[0], r + 1)
    U[:, :r], V[:, :r], W[:, :r] = alg.U, alg.V, alg.W
    from repro.linalg.laurent import Laurent

    for M, col in ((U, u_col), (V, v_col), (W, w_col)):
        for row, value in col.items():
            M[row, r] = value if isinstance(value, Laurent) \
                else Laurent.const(value)
    return BilinearAlgorithm(name=f"{alg.name}_aug", m=alg.m, n=alg.n,
                             k=alg.k, U=U, V=V, W=W)


def test_dead_multiplication_flagged():
    # Extra column with zero W: contributes to nothing.
    aug = _with_extra_column(strassen_algorithm(), {0: 1}, {0: 1}, {})
    findings = check_algorithm(aug)
    assert any(f.rule_id == "APA002" for f in findings)
    # Still algebraically valid (the dead product is never used).
    assert not any(f.rule_id == "APA000" for f in findings)


def test_duplicate_triplet_flagged():
    base = strassen_algorithm()
    # Duplicate M1's (U, V) pair with a zero W part: redundant + dead.
    u_col = {p: base.U[p, 0] for p in range(base.U.shape[0]) if base.U[p, 0]}
    v_col = {s: base.V[s, 0] for s in range(base.V.shape[0]) if base.V[s, 0]}
    aug = _with_extra_column(base, u_col, v_col, {})
    rule_ids = {f.rule_id for f in check_algorithm(aug)}
    assert "APA003" in rule_ids


def test_coefficient_growth_values_and_warning():
    assert coefficient_growth(get_algorithm("classical222")) == 1.0
    assert coefficient_growth(bini322_algorithm()) == 8.0
    findings = check_algorithm(bini322_algorithm(), growth_threshold=4.0)
    warn = [f for f in findings if f.rule_id == "APA004"]
    assert len(warn) == 1 and warn[0].severity is Severity.WARNING
