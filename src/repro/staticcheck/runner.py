"""Orchestration for ``repro lint``: run families, filter, gate.

:func:`run_lint` executes the selected analyzer families, applies
rule-id filters, and folds the findings into a :class:`LintResult`
whose :meth:`~LintResult.exit_code` implements the CI gate
(``--fail-on error`` by default).  Nothing here executes a gemm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.staticcheck.algcheck import DEFAULT_GROWTH_THRESHOLD
from repro.staticcheck.findings import Finding, Severity, dedupe_findings

__all__ = ["LintConfig", "LintResult", "run_lint", "FAMILIES", "SEED_DEFECTS"]

#: Analyzer families in execution order.
FAMILIES: tuple[str, ...] = ("algorithms", "plans", "concurrency",
                             "engine", "flow")

#: Known seeded defects for gate self-tests (``--seed-defect``).
#: Maps a name to the rule the self-test must trip.  ``bini322-m10-ocr``
#: substitutes a corrupted catalog entry (algorithms family);
#: ``gen-dropped-product`` a corrupted compiled program (plans family);
#: the rest swap the flow family's scan target for a synthetic known-bad
#: package from :data:`repro.staticcheck.flow.fixtures.FLOW_SEED_DEFECTS`.
SEED_DEFECTS: dict[str, str] = {
    "bini322-m10-ocr": "APA003",
    "gen-dropped-product": "GEN005",
    "asy-blocking-coroutine": "ASY001",
    "lck-two-lock-cycle": "LCK001",
    "own-escaping-arena": "OWN001",
    "shm-escaping-view": "OWN002",
    "num-silent-narrowing": "NUM003",
}


@dataclass(frozen=True)
class LintConfig:
    """Everything ``repro lint`` can be asked to do.

    Attributes
    ----------
    families:
        Subset of :data:`FAMILIES` to run.
    algorithms:
        Catalog names for the ``algorithms``/``plans`` families
        (empty = the whole catalog).
    paths:
        Files/directories for the ``concurrency`` family (empty = the
        default ``parallel/`` + ``robustness/`` trees next to this
        package) and the ``engine`` family (empty = the whole ``repro``
        package — a private-impl call can sneak into any module).
    select / ignore:
        Keep only / drop findings with these rule ids.
    fail_on:
        ``'error'`` (default), ``'warning'``, or ``'never'`` — the
        lowest severity that makes :meth:`LintResult.exit_code`
        non-zero.
    growth_threshold:
        ``APA004`` coefficient-growth gate.
    seed_defect:
        Name from :data:`SEED_DEFECTS`; substitutes a known-bad input
        for this run only — a corrupted catalog entry (algorithms
        family) or a synthetic defective package (flow family) — so CI
        can prove the gate trips.  The catalog cache is never touched.
    baseline:
        Path to a committed baseline file
        (:mod:`repro.staticcheck.baseline`); findings fingerprinted
        there are still reported but no longer gate.  A missing file is
        an empty baseline.
    """

    families: tuple[str, ...] = FAMILIES
    algorithms: tuple[str, ...] = ()
    paths: tuple[str, ...] = ()
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    fail_on: str = "error"
    growth_threshold: float = DEFAULT_GROWTH_THRESHOLD
    seed_defect: str | None = None
    baseline: str | None = None

    def __post_init__(self) -> None:
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(
                f"unknown families {sorted(unknown)}; expected {FAMILIES}")
        if self.fail_on not in ("error", "warning", "never"):
            raise ValueError(
                f"fail_on must be 'error', 'warning', or 'never', "
                f"got {self.fail_on!r}")
        if self.seed_defect is not None and self.seed_defect not in SEED_DEFECTS:
            raise ValueError(
                f"unknown seed defect {self.seed_defect!r}; "
                f"known: {sorted(SEED_DEFECTS)}")


@dataclass
class LintResult:
    """Findings plus per-family work counts and the gate verdict.

    ``baselined`` findings matched the committed baseline: they are
    kept (and rendered) for visibility but excluded from the gate.
    """

    findings: tuple[Finding, ...]
    checked: dict[str, int] = field(default_factory=dict)
    fail_on: str = "error"
    baselined: tuple[Finding, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings
                     if f.severity is Severity.WARNING)

    def exit_code(self) -> int:
        if self.fail_on == "never":
            return 0
        if self.errors:
            return 1
        if self.fail_on == "warning" and self.warnings:
            return 1
        return 0

    def summary(self) -> str:
        work = ", ".join(f"{count} {what}" for what, count in
                         self.checked.items())
        verdict = "FAIL" if self.exit_code() else "ok"
        grand = (f", {len(self.baselined)} baselined"
                 if self.baselined else "")
        return (f"repro lint: {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s){grand} over "
                f"{work or 'nothing'} — {verdict}")


def _default_lint_paths() -> tuple[str, ...]:
    from repro.staticcheck.astlint import DEFAULT_LINT_ROOTS

    src_root = Path(__file__).resolve().parent.parent.parent
    return tuple(str(src_root / root) for root in DEFAULT_LINT_ROOTS)


def _engine_lint_paths() -> tuple[str, ...]:
    """The ENG001 scan root: the whole ``repro`` package."""
    src_root = Path(__file__).resolve().parent.parent.parent
    return (str(src_root / "repro"),)


def _seeded_overrides(defect: str | None) -> dict[str, object]:
    """Catalog substitutions for the algorithms family (others: no-op)."""
    if defect == "bini322-m10-ocr":
        from repro.staticcheck.algcheck import bini322_m10_ocr_defect

        return {"bini322": bini322_m10_ocr_defect()}
    return {}


def run_lint(config: LintConfig | None = None) -> LintResult:
    """Run the configured analyzer families and fold the findings."""
    config = config or LintConfig()
    findings: list[Finding] = []
    checked: dict[str, int] = {}

    names: Sequence[str] | None = config.algorithms or None

    if "algorithms" in config.families:
        from repro.algorithms.catalog import list_algorithms
        from repro.staticcheck.algcheck import check_catalog

        overrides = _seeded_overrides(config.seed_defect)
        findings.extend(check_catalog(
            names=names,
            growth_threshold=config.growth_threshold,
            overrides=overrides,  # type: ignore[arg-type]
        ))
        checked["algorithms"] = len(names if names is not None
                                    else list_algorithms("all"))

    if "plans" in config.families:
        from repro.staticcheck.codecheck import check_plans

        gen_findings, audited = check_plans(
            names=names, seed_defect=config.seed_defect)
        findings.extend(gen_findings)
        checked["plan term lists"] = audited

    if "concurrency" in config.families:
        from repro.staticcheck.astlint import lint_paths

        paths = config.paths or _default_lint_paths()
        findings.extend(lint_paths(list(paths)))
        checked["lint roots"] = len(paths)

    if "engine" in config.families:
        from repro.staticcheck.astlint import lint_engine_paths

        # The boundary rule scans the whole package: a private-impl
        # call can sneak into any module, not just parallel/robustness.
        paths = config.paths or _engine_lint_paths()
        eng_findings, scanned = lint_engine_paths(list(paths))
        findings.extend(eng_findings)
        checked["engine-boundary files"] = scanned

    if "flow" in config.families:
        from repro.staticcheck.flow import analyze_paths, analyze_sources
        from repro.staticcheck.flow.fixtures import FLOW_SEED_DEFECTS

        if config.seed_defect in FLOW_SEED_DEFECTS:
            # Self-test mode: scan the synthetic known-bad package
            # instead of the tree — the gate must trip on it.
            _, sources = FLOW_SEED_DEFECTS[config.seed_defect]
            findings.extend(analyze_sources(sources))
            checked["flow modules (seeded)"] = len(sources)
        else:
            paths = config.paths or _engine_lint_paths()
            findings.extend(analyze_paths(list(paths)))
            checked["flow roots"] = len(paths)

    # Cross-family dedupe by (rule, location) + stable (path, line,
    # rule) ordering, so output is byte-identical across runs.
    findings = dedupe_findings(findings)

    if config.select:
        findings = [f for f in findings if f.rule_id in config.select]
    if config.ignore:
        findings = [f for f in findings if f.rule_id not in config.ignore]

    baselined: list[Finding] = []
    if config.baseline is not None:
        from repro.staticcheck.baseline import (load_baseline,
                                                split_by_baseline)

        findings, baselined = split_by_baseline(
            findings, load_baseline(config.baseline))

    return LintResult(findings=tuple(findings), checked=checked,
                      fail_on=config.fail_on, baselined=tuple(baselined))
