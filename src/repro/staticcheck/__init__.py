"""Static verification & lint for APA algorithms, execution plans, and
the execution stack — ``repro lint``.

Three analyzer families, none of which executes a single gemm:

- :mod:`repro.staticcheck.algcheck` — symbolically re-derives every
  catalog algorithm's exactness, order ``sigma``, roundoff exponent
  ``phi``, and rank from its Laurent coefficient tensors and diffs them
  against the stored metadata (rules ``APA0xx``);
- :mod:`repro.staticcheck.codecheck` — audits the term lists every
  :class:`~repro.core.plan.ExecutionPlan` evaluates: exactly ``r``
  write-once S/T/W lists, no dead product, every output block of C
  written (rules ``GEN0xx``);
- :mod:`repro.staticcheck.astlint` — concurrency/numerics linting of
  the source tree: unlocked shared state touched from worker threads,
  non-reentrant RNG use, bare ``except`` (rules ``PAR0xx``/``NUM0xx``);
- :mod:`repro.staticcheck.flow` — whole-program flow analysis over a
  package-wide call graph: blocking ops reachable from coroutines
  (``ASY0xx``), lock-order cycles (``LCK0xx``), pooled-arena escapes
  (``OWN0xx``), and silent dtype narrowing (``NUM003``).

Findings are structured (:class:`~repro.staticcheck.findings.Finding`),
rendered as text, JSON, or SARIF 2.1.0, optionally filtered against a
committed baseline (:mod:`repro.staticcheck.baseline`), and gate CI via
``repro lint --fail-on error``.
"""

from repro.staticcheck.findings import (Finding, Severity, dedupe_findings,
                                        render_json, render_text)
from repro.staticcheck.rules import RULES, RuleInfo
from repro.staticcheck.runner import LintConfig, LintResult, run_lint
from repro.staticcheck.sarif import render_sarif

__all__ = [
    "Finding",
    "Severity",
    "dedupe_findings",
    "render_text",
    "render_json",
    "render_sarif",
    "RULES",
    "RuleInfo",
    "LintConfig",
    "LintResult",
    "run_lint",
]
