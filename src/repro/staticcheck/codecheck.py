"""Family 2: AST audit of generated kernels (``GEN0xx``).

:mod:`repro.codegen.generate` emits straight-line Python implementing one
recursive step of an algorithm.  The emitted module has a rigid contract
that ``mode='kernel'`` relies on and that CSE rewrites must preserve:

- it parses and compiles (``GEN000``);
- it contains exactly ``r`` calls to ``gemm``, each bound to a product
  buffer ``P{t}`` (``GEN001``);
- operand blocks (``A{i}{j}``/``B{i}{j}``), products (``P{t}``), and CSE
  temporaries (``Su*``/``Tv*``/``Wc*``) are written exactly once
  (``GEN002``) — the write-once strategy the addition-count analytics
  assume;
- every such buffer is read after being written (``GEN003``) — an
  unused temporary means CSE emitted a dead definition;
- the ``m*k`` output blocks of ``C`` are each stored exactly once
  (``GEN004``).

The audit never executes the module — it walks the AST only.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Sequence

from repro.algorithms.spec import BilinearAlgorithm
from repro.staticcheck.findings import Finding, Severity

__all__ = ["audit_generated_source", "check_codegen"]

#: Buffer names covered by the write-once / no-dead-definition contract.
_BUFFER_RE = re.compile(r"^(A\d+|B\d+|P\d+|Su\d+|Tv\d+|Wc\d+)$")


class _ModuleScan(ast.NodeVisitor):
    """Collect stores, loads, gemm calls, and C-block stores."""

    def __init__(self) -> None:
        self.buffer_stores: dict[str, list[int]] = {}
        self.loads: set[str] = set()
        self.gemm_calls: list[tuple[int, str | None]] = []  # (line, target)
        self.c_stores: list[tuple[int, str]] = []           # (line, slice text)
        self._assign_targets: list[str] = []

    def visit_Assign(self, node: ast.Assign) -> None:
        targets: list[str] = []
        for target in node.targets:
            if isinstance(target, ast.Name):
                name = target.id
                targets.append(name)
                if _BUFFER_RE.match(name):
                    self.buffer_stores.setdefault(name, []).append(node.lineno)
            elif isinstance(target, ast.Subscript):
                base = target.value
                if isinstance(base, ast.Name) and base.id == "C":
                    self.c_stores.append(
                        (node.lineno, ast.unparse(target.slice)))
                self.visit(base)
        if (isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "gemm"):
            self.gemm_calls.append(
                (node.lineno, targets[0] if targets else None))
        self.visit(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.add(node.id)


def audit_generated_source(
    source: str,
    alg: BilinearAlgorithm,
    location: str | None = None,
) -> list[Finding]:
    """Audit one generated module against the ``GEN0xx`` contract."""
    location = location or f"codegen:{alg.name}"
    findings: list[Finding] = []
    try:
        tree = ast.parse(source)
        compile(tree, location, "exec")
    except SyntaxError as exc:
        findings.append(Finding(
            "GEN000", Severity.ERROR, location,
            f"generated module does not parse: {exc.msg}",
            detail=f"line {exc.lineno}",
        ))
        return findings

    scan = _ModuleScan()
    scan.visit(tree)

    r = alg.rank
    if len(scan.gemm_calls) != r:
        findings.append(Finding(
            "GEN001", Severity.ERROR, location,
            f"expected exactly {r} gemm calls, found {len(scan.gemm_calls)}",
        ))
    for line, target in scan.gemm_calls:
        if target is None or not re.match(r"^P\d+$", target):
            findings.append(Finding(
                "GEN001", Severity.ERROR, location,
                f"gemm call at line {line} is not bound to a product "
                f"buffer (target {target!r})",
            ))

    for name, lines in sorted(scan.buffer_stores.items()):
        if len(lines) > 1:
            findings.append(Finding(
                "GEN002", Severity.ERROR, location,
                f"buffer {name} assigned {len(lines)} times "
                f"(lines {', '.join(map(str, lines))}); the contract is "
                "write-once",
            ))
        if name not in scan.loads:
            findings.append(Finding(
                "GEN003", Severity.ERROR, location,
                f"buffer {name} (line {lines[0]}) is assigned but never "
                "read",
            ))

    expected_outputs = alg.m * alg.k
    if len(scan.c_stores) != expected_outputs:
        findings.append(Finding(
            "GEN004", Severity.ERROR, location,
            f"expected {expected_outputs} output-block stores into C, "
            f"found {len(scan.c_stores)}",
        ))
    seen_slices: dict[str, int] = {}
    for line, sl in scan.c_stores:
        if sl in seen_slices:
            findings.append(Finding(
                "GEN004", Severity.ERROR, location,
                f"output block C[{sl}] stored twice "
                f"(lines {seen_slices[sl]} and {line})",
            ))
        else:
            seen_slices[sl] = line
    return findings


def check_codegen(
    names: Sequence[str] | None = None,
    max_cse_rank: int = 128,
) -> tuple[list[Finding], int, int]:
    """Generate and audit every real catalog algorithm.

    Every algorithm is audited in plain mode; the CSE mode is audited
    only up to ``max_cse_rank`` (greedy pairwise CSE on the rank-490
    rules costs ~20 s of pure source generation, and the CSE rewriter's
    contract is fully exercised by the smaller rules).  Returns
    ``(findings, modules_audited, cse_skipped)`` so the runner can
    report the cap instead of hiding it.
    """
    from repro.algorithms.catalog import get_algorithm, list_algorithms
    from repro.codegen.generate import generate_source

    findings: list[Finding] = []
    audited = 0
    cse_skipped = 0
    selected = names if names is not None else list_algorithms("real")
    for name in selected:
        alg = get_algorithm(name)
        if alg.is_surrogate:
            continue
        assert isinstance(alg, BilinearAlgorithm)
        modes: Iterable[bool] = (False, True)
        if alg.rank > max_cse_rank:
            modes = (False,)
            cse_skipped += 1
        for cse in modes:
            source = generate_source(alg, cse=cse)
            tag = f"codegen:{name}" + (":cse" if cse else "")
            findings.extend(audit_generated_source(alg=alg, source=source,
                                                   location=tag))
            audited += 1
    return findings, audited, cse_skipped
