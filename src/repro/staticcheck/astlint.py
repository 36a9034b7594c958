"""Family 3: concurrency & numerics lints over the source tree.

Custom ``ast`` visitors (ruff-plugin style) aimed at the failure modes
the threaded executor and the robustness stack must never reintroduce:

``PAR001``
    A function handed to a thread pool (``pool.submit(fn, ...)``,
    ``pool.map(fn, ...)``, ``threading.Thread(target=fn)``,
    ``loop.run_in_executor(pool, fn, ...)``) writes to
    state it closes over — a ``nonlocal``/``global`` rebind, or a
    subscript/attribute store on a closed-over object — without holding
    a lock (a ``with`` block whose context expression mentions a lock).
    Worker results must flow back through return values; in-place
    mutation from worker threads is a data race.

    Additionally, *any* function that declares ``global`` and rebinds
    one of those names outside a lock-guarded ``with`` block is flagged:
    module-level shared state (the persistent thread pool in
    :mod:`repro.parallel.pool` is the canonical case) is reachable from
    every thread, so its rebinds must sit under the module's lock even
    when the function itself is not a worker.
``PAR002``
    Legacy global RNG state (``np.random.seed``, ``np.random.rand``,
    ``random.random``, ...) instead of an owned
    ``np.random.Generator``.  Global RNG state is not reentrant: two
    worker threads interleaving draws destroy reproducibility.
``NUM001``
    Bare ``except:``.
``NUM002``
    A broad handler (bare or ``except Exception``/``BaseException``)
    whose body is only ``pass``/``...`` — silent swallow.  Escalated to
    an error when the guarded ``try`` block contains a gemm-like call:
    a failed product must never vanish without a recovery action.
``ENG001``
    The single-dispatch-point invariant: the private execution
    internals (``_apa_matmul_impl``, ``_threaded_matmul_impl``,
    ``_batched_matmul_impl``, ``_process_matmul_impl``,
    ``_shard_matmul_impl``) may only be imported or called from
    ``repro/core/engine.py``.  Every other module must go through
    ``apa_matmul`` or the :class:`~repro.core.engine.ExecutionEngine`
    itself — otherwise configs, contexts, guards, and fault injection
    silently stop applying to that call site.

Suppression: append a *reasoned* ignore comment to the flagged line,
``x = f()  # lint: ignore[PAR001]: single-writer, readers are atomic``
(see :mod:`repro.staticcheck.suppress` — a suppression with no trailing
reason draws an ``LNT001`` meta-finding from the flow family).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.suppress import SuppressionIndex

__all__ = ["lint_source", "lint_paths", "lint_engine_boundary",
           "lint_engine_paths", "DEFAULT_LINT_ROOTS", "ENGINE_PRIVATE_NAMES"]

#: Trees the concurrency/numerics linter walks by default (relative to
#: the repository's ``src`` directory).
DEFAULT_LINT_ROOTS: tuple[str, ...] = ("repro/parallel", "repro/robustness",
                                       "repro/serve")

#: ``np.random`` attributes that are reentrancy-safe constructors, not
#: draws from hidden global state.
_SAFE_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                   "PCG64", "Philox"}

#: Stdlib ``random`` module functions backed by the hidden global
#: ``Random`` instance.
_STATEFUL_RANDOM = {
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "shuffle", "choice", "choices", "sample", "seed", "betavariate",
    "expovariate", "getrandbits", "triangular", "vonmisesvariate",
}

#: Call names treated as "a gemm" for NUM002 escalation.
_GEMM_NAMES = {"gemm", "matmul", "apa_matmul", "dot"}

#: Engine-owned private entry points (ENG001).  Only
#: ``repro/core/engine.py`` may import or call these.
ENGINE_PRIVATE_NAMES = frozenset({
    "_apa_matmul_impl", "_threaded_matmul_impl", "_batched_matmul_impl",
    "_process_matmul_impl", "_shard_matmul_impl",
})

def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _contains_gemm_call(nodes: Iterable[ast.stmt]) -> bool:
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _call_name(node) in _GEMM_NAMES:
                return True
    return False


def _is_np_random(node: ast.Attribute) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute bases."""
    base = node.value
    return (isinstance(base, ast.Attribute) and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy"))


# ----------------------------------------------------------------------
# worker-thread shared-state analysis (PAR001)
# ----------------------------------------------------------------------


def _worker_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names of nested functions handed to a pool or a Thread."""
    nested = {n.name for n in ast.walk(func)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
              and n is not func}
    workers: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in ("submit", "map") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name) and first.id in nested:
                workers.add(first.id)
        elif name == "run_in_executor" and len(node.args) >= 2:
            # loop.run_in_executor(pool, fn, ...) — the callable is the
            # second positional (the first is the executor, often None).
            fn = node.args[1]
            if isinstance(fn, ast.Name) and fn.id in nested:
                workers.add(fn.id)
        elif name in ("Thread", "Process"):
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name) \
                        and kw.value.id in nested:
                    workers.add(kw.value.id)
        elif name in ("apply_async", "map_async", "starmap",
                      "starmap_async", "imap", "imap_unordered") \
                and node.args:
            # multiprocessing.pool dispatch: first arg is the worker.
            first = node.args[0]
            if isinstance(first, ast.Name) and first.id in nested:
                workers.add(first.id)
    return workers


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters plus plainly-assigned names (Python's local-scope rule)."""
    args = func.args
    local = {a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)}
    if args.vararg:
        local.add(args.vararg.arg)
    if args.kwarg:
        local.add(args.kwarg.arg)
    declared_free: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            declared_free.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            local.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            local.add(node.name)
    return local - declared_free


def _locked_linenos(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[int]:
    """Line numbers lexically inside a ``with <...lock...>`` block."""
    locked: set[int] = set()
    for node in ast.walk(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if any("lock" in ast.unparse(item.context_expr).lower()
               for item in node.items):
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    if hasattr(inner, "lineno"):
                        locked.add(inner.lineno)
    return locked


def _store_base(target: ast.expr) -> ast.expr | None:
    """Innermost base name-expression of a subscript/attribute store."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _check_worker(
    worker: ast.FunctionDef | ast.AsyncFunctionDef,
    path: str,
) -> list[Finding]:
    findings: list[Finding] = []
    local = _local_names(worker)
    locked = _locked_linenos(worker)
    declared_free: set[str] = set()
    for node in ast.walk(worker):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            declared_free.update(node.names)

    for node in ast.walk(worker):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in declared_free and node.lineno not in locked:
                    findings.append(Finding(
                        "PAR001", Severity.ERROR, f"{path}:{node.lineno}",
                        f"worker {worker.name!r} rebinds closed-over name "
                        f"{target.id!r} without a lock",
                    ))
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = _store_base(target)
                if base is not None and base.id not in local \
                        and node.lineno not in locked:
                    findings.append(Finding(
                        "PAR001", Severity.ERROR, f"{path}:{node.lineno}",
                        f"worker {worker.name!r} mutates shared object "
                        f"{base.id!r} ({ast.unparse(target)}) without a "
                        "lock",
                        detail="return the value instead, or guard the "
                               "store with a lock",
                    ))
    return findings


def _scope_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """Yield the nodes of ``func``'s own scope, skipping nested functions."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _flat_name_targets(target: ast.expr) -> list[ast.Name]:
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _flat_name_targets(elt)]
    return []


def _check_global_rebinds(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    path: str,
) -> list[Finding]:
    """PAR001 for non-worker functions: ``global`` rebinds need the lock."""
    declared: set[str] = set()
    for node in _scope_nodes(func):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return []
    locked = _locked_linenos(func)
    findings: list[Finding] = []
    for node in _scope_nodes(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for name in _flat_name_targets(target):
                if name.id in declared and node.lineno not in locked:
                    findings.append(Finding(
                        "PAR001", Severity.ERROR, f"{path}:{node.lineno}",
                        f"function {func.name!r} rebinds module global "
                        f"{name.id!r} outside a lock",
                        detail="module-level shared state is visible to "
                               "every thread; rebind it under the "
                               "module's guarding lock",
                    ))
    return findings


# ----------------------------------------------------------------------
# the per-file linter
# ----------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """All ``PAR0xx``/``NUM0xx`` findings for one module's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding("NUM001", Severity.ERROR, f"{path}:{exc.lineno or 0}",
                        f"file does not parse: {exc.msg}")]
    findings: list[Finding] = []

    imported_random = any(
        isinstance(node, ast.Import)
        and any(alias.name == "random" and alias.asname is None
                for alias in node.names)
        for node in ast.walk(tree)
    )

    for node in ast.walk(tree):
        # NUM001 / NUM002 — exception hygiene
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                broad = handler.type is None or (
                    isinstance(handler.type, ast.Name)
                    and handler.type.id in ("Exception", "BaseException"))
                if handler.type is None:
                    findings.append(Finding(
                        "NUM001", Severity.ERROR,
                        f"{path}:{handler.lineno}",
                        "bare 'except:' catches everything, including "
                        "KeyboardInterrupt",
                    ))
                body_is_silent = all(
                    isinstance(stmt, ast.Pass)
                    or (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is Ellipsis)
                    for stmt in handler.body)
                if broad and body_is_silent:
                    around_gemm = _contains_gemm_call(node.body)
                    findings.append(Finding(
                        "NUM002",
                        Severity.ERROR if around_gemm else Severity.WARNING,
                        f"{path}:{handler.lineno}",
                        "broad exception handler silently swallows "
                        + ("a failed gemm call" if around_gemm
                           else "the exception"),
                    ))

        # PAR002 — non-reentrant RNG
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if _is_np_random(node) and node.attr not in _SAFE_NP_RANDOM:
                findings.append(Finding(
                    "PAR002", Severity.ERROR, f"{path}:{node.lineno}",
                    f"np.random.{node.attr} draws from hidden global "
                    "state; use an owned np.random.Generator",
                ))
            elif (imported_random and isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr in _STATEFUL_RANDOM):
                findings.append(Finding(
                    "PAR002", Severity.ERROR, f"{path}:{node.lineno}",
                    f"random.{node.attr} uses the process-global Random "
                    "instance; use random.Random(seed) or numpy",
                ))

        # PAR001 — worker-thread shared state
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_global_rebinds(node, path))
            workers = _worker_names(node)
            if workers:
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)) \
                            and inner.name in workers:
                        findings.extend(_check_worker(inner, path))

    # Nested scopes can discover the same worker twice — dedupe before
    # applying inline suppressions.
    unique: dict[tuple[str, str, str], Finding] = {
        (f.rule_id, f.location, f.message): f for f in findings
    }
    index = SuppressionIndex(path, source, tree)
    return [f for f in unique.values()
            if not index.is_suppressed(
                int(f.location.rsplit(":", 1)[1]), f.rule_id)]


def lint_paths(paths: Sequence[str | Path]) -> list[Finding]:
    """Lint every ``*.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for file in _collect_files(paths):
        findings.extend(lint_source(file.read_text(), str(file)))
    return findings


# ----------------------------------------------------------------------
# engine-boundary linter (ENG001)
# ----------------------------------------------------------------------


def _is_engine_module(path: str) -> bool:
    p = Path(path)
    return p.name == "engine.py" and p.parent.name == "core"


def lint_engine_boundary(source: str, path: str = "<string>") -> list[Finding]:
    """``ENG001`` findings for one module's source text.

    Flags every import or load of an :data:`ENGINE_PRIVATE_NAMES` entry
    outside ``repro/core/engine.py`` — the machine check behind the
    single-dispatch-point invariant.  Defining the name (the ``def`` in
    its home module) is fine; *using* it anywhere but the engine is not.
    """
    if _is_engine_module(path):
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # lint_source reports the parse failure as NUM001
    findings: list[Finding] = []
    for node in ast.walk(tree):
        hits: list[tuple[str, str]] = []
        if isinstance(node, ast.ImportFrom):
            hits = [(alias.name, "imports") for alias in node.names
                    if alias.name in ENGINE_PRIVATE_NAMES]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in ENGINE_PRIVATE_NAMES:
                hits = [(node.id, "uses")]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            if node.attr in ENGINE_PRIVATE_NAMES:
                hits = [(node.attr, "uses")]
        for name, verb in hits:
            findings.append(Finding(
                "ENG001", Severity.ERROR, f"{path}:{node.lineno}",
                f"{verb} engine-private {name!r} outside core/engine.py",
                detail="route the call through apa_matmul or the "
                       "ExecutionEngine so configs, contexts, guards, "
                       "and fault injection keep applying",
            ))
    unique: dict[tuple[str, str, str], Finding] = {
        (f.rule_id, f.location, f.message): f for f in findings
    }
    index = SuppressionIndex(path, source, tree)
    return [f for f in unique.values()
            if not index.is_suppressed(
                int(f.location.rsplit(":", 1)[1]), f.rule_id)]


# ----------------------------------------------------------------------
# wrapper-construction linter (ENG002)
# ----------------------------------------------------------------------

#: Wrapper classes owned by the ``repro.backends`` stack subsystem.
#: Constructing one by hand bypasses the canonical stage order, the
#: stack's plan-key/error-bound contracts, and the config knobs that
#: activate the same behavior declaratively.
WRAPPER_CLASS_NAMES = frozenset({"GuardedBackend"})


def _is_backends_module(path: str) -> bool:
    return "backends" in Path(path).parts


def lint_wrapper_construction(source: str,
                              path: str = "<string>") -> list[Finding]:
    """``ENG002`` findings for one module's source text.

    Flags every direct construction of a :data:`WRAPPER_CLASS_NAMES`
    wrapper outside ``repro/backends/`` — stages compose through
    :class:`~repro.backends.stack.BackendStack` (or the config knobs
    ``guarded=`` / ``fault=``), not by hand-nesting wrapper objects.
    The sanctioned exceptions carry reasoned inline ignores.
    """
    if _is_backends_module(path):
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # lint_source reports the parse failure as NUM001
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in WRAPPER_CLASS_NAMES:
            continue
        findings.append(Finding(
            "ENG002", Severity.ERROR, f"{path}:{node.lineno}",
            f"constructs wrapper {name!r} directly outside "
            "repro/backends/",
            detail="compose stages through BackendStack.from_config "
                   "(or the guarded=/fault= config knobs) so stage "
                   "order, plan keys, and error-bound folding stay "
                   "uniform",
        ))
    unique: dict[tuple[str, str, str], Finding] = {
        (f.rule_id, f.location, f.message): f for f in findings
    }
    index = SuppressionIndex(path, source, tree)
    return [f for f in unique.values()
            if not index.is_suppressed(
                int(f.location.rsplit(":", 1)[1]), f.rule_id)]


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_engine_paths(
    paths: Sequence[str | Path],
) -> tuple[list[Finding], int]:
    """``ENG001``/``ENG002``-lint every ``*.py`` file under ``paths``.

    Returns the findings plus the number of files scanned (the
    ``repro lint`` work counter).
    """
    findings: list[Finding] = []
    files = _collect_files(paths)
    for file in files:
        source = file.read_text()
        findings.extend(lint_engine_boundary(source, str(file)))
        findings.extend(lint_wrapper_construction(source, str(file)))
    return findings, len(files)
