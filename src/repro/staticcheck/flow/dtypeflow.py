"""NUM003: interprocedural dtype-flow — no silent float narrowing.

The paper's error bound ``2^(-d*sigma/(sigma+phi))`` is a *per-dtype*
contract: ``d`` is the mantissa width of the dtype the gemm actually
runs in.  A float64 operand silently landing in a float32 buffer (an
``out=`` argument, an in-place slice store, ``np.copyto``) does not
raise — numpy casts — but it invalidates both the bound and the
bit-identity oracle, and the narrowing site can be a helper away from
where the dtype was chosen (Dumas–Pernet–Sedoglavic, arXiv 2402.05630,
is an entire paper about how delicate this accounting is).

The pass infers dtypes *conservatively*: a value has a dtype only when
it provably flows from an array constructor with a literal ``dtype=``,
an ``.astype(...)``, a ``*_like`` of a known array, or promotion of
known operands.  Inference then crosses call boundaries: when a caller
passes known-dtype arrays into a project function, the callee's body is
re-checked with those parameter dtypes bound (memoized, depth-capped),
so a narrowing buried in a helper is reported with the full call chain.
Anything unknown stays unknown and produces no finding — ``.astype``
is *explicit* narrowing and is deliberately not flagged.
"""

from __future__ import annotations

import ast

from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.flow.callgraph import (CallGraph, FuncNode, Resolver,
                                              walk_scope)

__all__ = ["check_dtype_flow"]

#: Float widths for the narrowing comparison.
_FLOAT_BITS = {"float16": 16, "float32": 32, "float64": 64,
               "float128": 128, "longdouble": 128}

_CONSTRUCTORS = {"zeros", "empty", "ones", "full", "array", "asarray",
                 "arange", "linspace", "eye", "identity"}
_LIKE_CONSTRUCTORS = {"zeros_like", "empty_like", "ones_like", "full_like"}
_GEMM_LEAVES = {"matmul", "dot", "gemm", "apa_matmul"}
_MAX_DEPTH = 4


def _dtype_literal(expr: ast.expr, resolver: Resolver) -> str | None:
    """The float dtype a literal-ish expression names, if any."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value if expr.value in _FLOAT_BITS else None
    ref = resolver.resolve_ref(expr)
    if ref is not None:
        leaf = ref.rsplit(".", 1)[-1]
        if leaf in _FLOAT_BITS:
            return leaf
    if isinstance(expr, ast.Call):
        ref = resolver.resolve_ref(expr.func)
        if ref is not None and ref.rsplit(".", 1)[-1] == "dtype" \
                and expr.args:
            return _dtype_literal(expr.args[0], resolver)
    if isinstance(expr, ast.Attribute) and expr.attr == "dtype":
        return None  # X.dtype: handled by the env lookup in _infer
    return None


class _DtypeChecker:
    """Per-project dtype inference + narrowing checks."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.findings: list[Finding] = []
        self._seen: set[tuple[str, tuple]] = set()
        self._reported: set[tuple[str, int]] = set()

    # -- inference -----------------------------------------------------

    def _infer(self, expr: ast.expr, env: dict[str, str],
               resolver: Resolver, depth: int) -> str | None:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            # ``X.T`` keeps X's dtype.
            if expr.attr == "T":
                return self._infer(expr.value, env, resolver, depth)
            return None
        if isinstance(expr, ast.BinOp):
            left = self._infer(expr.left, env, resolver, depth)
            right = self._infer(expr.right, env, resolver, depth)
            return _promote(left, right)
        if isinstance(expr, ast.UnaryOp):
            return self._infer(expr.operand, env, resolver, depth)
        if isinstance(expr, ast.Subscript):
            return self._infer(expr.value, env, resolver, depth)
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, env, resolver, depth)
        return None

    def _infer_call(self, call: ast.Call, env: dict[str, str],
                    resolver: Resolver, depth: int) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "astype" \
                and call.args:
            return _dtype_literal(call.args[0], resolver)
        target = resolver.resolve_call(call)
        leaf = (target.rsplit(".", 1)[-1] if target
                else (func.attr if isinstance(func, ast.Attribute) else None))
        if leaf in _CONSTRUCTORS:
            for kw in call.keywords:
                if kw.arg == "dtype":
                    return _dtype_literal(kw.value, resolver)
            return None
        if leaf in _LIKE_CONSTRUCTORS:
            for kw in call.keywords:
                if kw.arg == "dtype":
                    return _dtype_literal(kw.value, resolver)
            if call.args:
                return self._infer(call.args[0], env, resolver, depth)
            return None
        if leaf in _GEMM_LEAVES and len(call.args) >= 2:
            return _promote(
                self._infer(call.args[0], env, resolver, depth),
                self._infer(call.args[1], env, resolver, depth))
        if target in self.graph.functions and depth < _MAX_DEPTH:
            return self._return_dtype(self.graph.functions[target],
                                      self._bind_params(
                                          call, target, env, resolver,
                                          depth),
                                      depth + 1)
        return None

    def _bind_params(self, call: ast.Call, target: str,
                     env: dict[str, str], resolver: Resolver,
                     depth: int) -> dict[str, str]:
        callee = self.graph.functions[target]
        params = [a.arg for a in (callee.node.args.posonlyargs
                                  + callee.node.args.args)]
        if callee.cls is not None and params and params[0] in ("self",
                                                               "cls"):
            params = params[1:]
        bound: dict[str, str] = {}
        for param, arg in zip(params, call.args):
            dt = self._infer(arg, env, resolver, depth)
            if dt is not None:
                bound[param] = dt
        for kw in call.keywords:
            if kw.arg in params:
                dt = self._infer(kw.value, env, resolver, depth)
                if dt is not None:
                    bound[kw.arg] = dt
        return bound

    def _return_dtype(self, func: FuncNode, param_env: dict[str, str],
                      depth: int) -> str | None:
        env = self._assignment_env(func, param_env, depth)
        resolver = self.graph.resolver(func)
        dtypes: set[str] = set()
        for node in walk_scope(func.node):
            if isinstance(node, ast.Return) and node.value is not None:
                dt = self._infer(node.value, env, resolver, depth)
                if dt is None:
                    return None
                dtypes.add(dt)
        return dtypes.pop() if len(dtypes) == 1 else None

    def _assignment_env(self, func: FuncNode, param_env: dict[str, str],
                        depth: int) -> dict[str, str]:
        """Order-insensitive env: names with one consistent dtype."""
        resolver = self.graph.resolver(func)
        env = dict(param_env)
        conflicted: set[str] = set()
        # Two rounds so simple chains (B = A; C = B @ B) resolve.
        for _ in range(2):
            for stmt in walk_scope(func.node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name):
                    name = stmt.targets[0].id
                    if name in conflicted:
                        continue
                    dt = self._infer(stmt.value, env, resolver, depth)
                    if dt is None:
                        continue
                    if name in env and env[name] != dt \
                            and name not in param_env:
                        conflicted.add(name)
                        env.pop(name, None)
                    elif name not in param_env:
                        env[name] = dt
        return env

    # -- checks --------------------------------------------------------

    def check_function(self, func: FuncNode,
                       param_env: dict[str, str] | None = None,
                       chain: tuple[str, ...] = (),
                       depth: int = 0) -> None:
        param_env = param_env or {}
        memo_key = (func.qualname, tuple(sorted(param_env.items())))
        if memo_key in self._seen:
            return
        self._seen.add(memo_key)
        env = self._assignment_env(func, param_env, depth)
        resolver = self.graph.resolver(func)
        path = func.module.path
        chain = chain + (func.qualname.rsplit(".", 1)[-1],)

        for node in walk_scope(func.node):
            if isinstance(node, ast.Call):
                self._check_call(node, env, resolver, path, chain, depth)
                # Cross into callees with bound parameter dtypes.
                target = resolver.resolve_call(node)
                if target in self.graph.functions and depth < _MAX_DEPTH:
                    bound = self._bind_params(node, target, env, resolver,
                                              depth)
                    if bound:
                        self.check_function(
                            self.graph.functions[target], bound, chain,
                            depth + 1)
            elif isinstance(node, ast.Assign):
                for target_node in node.targets:
                    self._check_store(target_node, node.value, env,
                                      resolver, path, chain, depth,
                                      node.lineno)

    def _note(self, path: str, lineno: int, message: str,
              chain: tuple[str, ...]) -> None:
        if (path, lineno) in self._reported:
            return
        self._reported.add((path, lineno))
        self.findings.append(Finding(
            "NUM003", Severity.ERROR, f"{path}:{lineno}", message,
            detail=f"dtype flow: {' -> '.join(chain)}; narrowing "
                   "invalidates the 2^(-d*sigma/(sigma+phi)) bound — "
                   "use an explicit astype at the boundary if intended",
        ))

    def _check_call(self, call: ast.Call, env: dict[str, str],
                    resolver: Resolver, path: str, chain: tuple[str, ...],
                    depth: int) -> None:
        func = call.func
        leaf = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if leaf in _GEMM_LEAVES and len(call.args) >= 2:
            src = _promote(self._infer(call.args[0], env, resolver, depth),
                           self._infer(call.args[1], env, resolver, depth))
            for kw in call.keywords:
                if kw.arg == "out":
                    dst = self._infer(kw.value, env, resolver, depth)
                    if _narrows(src, dst):
                        self._note(
                            path, call.lineno,
                            f"{src} gemm result silently narrowed into "
                            f"{dst} out= buffer", chain)
        elif leaf == "copyto" and len(call.args) >= 2:
            dst = self._infer(call.args[0], env, resolver, depth)
            src = self._infer(call.args[1], env, resolver, depth)
            if _narrows(src, dst):
                self._note(path, call.lineno,
                           f"np.copyto silently narrows {src} into {dst}",
                           chain)

    def _check_store(self, target: ast.expr, value: ast.expr,
                     env: dict[str, str], resolver: Resolver, path: str,
                     chain: tuple[str, ...], depth: int,
                     lineno: int) -> None:
        if not isinstance(target, ast.Subscript):
            return
        dst = self._infer(target.value, env, resolver, depth)
        src = self._infer(value, env, resolver, depth)
        if _narrows(src, dst):
            self._note(path, lineno,
                       f"in-place store silently narrows {src} into "
                       f"{dst} buffer "
                       f"{ast.unparse(target.value)}", chain)


def _promote(*dtypes: str | None) -> str | None:
    known = [d for d in dtypes if d is not None]
    if len(known) != len(dtypes) or not known:
        return None
    return max(known, key=lambda d: _FLOAT_BITS.get(d, 0))


def _narrows(src: str | None, dst: str | None) -> bool:
    if src is None or dst is None:
        return False
    return _FLOAT_BITS.get(dst, 0) < _FLOAT_BITS.get(src, 0)


def check_dtype_flow(graph: CallGraph) -> list[Finding]:
    """NUM003 findings over the whole project."""
    checker = _DtypeChecker(graph)
    for qualname in sorted(graph.functions):
        checker.check_function(graph.functions[qualname])
    return checker.findings
