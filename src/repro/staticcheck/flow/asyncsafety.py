"""ASY family: blocking operations transitively reachable from coroutines.

The serving layer's entire correctness story assumes the event loop is
never blocked: admission, coalescing, deadline bookkeeping, and the
metrics endpoint all share one thread.  A ``time.sleep`` (or a sync
``Future.result()``, or a gemm) three helpers deep below a coroutine
stalls *every* in-flight request, which no per-function linter can see.
This pass walks the call graph from every ``async def`` in the project
along ``direct`` edges — ``run_in_executor``/``submit`` hand-offs are
excluded by construction, because their callees leave the loop thread —
and classifies blocking primitives at the reached call sites:

``ASY001``
    Unbounded blocking waits: ``time.sleep``, a ``concurrent.futures``
    ``Future.result()``, ``Thread.join()``, or a thread-pool
    ``shutdown()`` that waits.
``ASY002``
    Synchronous lock acquisition: a non-awaited ``.acquire()`` on a
    ``threading`` lock (or a lock-named attribute).  ``with lock:``
    blocks are deliberately *not* flagged — bounded critical sections
    are how cross-thread sinks (EventLog, metrics) are meant to be
    touched from the loop.
``ASY003``
    Heavy compute on the loop: ``np.matmul``/``np.dot`` or an APA gemm
    entry point reached without an intervening executor hop.
"""

from __future__ import annotations

import ast

from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.flow.callgraph import (CallGraph, FuncNode, Resolver,
                                              walk_scope)

__all__ = ["check_async_safety", "classify_blocking", "blocking_ops"]

#: Dotted call targets that are always ASY001.
_SLEEPS = {"time.sleep"}

#: Dotted call targets that are always ASY003 (heavy compute).
_GEMM_TARGETS = {"numpy.matmul", "numpy.dot", "numpy.einsum",
                 "numpy.tensordot", "numpy.vdot"}

#: Project entry points that are a gemm by contract (leaf names).
_GEMM_LEAVES = {"apa_matmul"}

_THREADING_LOCKS = ("threading.Lock", "threading.RLock",
                    "threading.Condition", "threading.Semaphore",
                    "threading.BoundedSemaphore")


def _awaited_calls(func: FuncNode) -> set[int]:
    """``id()`` of every Call node directly under an ``await``."""
    out: set[int] = set()
    for node in walk_scope(func.node):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            out.add(id(node.value))
    return out


def _wait_kwarg_false(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "wait" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


def classify_blocking(call: ast.Call, resolver: Resolver,
                      awaited: set[int]) -> tuple[str, str] | None:
    """``(rule_id, description)`` when the call is a blocking primitive."""
    target = resolver.resolve_call(call)
    if target in _SLEEPS:
        return "ASY001", "time.sleep"
    if target and (target in _GEMM_TARGETS
                   or target.rsplit(".", 1)[-1] in _GEMM_LEAVES):
        return "ASY003", f"gemm call {target.rsplit('.', 1)[-1]}"
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    recv_t = resolver.type_of(call.func.value) or ""
    if attr == "result" and recv_t == "concurrent.futures.Future":
        return "ASY001", "Future.result()"
    if attr == "join" and recv_t.endswith("threading.Thread"):
        return "ASY001", "Thread.join()"
    if attr == "shutdown" and recv_t.endswith("Executor") \
            and not _wait_kwarg_false(call):
        return "ASY001", "Executor.shutdown(wait=True)"
    if attr == "acquire" and id(call) not in awaited:
        lockish = recv_t.startswith(_THREADING_LOCKS) or (
            not recv_t and "lock" in ast.unparse(call.func.value).lower())
        if lockish:
            return "ASY002", f"sync {ast.unparse(call.func)}()"
    return None


def blocking_ops(func: FuncNode,
                 graph: CallGraph) -> list[tuple[str, int, str]]:
    """``(rule, lineno, description)`` for blocking ops in ``func``'s body."""
    resolver = graph.resolver(func)
    awaited = _awaited_calls(func)
    ops: list[tuple[str, int, str]] = []
    for node in walk_scope(func.node):
        if isinstance(node, ast.Call):
            hit = classify_blocking(node, resolver, awaited)
            if hit is not None:
                ops.append((hit[0], node.lineno, hit[1]))
    return ops


def check_async_safety(graph: CallGraph) -> list[Finding]:
    """Walk from every coroutine; flag reachable blocking operations."""
    ops_cache: dict[str, list[tuple[str, int, str]]] = {}
    best: dict[tuple[str, str], tuple[int, Finding]] = {}

    for root in sorted(graph.functions.values(), key=lambda f: f.qualname):
        if not root.is_async:
            continue
        stack = [(root.qualname, (root.qualname,))]
        seen = {root.qualname}
        while stack:
            qualname, chain = stack.pop()
            func = graph.functions[qualname]
            ops = ops_cache.get(qualname)
            if ops is None:
                ops = blocking_ops(func, graph)
                ops_cache[qualname] = ops
            for rule, lineno, desc in ops:
                location = f"{func.module.path}:{lineno}"
                via = " -> ".join(f.rsplit(".", 1)[-1] for f in chain)
                finding = Finding(
                    rule, Severity.ERROR, location,
                    f"{desc} reachable from coroutine "
                    f"{root.qualname.rsplit('.', 1)[-1]!r} blocks the "
                    f"event loop",
                    detail=f"call path: {via}; route it through "
                           "run_in_executor or an async primitive",
                )
                key = (rule, location)
                prior = best.get(key)
                if prior is None or len(chain) < prior[0]:
                    best[key] = (len(chain), finding)
            for edge in graph.callees(qualname):
                if edge.kind != "direct" or edge.callee in seen:
                    continue
                seen.add(edge.callee)
                stack.append((edge.callee, chain + (edge.callee,)))

    return [entry[1] for _, entry in sorted(best.items())]
