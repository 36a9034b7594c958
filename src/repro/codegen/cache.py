"""Compile-and-memoize layer over the code generator.

Also home of :class:`KernelArena`, the pooled-buffer companion the
generated kernels accept: ``fn(A, B, arena=arena)`` reuses the padded
staging buffers and the padded output across calls — the generated
kernel's analog of the plan workspace arenas in
:mod:`repro.core.plan`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.codegen.generate import generate_source
from repro.obs import tracer as _obs_tracer

__all__ = ["compile_algorithm", "clear_cache", "cache_stats", "KernelArena"]

_LOCK = threading.Lock()
_CACHE: dict[str, object] = {}
_HITS = 0
_MISSES = 0


class KernelArena:
    """Reusable buffers for generated kernels, keyed by (tag, shape, dtype).

    Buffers are handed out as-is (possibly holding a previous call's
    data); the generated code re-zeroes whatever margins must be zero.
    Not thread-safe — a kernel writes into the arena's buffers for the
    whole call, so use one arena per thread.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def take(self, tag: str, shape: tuple[int, int], dtype) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def nbytes(self) -> int:
        """Total bytes currently pooled (the arena's memory overhead)."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


def compile_algorithm(alg, func_name: str | None = None, cse: bool = False):
    """Compile the generated source and return the matmul callable.

    Compiled functions are memoized per (algorithm, cse); the returned
    callable has signature ``fn(A, B, lam=1.0, gemm=None, arena=None)``
    (pass a :class:`KernelArena` to reuse padded buffers across calls).
    Memoization is thread-safe; a rare concurrent first compile keeps
    the first registration.
    """
    global _HITS, _MISSES
    key = f"{alg.name}:{func_name or ''}:{int(cse)}"
    with _LOCK:
        if key in _CACHE:
            _HITS += 1
            return _CACHE[key]
    name = func_name or f"apa_mm_{alg.name}"
    tracer = _obs_tracer.ACTIVE
    if tracer is None:
        fn = _compile(alg, name, cse)
    else:
        # Compiles are the expensive, rare path — worth a span each.
        with tracer.span("kernel.compile", cat="codegen",
                         algorithm=alg.name, cse=cse):
            fn = _compile(alg, name, cse)
    with _LOCK:
        if key in _CACHE:
            _HITS += 1
            return _CACHE[key]
        _MISSES += 1
        _CACHE[key] = fn
    return fn


def _compile(alg, name: str, cse: bool):
    source = generate_source(alg, func_name=name, cse=cse)
    namespace: dict = {}
    code = compile(source, filename=f"<codegen:{alg.name}>", mode="exec")
    exec(code, namespace)
    fn = namespace[name]
    fn.__source__ = source  # keep the source inspectable for debugging
    return fn


def cache_stats() -> dict[str, int]:
    """Lifetime compile-cache counters (size, hits, misses)."""
    with _LOCK:
        return {"size": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def clear_cache() -> None:
    """Drop all memoized compiled functions (mainly for tests)."""
    with _LOCK:
        _CACHE.clear()
