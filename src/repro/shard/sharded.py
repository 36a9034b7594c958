"""Sharded out-of-core APA matmul: tile huge products through the engine.

The dispatch body (:func:`_shard_matmul_impl`) walks the output tiles
of a :class:`~repro.shard.geometry.ShardSpec`, stages each operand tile
as a small contiguous array (a slice-copy — when the operand is a
``np.memmap``, this is the only disk read the tile costs), and routes
every tile product back through ``engine._dispatch`` with the shard
knob stripped.  The inner dispatch is therefore the *full* engine:
tiles run on the plan cache, the threaded executor, or the
process-backed executor (``executor='process'``) exactly as a
standalone product of that shape would, and partial products
accumulate into the output tile in fixed ascending panel order, so the
result is deterministic for a given spec.

:func:`shard_matmul` is the user-facing entry: it accepts in-memory
arrays or ``.npy`` paths (opened with ``mmap_mode='r'``), and with
``out=`` streams the result tile-by-tile into a ``.npy`` memmap — the
out-of-core write is bit-identical to the in-memory result because
each output tile is computed by the same per-tile arithmetic either
way (the tests pin this).
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.core.config import ExecutionConfig
from repro.obs import tracer as _obs_tracer
from repro.obs.registry import default_registry
from repro.shard.geometry import ShardSpec, recommend_shard_spec

__all__ = ["shard_matmul"]

#: Default in-flight budget when neither ``shard`` nor
#: ``memory_budget`` is given: enough for comfortable tiles without
#: assuming a large host.
_DEFAULT_BUDGET = 64 * 1024 * 1024


def _result_dtype(A: np.ndarray, B: np.ndarray, algorithm: Any) -> np.dtype:
    """The dtype the product is computed and returned at.

    A fast algorithm runs on a plan, which computes integer operands in
    float64 (:func:`~repro.core.plan.plan_dtype`); allocating the output
    at the integer ``np.result_type`` would truncate the APA result.
    Classical gemm (``algorithm=None``) keeps ``np.result_type``.
    """
    if algorithm is None:
        return np.result_type(A.dtype, B.dtype)
    from repro.core.plan import plan_dtype

    return plan_dtype(A.dtype, B.dtype)


def _shard_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: Any,
    cfg: ExecutionConfig,
    engine: Any,
    gemm: Any,
    report: Any,
) -> np.ndarray:
    """The sharded dispatch body, engine-owned.

    Only :mod:`repro.core.engine` may call this (staticcheck ENG001
    enforces it).  ``engine`` is the calling engine instance — tiles
    re-enter ``_dispatch`` below the trace layer, so the injected gemm
    (fault counter included) and the report thread through unchanged.
    """
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"bad operand shapes {A.shape} @ {B.shape}")
    spec = ShardSpec.coerce(cfg.shard)
    M, N = A.shape
    K = B.shape[1]
    dtype = _result_dtype(A, B, algorithm)
    inner_cfg = cfg.replace(shard=None)

    reg = default_registry()
    tiles_counter = reg.counter(
        "repro_shard_tiles_total", "output tiles computed by shards")
    panels_counter = reg.counter(
        "repro_shard_panel_products_total",
        "per-panel tile products dispatched by shards")
    bytes_counter = reg.counter(
        "repro_shard_bytes_staged_total",
        "bytes copied from operands into staged tiles")

    tracer = _obs_tracer.ACTIVE
    span = None
    if tracer is not None:
        span = tracer.span(
            "shard_matmul", cat="shard",
            shape=f"{tuple(A.shape)}@{tuple(B.shape)}",
            tile=f"{spec.tile_m}x{spec.tile_n}x{spec.tile_k}")
        span.__enter__()
    try:
        C = np.empty((M, K), dtype=dtype)
        for i0 in range(0, M, spec.tile_m):
            i1 = min(i0 + spec.tile_m, M)
            for j0 in range(0, K, spec.tile_k):
                j1 = min(j0 + spec.tile_k, K)
                tiles_counter.inc()
                acc: np.ndarray | None = None
                for p0 in range(0, N, spec.tile_n):
                    p1 = min(p0 + spec.tile_n, N)
                    # Contiguous staging copies: the one disk read per
                    # tile when A/B are memmaps, and what bounds the
                    # in-flight footprint to the spec's tiles.
                    At = np.ascontiguousarray(A[i0:i1, p0:p1],
                                              dtype=dtype)
                    Bt = np.ascontiguousarray(B[p0:p1, j0:j1],
                                              dtype=dtype)
                    panels_counter.inc()
                    bytes_counter.inc(At.nbytes + Bt.nbytes)
                    P = engine._dispatch(At, Bt, inner_cfg, algorithm,
                                         gemm, report)
                    if acc is None:
                        if P.base is None and P.flags.writeable:
                            acc = P
                        else:
                            acc = P.astype(dtype, copy=True)
                    else:
                        acc += P
                assert acc is not None  # N >= 1 was validated above
                C[i0:i1, j0:j1] = acc
        return C
    finally:
        if span is not None:
            span.__exit__(None, None, None)


def _as_operand(value: Any) -> np.ndarray:
    """Array passthrough; ``.npy`` paths open as read-only memmaps."""
    if isinstance(value, (str, os.PathLike)):
        return np.load(value, mmap_mode="r")
    return np.asarray(value)


def shard_matmul(
    A: Any,
    B: Any,
    algorithm: Any = None,
    *,
    shard: Any = None,
    memory_budget: int | None = None,
    out: Any = None,
    **overrides: Any,
) -> np.ndarray:
    """Out-of-core ``A @ B`` with a fast algorithm, tile by tile.

    ``A``/``B`` may be arrays or paths to ``.npy`` files (opened
    memory-mapped, never fully loaded).  ``shard`` is a
    :class:`~repro.shard.geometry.ShardSpec`, an int cube edge, or an
    ``(m, n, k)`` triple; when omitted it is derived from
    ``memory_budget`` bytes (default 64 MiB in flight) via
    :func:`~repro.shard.geometry.recommend_shard_spec`.  ``out=`` a
    path streams the result into a ``.npy`` memmap one output tile at
    a time — peak memory stays bounded by the shard spec regardless of
    the result size — and returns the flushed memmap.  Remaining
    keyword overrides (``executor='process'``, ``threads=``, ``lam=``,
    ...) resolve through the engine per tile.
    """
    from repro.core.engine import default_engine

    A = _as_operand(A)
    B = _as_operand(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"bad operand shapes {A.shape} @ {B.shape}")
    M, N = A.shape
    K = B.shape[1]
    engine = default_engine()
    # The algorithm may come from an active execution_context, so read
    # it from the resolved config rather than the argument.
    dtype = _result_dtype(
        A, B, engine.resolve(algorithm=algorithm, **overrides).algorithm)
    if shard is None:
        budget = _DEFAULT_BUDGET if memory_budget is None else memory_budget
        spec = recommend_shard_spec(M, N, K, budget,
                                    itemsize=dtype.itemsize)
    else:
        spec = ShardSpec.coerce(shard)
    if out is None:
        return engine.matmul(A, B, algorithm, shard=spec, **overrides)

    out_mm = np.lib.format.open_memmap(
        os.fspath(out), mode="w+", dtype=dtype, shape=(M, K))
    # Per-output-tile products: a (tile_m, N) @ (N, tile_k) slice under
    # the same spec runs the identical per-tile arithmetic as the
    # corresponding tiles of the whole-matrix call (its row/col extents
    # already fit one tile, and the panel boundaries match), so the
    # streamed result is bit-identical to the in-memory one.
    for i0 in range(0, M, spec.tile_m):
        i1 = min(i0 + spec.tile_m, M)
        for j0 in range(0, K, spec.tile_k):
            j1 = min(j0 + spec.tile_k, K)
            out_mm[i0:i1, j0:j1] = engine.matmul(
                A[i0:i1, :], B[:, j0:j1], algorithm, shard=spec,
                **overrides)
    out_mm.flush()
    return out_mm
