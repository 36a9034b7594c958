"""Process-backed execution of fast-matmul schedules over shared memory.

The threaded executor realizes the paper's §3.2 hybrid schedule only as
far as the GIL allows: NumPy's gemm releases it, but the S/T/W linear
combinations — the memory-bound third of every APA call — serialize on
one interpreter.  This module maps the same ``r = p·q + ℓ`` schedule
onto real worker *processes*: the padded A/B operands and the ``r``
product blocks live in :mod:`multiprocessing.shared_memory` segments
(:mod:`repro.parallel.shm`), workers build their S/T combinations from
zero-copy views and write products straight into the shared OUT
segment, and the only per-task traffic is a small pickled spec.

Failure contract (the threaded executor's, with the same event kinds):

- a gemm that raises inside a worker runs the threaded executor's own
  attempt ladder *in the worker* — ``worker-error`` (or
  ``worker-nonfinite``), ``backoff`` and ``retry`` per failed attempt,
  then ``job-fallback`` to a classical gemm — with statuses
  ``ok``/``retried``/``fallback``; the worker returns its events and
  slept delays for the parent to record;
- a worker that overruns ``timeout`` is abandoned: the parent
  recomputes the block classically (``timeout-fallback``) and condemns
  the call's segments so the straggler's late write cannot reach any
  future call;
- a *crashed* worker (``BrokenProcessPool``) triggers the parent-side
  ladder: rebuild the pool, back off, resubmit up to ``retries`` times,
  then classical fallback;
- any other exception a worker raises (segment attach failure, closed
  mapping, bad spec) reaches the parent, which recomputes the block
  classically (``fallback``) and condemns the call's segments.

Results are bit-identical to the sequential and threaded paths: workers
and parent run the same :func:`~repro.core.plan.combine` and
:func:`~repro.core.plan.accumulate` over the same plan's term lists, in
the same order on the same values — only the address space differs.

Workers start via ``spawn``, never ``fork``: the parent is
multithreaded (executor pool, tracer, BLAS), and forking it can copy
held locks into workers.  Worker-side attaches
patch ``resource_tracker.register`` to a no-op for the duration of the
attach: on CPython 3.11 every POSIX attach registers the segment, and
the tracker process is shared with the parent — a worker-side
unregister would erase the parent's sole registration (bpo-39959),
while double registration makes the tracker spew KeyError tracebacks
at exit.  The parent remains the single owner; its ``unlink`` (via
:mod:`repro.parallel.shm`) is the single cleanup.

All module-global rebinds happen under ``_LOCK`` (lint rule PAR001).
"""

from __future__ import annotations

import atexit
import math
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.core.plan import Combination, accumulate, block_views, combine
from repro.obs import tracer as _obs_tracer
from repro.obs.registry import default_registry
from repro.parallel.backoff import BackoffPolicy
from repro.parallel.executor import (DEFAULT_BACKOFF, ExecutionReport,
                                     _call_span, _emit, _job_gemm, _prepare,
                                     _record, _rescue, _run_job)
from repro.parallel.shm import acquire_segment, release_segment
from repro.parallel.strategy import Schedule
from repro.robustness.inject import FaultSpec, GemmFaultInjector

__all__ = ["get_process_pool", "shutdown_process_pool",
           "process_pool_stats"]

#: Test seam: fault injected into the *first* execution of every task
#: shipped while set.  ``'exit'`` kills the worker process outright
#: (crash-recovery path), ``'raise'`` raises on every attempt,
#: ``'raise-once'`` only on attempt 1, ``'nan'`` poisons the block
#: (check_finite path).  Tests monkeypatch this; production never sets
#: it.
_TEST_INJECT: str | None = None
_INJECT = {"raise": FaultSpec("raise"),
           "raise-once": FaultSpec("raise", calls=(0,)),
           "nan": FaultSpec("nan", calls=(0,), poison_fraction=1.0)}

_LOCK = threading.Lock()
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS: int = 0
_CREATES: int = 0
_RESTARTS: int = 0


def _worker_init() -> None:
    """Runs in each worker at spawn: workers never trace or re-pool."""
    from repro.obs.tracer import set_tracer

    set_tracer(None)


def _make_pool(workers: int) -> ProcessPoolExecutor:
    # Never fork: the parent is typically multithreaded (threaded
    # executor pool, tracer, BLAS threads), and forking a multithreaded
    # process can copy held locks into the worker and deadlock it.
    # Task specs are fully picklable, so 'spawn' (available on every
    # platform) works; it is preferred over 'forkserver' because the
    # crash-recovery ladder rebuilds pools under churn, and the shared
    # forkserver process is a single point of failure there (its fd
    # handshake races when pools are torn down mid-spawn).
    ctx = mp.get_context("spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                               initializer=_worker_init)


def get_process_pool(workers: int) -> ProcessPoolExecutor:
    """The shared process pool, created lazily, resized only on change.

    Same contract as :func:`repro.parallel.pool.get_pool`: callers must
    not shut the returned pool down; its lifetime is the process, ended
    by :func:`shutdown_process_pool` or the atexit hook.
    """
    global _POOL, _POOL_WORKERS, _CREATES
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with _LOCK:
        if _POOL is not None and _POOL_WORKERS == workers:
            return _POOL
        old = _POOL
        _POOL = _make_pool(workers)
        _CREATES += 1
        _POOL_WORKERS = workers
        pool = _POOL
    if old is not None:
        old.shutdown(wait=True)
    tracer = _obs_tracer.ACTIVE
    if tracer is not None:
        tracer.instant(
            "process-pool-resize" if old is not None else
            "process-pool-create", cat="pool", workers=workers)
    return pool


def _drop_broken_pool() -> None:
    """Discard the shared pool if it broke; the next get() rebuilds it.

    Checked against the *current* global pool, so the N futures of one
    phase that all observe the same ``BrokenProcessPool`` trigger one
    restart, and a pool rebuilt in the meantime is left alone.
    """
    global _POOL, _POOL_WORKERS, _RESTARTS
    with _LOCK:
        pool = _POOL
        broken = pool is not None and bool(getattr(pool, "_broken", False))
        if broken:
            _POOL = None
            _POOL_WORKERS = 0
            _RESTARTS += 1
    if broken and pool is not None:
        pool.shutdown(wait=False)
        default_registry().counter(
            "repro_process_worker_restarts_total",
            "worker pools rebuilt after a process crash").inc()


def shutdown_process_pool(wait: bool = True) -> None:
    """Tear the shared process pool down (tests and interpreter exit)."""
    global _POOL, _POOL_WORKERS
    with _LOCK:
        pool = _POOL
        _POOL = None
        _POOL_WORKERS = 0
    if pool is not None:
        pool.shutdown(wait=wait)


def process_pool_stats() -> dict[str, int]:
    """Lifetime counters: current size, pool creations, crash restarts."""
    with _LOCK:
        return {
            "workers": _POOL_WORKERS,
            "creates": _CREATES,
            "restarts": _RESTARTS,
        }


atexit.register(shutdown_process_pool)


# ---------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------

def _noop_register(name: str, rtype: str) -> None:
    """Stand-in for ``resource_tracker.register`` during attaches."""


#: Per-worker attach cache: segment name -> live mapping, in true LRU
#: order (hits re-append).  Bounded so a long-lived worker cycling
#: through many condemned segments does not accumulate mappings.
#: Single-threaded per worker; never rebound.
_WORKER_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_WORKER_SEGMENT_CAP = 16


def _attach_segment(
    name: str,
    protect: frozenset[str] = frozenset(),
) -> shared_memory.SharedMemory:
    """Attach (or re-use) one segment mapping, LRU-evicting old ones.

    ``protect`` names segments the *current* task is about to view:
    they are never evicted, so a cache miss cannot close a mapping a
    sibling view of this task still needs (a closed mapping's ``buf``
    is ``None``, and ``np.ndarray(..., buffer=None)`` would silently
    allocate garbage instead of failing).
    """
    seg = _WORKER_SEGMENTS.pop(name, None)
    if seg is not None:
        _WORKER_SEGMENTS[name] = seg  # cache hit: refresh LRU order
        return seg
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = _noop_register  # bpo-39959
    try:
        seg = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
    while len(_WORKER_SEGMENTS) >= _WORKER_SEGMENT_CAP:
        victim = next(
            (n for n in _WORKER_SEGMENTS if n not in protect), None)
        if victim is None:
            break
        _WORKER_SEGMENTS.pop(victim).close()
    _WORKER_SEGMENTS[name] = seg
    return seg


@dataclass(frozen=True)
class _TaskSpec:
    """Everything one worker needs for one scheduled sub-product."""

    mult: int
    #: ``(name, shape)`` of the padded A, padded B and OUT segments.
    segments: tuple[tuple[str, tuple[int, ...]], ...]
    dtype: str
    #: The rule's ``(m, n, k)`` block grid.
    dims: tuple[int, int, int]
    #: The program's compiled ``s[mult]``/``t[mult]`` combinations.
    s_sum: Combination
    t_sum: Combination
    #: ``('catalog', name)`` / ``('object', algorithm)``; ``None`` when
    #: ``steps == 1`` (the worker then needs no coefficients at all).
    algorithm: Any
    lam: float
    steps: int
    retries: int
    check_finite: bool
    #: ``(base, cap, multiplier, seed)`` of the parent's policy — the
    #: injectable ``sleep`` cannot cross the process boundary, so the
    #: worker reconstructs the same deterministic delay sequence and
    #: reports the delays it actually slept back to the parent.
    backoff: tuple[float, float, float, int]
    inject: str | None


def _task_algorithm(ref: Any) -> Any:
    if ref is None:
        return None
    kind, value = ref
    if kind == "catalog":
        from repro.algorithms.catalog import get_algorithm

        return get_algorithm(value)
    return value


def _run_task(spec: _TaskSpec) -> tuple:
    """Worker body: attach the segments, run the shared attempt ladder
    (:func:`~repro.parallel.executor._run_job`), write the block to OUT.

    Returns the ladder's outcome without the block: ``(status, attempts,
    error, start, end, delays, events)``.  Anything raised outside the
    ladder (attach failure, closed mapping) propagates and the parent
    recomputes the block classically.
    """
    if spec.inject == "exit":
        os._exit(17)
    live = frozenset(name for name, _ in spec.segments)
    views = []
    for name, shape in spec.segments:
        seg = _attach_segment(name, protect=live)
        if seg.buf is None:
            raise RuntimeError(f"shared-memory mapping {name!r} is closed")
        views.append(np.ndarray(shape, dtype=spec.dtype, buffer=seg.buf))
    Ap, Bp, OUT = views
    m, n, k = spec.dims

    def operands(_: int) -> tuple[np.ndarray, np.ndarray]:
        return (combine(spec.s_sum, block_views(Ap, m, n)),
                combine(spec.t_sum, block_views(Bp, n, k)))

    gemm = _job_gemm(_task_algorithm(spec.algorithm), spec.lam, spec.steps,
                     np.matmul)
    if spec.inject is not None:
        gemm = GemmFaultInjector(gemm, _INJECT[spec.inject])
    block, *outcome = _run_job(spec.mult, operands, gemm, spec.retries,
                               spec.check_finite, BackoffPolicy(*spec.backoff))
    OUT[spec.mult] = block
    return tuple(outcome)


# ---------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------

def _algorithm_ref(algorithm: Any) -> Any:
    """Ship catalog algorithms by name (workers re-resolve the shared
    singleton, so their plan caches hit across tasks); anything else is
    pickled whole."""
    name = getattr(algorithm, "name", None)
    if isinstance(name, str):
        from repro.algorithms.catalog import get_algorithm

        try:
            if get_algorithm(name) is algorithm:
                return ("catalog", name)
        except (KeyError, ValueError):
            pass
    return ("object", algorithm)


def _padded(seg: Any, shape: tuple[int, int], X: np.ndarray) -> np.ndarray:
    """``X`` zero-padded to ``shape`` in segment ``seg``."""
    P = seg.view(shape, X.dtype)
    rows, cols = X.shape
    P[:rows, :cols] = X
    P[rows:, :] = 0
    P[:rows, cols:] = 0
    return P


def _process_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: Any,
    workers: int,
    lam: float | None = None,
    d: int | None = None,
    strategy: str = "hybrid",
    schedule: Schedule | None = None,
    steps: int = 1,
    retries: int = 0,
    timeout: float | None = None,
    check_finite: bool = False,
    report: ExecutionReport | None = None,
    plan_cache: Any = None,
) -> np.ndarray:
    """§3.2 schedule execution on worker *processes* over shared memory.

    Reached as ``engine.matmul(A, B, alg, executor="process",
    threads=workers, ...)``: the process twin of the threaded runner —
    same knobs minus ``gemm`` (a custom gemm cannot cross the process
    boundary), same preamble and per-job attempt ladder, bit-identical
    results.  Only :mod:`repro.core.engine` may call this (staticcheck
    ENG001 enforces it); everything else goes through the engine so
    tracing, guarding, and config resolution stay layered at one point.
    ``ExecutionConfig`` has already validated ``workers``, ``steps``,
    ``retries`` and ``timeout``.
    """
    A, B, lam, plan, schedule = _prepare(
        A, B, algorithm, lam, d, steps, plan_cache, schedule, strategy,
        workers, "process")
    # Metadata-only plan use (schedule, partition, term lists): blocks
    # live in shared memory, not the plan's arenas, so no workspace is
    # checked out.
    dtype = A.dtype
    part = plan.partition
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    r = plan.rank
    Mp, Np, Kp = part.padded_rows_a, part.padded_cols_a, part.padded_cols_b
    # Padded A, padded B, and the r product blocks.
    shapes = ((Mp, Np), (Np, Kp), (r, Mp // m, Kp // k))
    segs = [acquire_segment(math.prod(shape) * dtype.itemsize)
            for shape in shapes]
    segments = tuple((seg.name, shape) for seg, shape in zip(segs, shapes))
    pooled = True

    policy = getattr(report, "backoff", None) or DEFAULT_BACKOFF
    alg_ref = _algorithm_ref(algorithm) if steps > 1 else None

    def make_spec(i: int, inject: str | None) -> _TaskSpec:
        return _TaskSpec(
            mult=i, segments=segments, dtype=dtype.str, dims=(m, n, k),
            s_sum=plan.program.s[i], t_sum=plan.program.t[i],
            algorithm=alg_ref, lam=float(lam), steps=steps,
            retries=retries, check_finite=check_finite,
            backoff=(policy.base, policy.cap, policy.multiplier,
                     policy.seed),
            inject=inject)

    def resubmit(i: int) -> tuple[tuple | None, int]:
        """Parent-side ladder after a crash: backoff → respawn →
        resubmit, up to ``retries`` extra attempts."""
        backoff = policy.sequence(key=i)
        for attempt in range(1, retries + 1):
            delay = backoff.wait()
            if report is not None:
                report.backoff_delays.append(delay)
            _emit(report, "backoff", i, f"slept {delay * 1e3:.3f} ms "
                  "before respawned retry", attempt=attempt)
            _emit(report, "retry", i, f"attempt {attempt + 1} of "
                  f"{retries + 1}", attempt=attempt)
            fresh = get_process_pool(workers)
            try:
                fut = fresh.submit(_run_task, make_spec(i, None))
                return fut.result(timeout=timeout), attempt
            except Exception as exc:
                # Crash, timeout, or a worker-raised error — any of
                # them burns this rung of the ladder; exhaustion
                # means the caller's classical fallback.
                _drop_broken_pool()
                _emit(report, "worker-crash", i,
                      f"{type(exc).__name__}: {exc}", attempt=attempt + 1)
        return None, retries

    tasks_counter = default_registry().counter(
        "repro_process_tasks_total",
        "sub-multiplications dispatched to worker processes")

    try:
        with _call_span("process_apa_matmul", algorithm, A, B, steps,
                        workers=workers, strategy=strategy):
            a_blocks = block_views(_padded(segs[0], shapes[0], A), m, n)
            b_blocks = block_views(_padded(segs[1], shapes[1], B), n, k)
            OUT = segs[2].view(shapes[2], dtype)

            def operands(i: int) -> tuple[np.ndarray, np.ndarray]:
                return (combine(plan.program.s[i], a_blocks),
                        combine(plan.program.t[i], b_blocks))

            products: dict[int, np.ndarray] = {}
            pool = get_process_pool(workers)
            for phase in schedule.phases:
                t0 = time.perf_counter()
                pending: list[tuple[int, Any]] = []
                for mult, _ in phase.jobs:
                    spec = make_spec(mult, _TEST_INJECT)
                    tasks_counter.inc()
                    try:
                        fut = pool.submit(_run_task, spec)
                    except (BrokenProcessPool, RuntimeError, OSError):
                        # The pool died between phases (or was shut
                        # down under us), or a worker spawn failed;
                        # rebuild once and resubmit.
                        _drop_broken_pool()
                        pool = get_process_pool(workers)
                        fut = pool.submit(_run_task, spec)
                    pending.append((mult, fut))
                for mult, fut in pending:
                    crash_attempts = 0
                    try:
                        outcome = fut.result(timeout=timeout)
                    except FutureTimeoutError:
                        # The worker is alive but late: its mapping
                        # stays valid, so condemn the segments and never
                        # pool them — the straggler's write lands in
                        # orphaned memory, not in a future call's blocks.
                        pooled = False
                        fut.cancel()
                        products[mult] = _rescue(
                            report, mult, operands, "worker-timeout",
                            f"no result within {timeout}s; classical gemm "
                            "recomputed the block in the parent",
                            "timeout-fallback", 1, t0,
                            f"timeout after {timeout}s")
                        continue
                    except BrokenProcessPool as exc:
                        pooled = False
                        _emit(report, "worker-crash", mult,
                              f"{type(exc).__name__}: {exc}", attempt=1)
                        _drop_broken_pool()
                        pool = get_process_pool(workers)
                        outcome, crash_attempts = resubmit(mult)
                        if outcome is None:
                            products[mult] = _rescue(
                                report, mult, operands, "job-fallback",
                                "classical gemm recomputed the block in "
                                "the parent after worker crashes",
                                "fallback", crash_attempts + 1, t0,
                                "worker process crashed")
                            continue
                    except Exception as exc:
                        # A worker raised outside its attempt ladder
                        # (segment attach failure, closed mapping, bad
                        # spec).  The contract is that the parent always
                        # has a classical answer: condemn the segments
                        # and recompute the block here.
                        pooled = False
                        error = f"{type(exc).__name__}: {exc}"
                        products[mult] = _rescue(
                            report, mult, operands, "worker-error",
                            f"{error}; classical gemm recomputed the "
                            "block in the parent", "fallback", 1, t0,
                            error)
                        continue
                    status, attempts, *rest = outcome
                    if crash_attempts:
                        status, attempts = "retried", attempts + crash_attempts
                    _record(report, mult, status, attempts, *rest)
                    products[mult] = OUT[mult]

            C = np.empty((Mp, Kp), dtype=dtype)
            accumulate(plan.program, [products[i] for i in range(r)],
                       block_views(C, m, k))
            return np.ascontiguousarray(part.crop(C))
    finally:
        for seg in segs:
            release_segment(seg, pooled=pooled)
