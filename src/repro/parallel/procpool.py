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

Failure contract (mirrors the threaded executor's ladder):

- a gemm that raises inside a worker is retried *in the worker* with
  the same deterministic decorrelated-jitter backoff, then recomputed
  classically in the worker — statuses ``ok``/``retried``/``fallback``;
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

from repro.core.engine import _run_sequential
from repro.core.plan import (accumulate, acquire_plan, block_views, combine,
                             plannable)
from repro.obs import tracer as _obs_tracer
from repro.obs.registry import default_registry
from repro.parallel.backoff import BackoffPolicy
from repro.parallel.executor import (DEFAULT_BACKOFF, ExecutionReport,
                                     JobOutcome)
from repro.parallel.shm import acquire_segment, release_segment
from repro.parallel.strategy import Schedule

__all__ = ["get_process_pool", "shutdown_process_pool",
           "process_pool_stats"]

#: Test seam: fault injected into the *first* execution of every task
#: shipped while set.  ``'exit'`` kills the worker process outright
#: (crash-recovery path), ``'raise'`` raises on every attempt,
#: ``'raise-once'`` only on attempt 1, ``'nan'`` poisons the block
#: (check_finite path).  Tests monkeypatch this; production never sets
#: it.
_TEST_INJECT: str | None = None

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


class _NonFiniteBlock(ArithmeticError):
    """Internal: a worker's product block came back with NaN/Inf."""


@dataclass(frozen=True)
class _TaskSpec:
    """Everything one worker needs for one scheduled sub-product."""

    mult: int
    a_name: str
    b_name: str
    out_name: str
    a_shape: tuple[int, int]
    b_shape: tuple[int, int]
    out_shape: tuple[int, int, int]
    dtype: str
    m: int
    n: int
    k: int
    #: The plan's ``s_terms[mult]``/``t_terms[mult]``.
    s_terms: tuple
    t_terms: tuple
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


def _task_algorithm(spec: _TaskSpec) -> Any:
    kind, value = spec.algorithm
    if kind == "catalog":
        from repro.algorithms.catalog import get_algorithm

        return get_algorithm(value)
    return value


def _run_task(spec: _TaskSpec) -> tuple:
    """Worker body: S/T combination, gemm ladder, OUT write.

    Returns ``(mult, status, attempts, error_text, start, end, delays)``
    with the threaded executor's status vocabulary.  Gemm faults are
    handled here with the retry → classical ladder; anything raised
    outside that loop (attach failure, closed mapping) propagates and
    the parent recomputes the block classically.
    """
    start = time.perf_counter()
    dtype = np.dtype(spec.dtype)
    live = frozenset((spec.a_name, spec.b_name, spec.out_name))
    a_seg = _attach_segment(spec.a_name, protect=live)
    b_seg = _attach_segment(spec.b_name, protect=live)
    out_seg = _attach_segment(spec.out_name, protect=live)
    for seg in (a_seg, b_seg, out_seg):
        if seg.buf is None:
            raise RuntimeError(
                f"shared-memory mapping {seg.name!r} is closed")
    Ap = np.ndarray(spec.a_shape, dtype=dtype, buffer=a_seg.buf)
    Bp = np.ndarray(spec.b_shape, dtype=dtype, buffer=b_seg.buf)
    OUT = np.ndarray(spec.out_shape, dtype=dtype, buffer=out_seg.buf)
    S = combine(spec.s_terms, block_views(Ap, spec.m, spec.n))
    T = combine(spec.t_terms, block_views(Bp, spec.n, spec.k))

    if spec.steps > 1:
        algorithm = _task_algorithm(spec)

        def gemm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
            return _run_sequential(X, Y, algorithm, spec.lam,
                                   spec.steps - 1, np.matmul, None, None)
    else:
        gemm = np.matmul

    base, cap, multiplier, seed = spec.backoff
    policy = BackoffPolicy(base=base, cap=cap, multiplier=multiplier,
                           seed=seed)
    backoff = None
    delays: list[float] = []
    error_text = ""
    for attempt in range(1, spec.retries + 2):
        try:
            if spec.inject == "exit":
                os._exit(17)
            if spec.inject == "raise" or (spec.inject == "raise-once"
                                          and attempt == 1):
                raise RuntimeError("injected worker fault")
            P = gemm(S, T)
            if spec.inject == "nan" and attempt == 1:
                P = np.full_like(P, np.nan)
            if spec.check_finite and not np.isfinite(P).all():
                raise _NonFiniteBlock("block contains NaN/Inf")
        except Exception as exc:
            error_text = f"{type(exc).__name__}: {exc}"
            if attempt <= spec.retries:
                if backoff is None:
                    backoff = policy.sequence(key=spec.mult)
                delays.append(backoff.wait())
            continue
        OUT[spec.mult] = P
        status = "ok" if attempt == 1 else "retried"
        return (spec.mult, status, attempt, "", start,
                time.perf_counter(), delays)
    # All attempts failed: classical gemm for this block, in the worker.
    OUT[spec.mult] = np.matmul(S, T)
    return (spec.mult, "fallback", spec.retries + 1, error_text, start,
            time.perf_counter(), delays)


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


def _process_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: Any,
    workers: int,
    lam: float | None = None,
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
    boundary), same failure ladder, bit-identical results.  Only
    :mod:`repro.core.engine` may call this (staticcheck ENG001 enforces
    it); everything else goes through the engine so tracing, guarding,
    and config resolution stay layered at one point.
    """
    if algorithm.is_surrogate:
        raise ValueError(
            f"{algorithm.name!r} is a metadata surrogate; real process "
            "execution needs full coefficients (use the simulator for it)"
        )
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"bad operand shapes {A.shape} @ {B.shape}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")

    from repro.core.lam import optimal_lambda, precision_bits

    A, B = plannable(A, B)
    dtype = A.dtype
    if lam is None:
        d = precision_bits(dtype) if dtype.kind == "f" else 52
        lam = optimal_lambda(algorithm, d=d, steps=steps)

    # Metadata-only plan use (schedule, partition, term lists): blocks
    # live in shared memory, not the plan's arenas, so no workspace is
    # checked out.  The key matches the threaded path on purpose — both
    # executors share one plan per (shape, dtype, lam, schedule
    # geometry).  A custom schedule is not part of the key, so it runs
    # on an uncached plan.
    plan = acquire_plan(
        False if schedule is not None else plan_cache, algorithm,
        A.shape[0], A.shape[1], B.shape[1], dtype, lam, steps=steps,
        mode="threaded", strategy=strategy, threads=workers)
    if schedule is None:
        schedule = plan.schedule
    part = plan.partition
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    r = plan.rank

    Mp = part.padded_rows_a
    Np = part.padded_cols_a
    Kp = part.padded_cols_b
    bm, bk = Mp // m, Kp // k
    itemsize = dtype.itemsize

    a_seg = acquire_segment(Mp * Np * itemsize)
    b_seg = acquire_segment(Np * Kp * itemsize)
    out_seg = acquire_segment(r * bm * bk * itemsize)
    pooled = True

    tracer = _obs_tracer.ACTIVE
    outer_span = None
    if tracer is not None:
        outer_span = tracer.span(
            "process_apa_matmul", cat="parallel",
            algorithm=algorithm.name, workers=workers, strategy=strategy,
            shape=f"{tuple(A.shape)}@{tuple(B.shape)}", steps=steps)
        outer_span.__enter__()
    try:
        Ap = a_seg.view((Mp, Np), dtype)
        Ap[:A.shape[0], :A.shape[1]] = A
        if Mp > A.shape[0]:
            Ap[A.shape[0]:, :] = 0
        if Np > A.shape[1]:
            Ap[:A.shape[0], A.shape[1]:] = 0
        Bp = b_seg.view((Np, Kp), dtype)
        Bp[:B.shape[0], :B.shape[1]] = B
        if Np > B.shape[0]:
            Bp[B.shape[0]:, :] = 0
        if Kp > B.shape[1]:
            Bp[:B.shape[0], B.shape[1]:] = 0
        OUT = out_seg.view((r, bm, bk), dtype)
        a_blocks = block_views(Ap, m, n)
        b_blocks = block_views(Bp, n, k)

        def operands(i: int) -> tuple[np.ndarray, np.ndarray]:
            return (combine(plan.s_terms[i], a_blocks),
                    combine(plan.t_terms[i], b_blocks))

        def record(outcome: JobOutcome) -> None:
            if report is not None:
                report.jobs.append(outcome)

        def emit(kind: str, mult: int, detail: str,
                 attempt: int = 0) -> None:
            if report is not None:
                report.events.emit(kind, f"mult {mult}", detail,
                                   attempt=attempt)

        policy = (report.backoff if report is not None
                  and report.backoff is not None else DEFAULT_BACKOFF)
        alg_ref = _algorithm_ref(algorithm) if steps > 1 else None

        def make_spec(i: int, inject: str | None) -> _TaskSpec:
            return _TaskSpec(
                mult=i, a_name=a_seg.name, b_name=b_seg.name,
                out_name=out_seg.name, a_shape=(Mp, Np),
                b_shape=(Np, Kp), out_shape=(r, bm, bk), dtype=dtype.str,
                m=m, n=n, k=k,
                s_terms=plan.s_terms[i], t_terms=plan.t_terms[i],
                algorithm=alg_ref, lam=float(lam), steps=steps,
                retries=retries, check_finite=check_finite,
                backoff=(policy.base, policy.cap, policy.multiplier,
                         policy.seed),
                inject=inject)

        def resubmit(i: int) -> tuple[tuple | None, int]:
            """Parent-side ladder after a crash: backoff → respawn →
            resubmit, up to ``retries`` extra attempts."""
            backoff = None
            for attempt in range(1, retries + 1):
                if backoff is None:
                    backoff = policy.sequence(key=i)
                delay = backoff.wait()
                if report is not None:
                    report.backoff_delays.append(delay)
                emit("backoff", i, f"slept {delay * 1e3:.3f} ms before "
                     "respawned retry", attempt=attempt)
                emit("retry", i, f"attempt {attempt + 1} of "
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
                    emit("worker-crash", i,
                         f"{type(exc).__name__}: {exc}",
                         attempt=attempt + 1)
            return None, retries

        tasks_counter = default_registry().counter(
            "repro_process_tasks_total",
            "sub-multiplications dispatched to worker processes")

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
                    # The pool died between phases (or was shut down
                    # under us), or a worker spawn failed; rebuild once
                    # and resubmit.
                    _drop_broken_pool()
                    pool = get_process_pool(workers)
                    fut = pool.submit(_run_task, spec)
                pending.append((mult, fut))
            for mult, fut in pending:
                crash_attempts = 0
                try:
                    outcome = fut.result(timeout=timeout)
                except FutureTimeoutError:
                    # The worker is alive but late: its mapping stays
                    # valid, so condemn the segments and never pool
                    # them — the straggler's write lands in orphaned
                    # memory, not in a future call's blocks.
                    pooled = False
                    fut.cancel()
                    emit("worker-timeout", mult,
                         f"no result within {timeout}s; classical gemm "
                         "recomputed the block in the parent")
                    products[mult] = np.matmul(*operands(mult))
                    record(JobOutcome(
                        mult, "timeout-fallback", 1, t0,
                        time.perf_counter(),
                        error=f"timeout after {timeout}s"))
                    continue
                except BrokenProcessPool as exc:
                    pooled = False
                    emit("worker-crash", mult,
                         f"{type(exc).__name__}: {exc}", attempt=1)
                    _drop_broken_pool()
                    pool = get_process_pool(workers)
                    outcome, crash_attempts = resubmit(mult)
                except Exception as exc:
                    # A worker raised outside its retry loop (segment
                    # attach failure, closed mapping, bad spec).  The
                    # contract is that the parent always has a
                    # classical answer: condemn the segments and
                    # recompute the block here.
                    pooled = False
                    emit("worker-error", mult,
                         f"{type(exc).__name__}: {exc}; classical gemm "
                         "recomputed the block in the parent")
                    products[mult] = np.matmul(*operands(mult))
                    record(JobOutcome(
                        mult, "fallback", 1, t0, time.perf_counter(),
                        error=f"{type(exc).__name__}: {exc}"))
                    continue
                if outcome is None:
                    emit("job-fallback", mult,
                         "classical gemm recomputed the block in the "
                         "parent after worker crashes")
                    products[mult] = np.matmul(*operands(mult))
                    record(JobOutcome(
                        mult, "fallback", crash_attempts + 1, t0,
                        time.perf_counter(),
                        error="worker process crashed"))
                    continue
                (i, status, attempts, err, t_start, t_end,
                 delays) = outcome
                if crash_attempts:
                    status = "retried"
                    attempts += crash_attempts
                if report is not None:
                    report.backoff_delays.extend(delays)
                if status == "fallback":
                    emit("job-fallback", i, "classical gemm recomputed "
                         "the block in the worker")
                elif status == "retried":
                    emit("retry", i, f"succeeded after {attempts} "
                         "attempts", attempt=attempts)
                products[i] = OUT[i]
                record(JobOutcome(i, status, attempts, t_start, t_end,
                                  error=err))

        C = np.empty((Mp, Kp), dtype=dtype)
        accumulate(plan.w_terms, [products[i] for i in range(r)],
                   block_views(C, m, k))
        return np.ascontiguousarray(part.crop(C))
    finally:
        if outer_span is not None:
            outer_span.__exit__(None, None, None)
        release_segment(a_seg, pooled=pooled)
        release_segment(b_seg, pooled=pooled)
        release_segment(out_seg, pooled=pooled)
