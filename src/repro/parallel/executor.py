"""Real threaded execution of fast-matmul schedules.

NumPy's gemm releases the GIL, so a plain :class:`ThreadPoolExecutor`
realizes the paper's hybrid strategy faithfully on a real multicore host:
the ``q`` balanced rounds run ``p`` single-threaded gemms concurrently
(BLAS should be pinned to one thread via ``OMP_NUM_THREADS=1`` /
``threadpoolctl`` for exact correspondence), and the remainder
multiplications run one at a time letting BLAS use all its threads.

On the single-core CI host this degrades gracefully to sequential
execution (and the performance *figures* come from the simulator, see
DESIGN.md §2) — but the code path, schedule handling, and numerics are
the real thing and are exercised by the test suite.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Sequence

import numpy as np

from repro.core.engine import _run_sequential
from repro.core.lam import default_lambda
from repro.core.plan import accumulate, acquire_plan, combine, plannable
from repro.obs import tracer as _obs_tracer
from repro.parallel.backoff import BackoffPolicy
from repro.parallel.pool import get_pool
from repro.parallel.strategy import Schedule
from repro.robustness.events import EventLog
from repro.types import GemmFn

__all__ = ["JobOutcome", "ExecutionReport", "DEFAULT_BACKOFF"]

#: Retry pacing when the caller does not supply a policy: short enough
#: not to matter against a gemm, long enough to ride out a transient.
DEFAULT_BACKOFF = BackoffPolicy(base=0.001, cap=0.050)

#: A job's ``(S, T)`` operands, built from its mult index.
Operands = Callable[[int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class JobOutcome:
    """How one scheduled sub-multiplication actually went.

    ``status`` is ``'ok'`` (first try), ``'retried'`` (succeeded after
    retry), ``'fallback'`` (all attempts failed; classical gemm computed
    the block), or ``'timeout-fallback'`` (worker overran its deadline;
    classical gemm computed the block in the caller thread).
    """

    mult: int
    status: str
    attempts: int
    start: float
    end: float
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionReport:
    """Per-job outcomes + structured failure events of one scheduled call.

    Pass a fresh instance as ``engine.matmul(..., report=...)`` to
    capture it (``report`` selects the threaded runner unless
    ``executor='process'``; both record the same event kinds).
    :func:`repro.parallel.tracing.render_execution_gantt` renders the
    timeline with failures highlighted.
    """

    jobs: list[JobOutcome] = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)
    #: Optional retry-pacing override; ``None`` means
    #: :data:`DEFAULT_BACKOFF`.  Tests inject a policy with a recording
    #: ``sleep`` here to pin the schedule against a fake clock.
    backoff: BackoffPolicy | None = None
    #: Every backoff delay (seconds) slept by this call's retries, in
    #: emission order across jobs.
    backoff_delays: list[float] = field(default_factory=list)

    @property
    def failed_jobs(self) -> list[JobOutcome]:
        return [j for j in self.jobs if j.status != "ok"]


class _WorkerNonFinite(ArithmeticError):
    """Internal: a worker's block came back with NaN/Inf entries."""


# ---------------------------------------------------------------------
# What the thread and process runners share: the preamble, one job's
# attempt ladder, and landing outcomes in the report.  Each runner keeps
# only where its blocks are staged and how a job is shipped.
# ---------------------------------------------------------------------

def _prepare(A: np.ndarray, B: np.ndarray, algorithm: Any,
             lam: float | None, d: int | None, steps: int, plan_cache: Any,
             schedule: Schedule | None, strategy: str, workers: int,
             runner: str) -> tuple:
    """Checks, plan-dtype cast, default ``lambda`` and the plan; returns
    ``(A, B, lam, plan, schedule)``.  A custom schedule is not part of
    the plan key, so it runs on an uncached plan."""
    if algorithm.is_surrogate:
        raise ValueError(
            f"{algorithm.name!r} is a metadata surrogate; real {runner} "
            "execution needs full coefficients (use the simulator for it)"
        )
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"bad operand shapes {A.shape} @ {B.shape}")
    A, B = plannable(A, B)
    if lam is None:
        lam = default_lambda(algorithm, A.dtype, d, steps)
    plan = acquire_plan(
        False if schedule is not None else plan_cache, algorithm,
        A.shape[0], A.shape[1], B.shape[1], A.dtype, lam, steps=steps,
        mode="threaded", strategy=strategy, threads=workers)
    return A, B, lam, plan, plan.schedule if schedule is None else schedule


def _job_gemm(algorithm: Any, lam: float, steps: int,
              gemm: GemmFn) -> GemmFn:
    """``gemm``, or for ``steps > 1`` the inner levels run sequentially
    inside the job.  They go through the engine's sequential runner (not
    apa_matmul) so an active execution_context cannot re-thread the
    recursion from inside a worker."""
    if steps == 1:
        return gemm

    def inner(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        return _run_sequential(S, T, algorithm, lam, steps - 1, gemm,
                               None, None)

    return inner


def _run_job(mult: int, operands: Operands, gemm: GemmFn, retries: int,
             check_finite: bool, policy: BackoffPolicy) -> tuple:
    """One job's attempt ladder: gemm, NaN/Inf check, backoff and retry,
    then classical gemm for this block only.

    Returns ``(block, status, attempts, error, start, end, delays,
    events)``, each event a plain ``(kind, mult, detail, attempt, t)``
    tuple a worker process can ship back.  Timing starts inside the job,
    not at the phase's common submit time, which would charge every job
    for its time in the queue.
    """
    start = time.perf_counter()
    S, T = operands(mult)
    delays: list[float] = []
    events: list[tuple[str, int, str, int, float]] = []

    def emit(kind: str, detail: str, attempt: int = 0) -> None:
        events.append((kind, mult, detail, attempt, time.perf_counter()))

    error = ""
    backoff = None
    for attempt in range(1, retries + 2):
        try:
            M = gemm(S, T)
            if check_finite and not np.isfinite(M).all():
                raise _WorkerNonFinite("block contains NaN/Inf")
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            emit("worker-nonfinite" if isinstance(exc, _WorkerNonFinite)
                 else "worker-error", error, attempt)
            if attempt <= retries:
                # Back off before the retry: immediate re-runs fail for
                # the same transient reason, and jitter keeps concurrent
                # retriers desynchronized.  Keyed by the mult index so
                # each job's schedule is independent and reproducible.
                if backoff is None:
                    backoff = policy.sequence(key=mult)
                delay = backoff.wait()
                delays.append(delay)
                emit("backoff", f"slept {delay * 1e3:.3f} ms before retry",
                     attempt)
                emit("retry", f"attempt {attempt + 1} of {retries + 1}",
                     attempt)
            continue
        return (M, "ok" if attempt == 1 else "retried", attempt, "", start,
                time.perf_counter(), delays, events)
    emit("job-fallback", "classical gemm recomputed the block")
    return (np.matmul(S, T), "fallback", retries + 1, error, start,
            time.perf_counter(), delays, events)


def _emit(report: ExecutionReport | None, kind: str, mult: int,
          detail: str, attempt: int = 0, t: float | None = None) -> None:
    if report is not None:
        report.events.emit(kind, f"mult {mult}", detail, attempt, t)


def _record(report: ExecutionReport | None, mult: int, status: str,
            attempts: int, error: str, start: float, end: float,
            delays: Sequence[float] = (), events: Sequence = ()) -> None:
    """Land one job's slept delays, events and outcome in ``report``."""
    if report is None:
        return
    report.backoff_delays.extend(delays)
    for event in events:
        _emit(report, *event)
    report.jobs.append(JobOutcome(mult, status, attempts, start, end,
                                  error=error))


def _rescue(report: ExecutionReport | None, mult: int, operands: Operands,
            kind: str, detail: str, status: str, attempts: int,
            start: float, error: str) -> np.ndarray:
    """Recompute a block the job never delivered, classically, here."""
    _emit(report, kind, mult, detail)
    M = np.matmul(*operands(mult))
    _record(report, mult, status, attempts, error, start,
            time.perf_counter())
    return M


def _call_span(name: str, algorithm: Any, A: np.ndarray, B: np.ndarray,
               steps: int, **args: Any) -> ContextManager[Any]:
    """The umbrella span of one scheduled call (a no-op untraced)."""
    tracer = _obs_tracer.ACTIVE
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat="parallel", algorithm=algorithm.name,
                       shape=f"{tuple(A.shape)}@{tuple(B.shape)}",
                       steps=steps, **args)


def _threaded_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm,
    threads: int,
    lam: float | None = None,
    d: int | None = None,
    strategy: str = "hybrid",
    schedule: Schedule | None = None,
    gemm=None,
    steps: int = 1,
    retries: int = 0,
    timeout: float | None = None,
    check_finite: bool = False,
    report: ExecutionReport | None = None,
    plan_cache=None,
) -> np.ndarray:
    """``steps`` recursive levels of ``algorithm``, outer level threaded.

    Reached as ``engine.matmul(A, B, alg, threads=t, ...)`` (or with
    ``retries``/``timeout``/``check_finite``/``schedule``/``report``);
    only :mod:`repro.core.engine` may call this (staticcheck ENG001
    enforces it), so tracing, guarding, and fault injection stay
    layered at one point.

    ``threads``/``strategy``/``schedule`` select the §3.2
    parallelization of the *outer* level (inner levels, when
    ``steps > 1``, run sequentially inside each scheduled job — the
    paper parallelizes only across the top-level sub-products).
    Surrogate algorithms are rejected — they have no coefficients to
    run.  Worker threads come from the persistent pool
    (:func:`repro.parallel.pool.get_pool`); partition, coefficients,
    schedule, and arenas come from the plan cache (``plan_cache=False``
    or an explicit ``schedule`` builds an uncached plan).

    Failure handling (the guarded-execution contract): a job whose gemm
    raises is retried up to ``retries`` times — each retry waits a
    decorrelated-jitter backoff delay first (:data:`DEFAULT_BACKOFF`,
    overridable via ``report.backoff``; the slept delays land in
    ``report.backoff_delays``) — and then recomputed with classical
    gemm: only the failed sub-multiplication loses its speedup.
    ``check_finite=True`` additionally treats a NaN/Inf block as a
    failure.  ``timeout`` (seconds) bounds each job's wall-clock; an
    overrunning worker's block is recomputed classically in the caller
    thread.  Every recovery action is recorded in ``report`` when one
    is passed.
    """
    A, B, lam, plan, schedule = _prepare(
        A, B, algorithm, lam, d, steps, plan_cache, schedule, strategy,
        threads, "threaded")
    gemm = _job_gemm(algorithm, lam, steps,
                     np.matmul if gemm is None else gemm)
    policy = getattr(report, "backoff", None) or DEFAULT_BACKOFF
    # One span per scheduled job, opened in the worker thread so the
    # Chrome trace shows real per-thread lanes.
    tracer = _obs_tracer.ACTIVE

    workspace = plan.checkout()
    a_blocks, b_blocks = plan.stage(workspace, A, B)

    def operands(i: int) -> tuple[np.ndarray, np.ndarray]:
        return (combine(plan.program.s[i], a_blocks),
                combine(plan.program.t[i], b_blocks))

    def run_mult(i: int) -> tuple:
        with nullcontext() if tracer is None else tracer.span(
                "executor.job", cat="parallel", mult=i,
                algorithm=algorithm.name):
            return _run_job(i, operands, gemm, retries, check_finite, policy)

    def land(i: int, outcome: tuple) -> np.ndarray:
        _record(report, i, *outcome[1:])
        return outcome[0]

    try:
        with _call_span("threaded_apa_matmul", algorithm, A, B, steps,
                        threads=threads, strategy=strategy):
            products: dict[int, np.ndarray] = {}
            if threads == 1:
                for i in range(plan.rank):
                    products[i] = land(i, run_mult(i))
            else:
                pool = get_pool(threads)
                for phase in schedule.phases:
                    t0 = time.perf_counter()
                    futures = {mult: pool.submit(run_mult, mult)
                               for mult, _ in phase.jobs}
                    for mult, future in futures.items():
                        try:
                            outcome = future.result(timeout=timeout)
                        except FutureTimeoutError:
                            future.cancel()
                            # The worker never reported, so the phase
                            # submit time is the only start we have.
                            products[mult] = _rescue(
                                report, mult, operands, "worker-timeout",
                                f"no result within {timeout}s; classical "
                                "gemm recomputed the block in the caller "
                                "thread", "timeout-fallback", 1, t0,
                                f"timeout after {timeout}s")
                            continue
                        products[mult] = land(mult, outcome)

            accumulate(plan.program, [products[i] for i in range(plan.rank)],
                       workspace.c_blocks[0], workspace.scratch)
            # Always copy out: the arena C belongs to the plan.
            return np.array(workspace.C[0][: A.shape[0], : B.shape[1]])
    finally:
        plan.release(workspace)
