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
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import _run_sequential
from repro.core.plan import accumulate, acquire_plan, combine, plannable
from repro.obs import tracer as _obs_tracer
from repro.parallel.backoff import BackoffPolicy
from repro.parallel.pool import get_pool
from repro.parallel.strategy import Schedule
from repro.robustness.events import EventLog

__all__ = ["JobOutcome", "ExecutionReport", "DEFAULT_BACKOFF"]

#: Retry pacing when the caller does not supply a policy: short enough
#: not to matter against a gemm, long enough to ride out a transient.
DEFAULT_BACKOFF = BackoffPolicy(base=0.001, cap=0.050)


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
    """Per-job outcomes + structured failure events of one threaded call.

    Pass a fresh instance as ``engine.matmul(..., report=...)`` to
    capture it (``report`` selects the threaded runner);
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


def _threaded_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm,
    threads: int,
    lam: float | None = None,
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
    if algorithm.is_surrogate:
        raise ValueError(
            f"{algorithm.name!r} is a metadata surrogate; real threaded "
            "execution needs full coefficients (use the simulator for it)"
        )
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"bad operand shapes {A.shape} @ {B.shape}")
    if gemm is None:
        gemm = np.matmul

    from repro.core.lam import optimal_lambda, precision_bits

    A, B = plannable(A, B)
    dtype = A.dtype
    if lam is None:
        d = precision_bits(dtype) if dtype.kind == "f" else 52
        lam = optimal_lambda(algorithm, d=d, steps=steps)

    if steps > 1:
        # Inner levels run sequentially inside each scheduled job.  They
        # go through the engine's sequential runner (not apa_matmul)
        # so an active execution_context cannot re-thread the
        # recursion from inside a pool worker.
        inner_gemm = gemm

        def gemm(S, T, _inner=inner_gemm):  # noqa: F811
            return _run_sequential(S, T, algorithm, lam, steps - 1,
                                   _inner, None, None)

    # Observability: one umbrella span for the call, one span per
    # scheduled job (opened in the worker thread, so the Chrome trace
    # shows real per-thread lanes).  Disabled cost: this None check.
    tracer = _obs_tracer.ACTIVE

    # A custom schedule is not part of the plan key, so it runs on an
    # uncached plan.
    plan = acquire_plan(
        False if schedule is not None else plan_cache, algorithm,
        A.shape[0], A.shape[1], B.shape[1], dtype, lam, steps=steps,
        mode="threaded", strategy=strategy, threads=threads)
    if schedule is None:
        schedule = plan.schedule
    r = plan.rank
    workspace = plan.checkout()
    a_blocks, b_blocks = plan.stage(workspace, A, B)

    def operands(i: int) -> tuple[np.ndarray, np.ndarray]:
        return (combine(plan.program.s[i], a_blocks),
                combine(plan.program.t[i], b_blocks))

    def record(outcome: JobOutcome) -> None:
        if report is not None:
            report.jobs.append(outcome)

    def emit(kind: str, mult: int, detail: str, attempt: int = 0) -> None:
        if report is not None:
            report.events.emit(kind, f"mult {mult}", detail, attempt=attempt)

    def run_mult(i: int) -> tuple[np.ndarray, str, int, str, float, float]:
        """Returns ``(block, status, attempts, error_text, start, end)``.

        Timing is captured *inside* the job: all jobs of a phase are
        submitted with one timestamp, so using the phase submit time as
        the start would charge every job for its time in the queue (the
        bug render_execution_gantt used to inherit).
        """
        if tracer is None:
            return _run_mult(i)
        with tracer.span("executor.job", cat="parallel", mult=i,
                         algorithm=algorithm.name):
            return _run_mult(i)

    backoff_policy = (report.backoff if report is not None
                      and report.backoff is not None else DEFAULT_BACKOFF)

    def _run_mult(i: int) -> tuple[np.ndarray, str, int, str, float, float]:
        start = time.perf_counter()
        S, T = operands(i)
        error_text = ""
        backoff = None
        for attempt in range(1, retries + 2):
            try:
                M = gemm(S, T)
                if check_finite and not np.isfinite(M).all():
                    raise _WorkerNonFinite("block contains NaN/Inf")
            except Exception as exc:
                kind = ("worker-nonfinite"
                        if isinstance(exc, _WorkerNonFinite)
                        else "worker-error")
                error_text = f"{type(exc).__name__}: {exc}"
                emit(kind, i, error_text, attempt=attempt)
                if attempt <= retries:
                    # Back off before the retry: immediate re-runs fail
                    # for the same transient reason, and jitter keeps
                    # concurrent retriers desynchronized.  Keyed by the
                    # mult index so each job's schedule is independent
                    # and reproducible.
                    if backoff is None:
                        backoff = backoff_policy.sequence(key=i)
                    delay = backoff.wait()
                    if report is not None:
                        report.backoff_delays.append(delay)
                    emit("backoff", i, f"slept {delay * 1e3:.3f} ms "
                         "before retry", attempt=attempt)
                    emit("retry", i, f"attempt {attempt + 1} of "
                         f"{retries + 1}", attempt=attempt)
                continue
            status = "ok" if attempt == 1 else "retried"
            return M, status, attempt, "", start, time.perf_counter()
        # All attempts failed: classical gemm for this block only.
        emit("job-fallback", i, "classical gemm recomputed the block")
        return (np.matmul(S, T), "fallback", retries + 1, error_text,
                start, time.perf_counter())

    def classical_rescue(i: int) -> np.ndarray:
        S, T = operands(i)
        return np.matmul(S, T)

    outer_span = None
    if tracer is not None:
        outer_span = tracer.span(
            "threaded_apa_matmul", cat="parallel",
            algorithm=algorithm.name, threads=threads, strategy=strategy,
            shape=f"{tuple(A.shape)}@{tuple(B.shape)}", steps=steps)
        outer_span.__enter__()
    try:
        products: dict[int, np.ndarray] = {}
        if threads == 1:
            for i in range(r):
                M, status, attempts, err, t_start, t_end = run_mult(i)
                products[i] = M
                record(JobOutcome(i, status, attempts, t_start, t_end,
                                  error=err))
        else:
            pool = get_pool(threads)
            for phase in schedule.phases:
                t0 = time.perf_counter()
                futures = {
                    mult: pool.submit(run_mult, mult) for mult, _ in phase.jobs
                }
                for mult, future in futures.items():
                    try:
                        (M, status, attempts, err,
                         t_start, t_end) = future.result(timeout=timeout)
                    except FutureTimeoutError:
                        emit("worker-timeout", mult,
                             f"no result within {timeout}s; classical gemm "
                             "recomputed the block in the caller thread")
                        # The worker never reported, so the phase submit
                        # time is the only start we have for this job.
                        M, status, attempts, err, t_start, t_end = (
                            classical_rescue(mult), "timeout-fallback", 1,
                            f"timeout after {timeout}s", t0,
                            time.perf_counter())
                        future.cancel()
                    products[mult] = M
                    record(JobOutcome(mult, status, attempts, t_start,
                                      t_end, error=err))

        accumulate(plan.program, [products[i] for i in range(r)],
                   workspace.c_blocks[0], workspace.scratch)
        # Always copy out: the arena C belongs to the plan.
        return np.array(workspace.C[0][: A.shape[0], : B.shape[1]])
    finally:
        if outer_span is not None:
            outer_span.__exit__(None, None, None)
        plan.release(workspace)
