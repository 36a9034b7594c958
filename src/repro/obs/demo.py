"""Canonical traced scenario behind ``python -m repro trace``.

:func:`run_traced_demo` exercises the whole instrumented stack in one
deterministic scenario and returns the live
:class:`~repro.obs.tracer.Tracer` plus the guard's
:class:`~repro.robustness.events.EventLog`.  Three acts, one shared
``time.perf_counter`` timebase:

1. a sequential :func:`~repro.core.apa_matmul.apa_matmul` warm-up —
   ``apa_matmul`` / ``plan.execute`` spans plus the sequential plan's
   ``plan-miss`` instant;
2. a guarded *threaded* product with a fault injected into every worker
   gemm — the ``threaded_apa_matmul`` umbrella span + per-job
   ``executor.job`` spans, ``pool-create``, and the guard's health
   check catching the violation and walking the escalation ladder down
   to the classical fallback (EventLog-sourced ``residual`` /
   ``fallback`` instants);
3. the same product with the injector disarmed — a healthy fast path
   whose ``plan-hit`` instant lands next to act 2's ``plan-miss``.

That timeline — fault, recovery, then the warm path running clean — is
exactly the trace ``docs/OBSERVABILITY.md`` teaches readers to read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import Tracer, use_tracer
from repro.robustness.events import EventLog

__all__ = ["TracedDemo", "run_traced_demo"]


@dataclass(frozen=True)
class TracedDemo:
    """Everything ``repro trace`` needs to export and summarize."""

    algorithm: str
    n: int
    threads: int
    tracer: Tracer
    log: EventLog
    rel_error: float

    def summary(self) -> str:
        spans = self.tracer.spans
        jobs = sum(1 for s in spans if s.name == "executor.job")
        plan_instants = sum(
            1 for i in self.tracer.instants if i.cat == "plan")
        robustness = sum(
            1 for i in self.tracer.instants
            if i.args.get("source") == "eventlog")
        return (
            f"{self.algorithm} n={self.n} threads={self.threads}: "
            f"{len(spans)} spans ({jobs} executor jobs), "
            f"{plan_instants} plan-cache instants, "
            f"{robustness} robustness events, rel_error={self.rel_error:.2e}"
        )


def run_traced_demo(
    algorithm: str = "strassen444",
    n: int = 64,
    threads: int = 4,
    steps: int = 1,
    fault: str | None = "perturb",
    magnitude: float = 0.1,
    dtype=np.float32,
    seed: int = 0,
) -> TracedDemo:
    """Run the three-act scenario under a fresh tracer.

    ``algorithm`` must have real coefficients (surrogates cannot
    execute); the default is the paper's ``<4,4,4>`` Strassen
    composition.  ``fault=None`` skips the injection, collapsing acts 2
    and 3 into two healthy threaded calls.
    """
    from repro.algorithms.catalog import get_algorithm
    from repro.backends.guard import GuardedBackend
    from repro.core.apa_matmul import apa_matmul
    from repro.core.engine import default_engine
    from repro.core.plan import PlanCache
    from repro.robustness.inject import FaultSpec, faulty_gemm

    alg = get_algorithm(algorithm)
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)

    injector = None
    if fault is not None:
        injector = faulty_gemm(FaultSpec(kind=fault, magnitude=magnitude,
                                         seed=seed))

    log = EventLog()
    # A private plan cache keeps the demo's plan-miss/plan-hit instants
    # deterministic regardless of what the process ran before.
    cache = PlanCache()
    # The threaded inner backend comes straight from the engine: the
    # traced scenario needs executor jobs inside a guarded call, which
    # threads > 1 selects.  The engine backend exposes the
    # ``algorithm``/``lam``/``steps``/``gemm`` knobs the guard's
    # escalation ladder introspects.
    inner = default_engine().backend(
        algorithm=alg, threads=threads, steps=steps, gemm=injector,
        plan_cache=cache)
    guarded = GuardedBackend(inner, log=log, rng_seed=seed)  # lint: ignore[ENG002]: demo needs rng_seed + a gemm-seam injector on the inner backend, knobs the config stack does not expose

    with use_tracer() as tracer:
        # Act 1: clean sequential product — apa_matmul/plan.execute spans.
        apa_matmul(A, B, alg, steps=steps, plan_cache=cache)
        # Act 2: faulty threaded product — guard trips, ladder recovers.
        guarded.matmul(A, B)
        # Act 3: injector disarmed — the healthy warm fast path.
        if injector is not None:
            injector.active = False
        C = guarded.matmul(A, B)

    ref = A.astype(np.float64) @ B.astype(np.float64)
    rel = float(np.linalg.norm(C - ref) / np.linalg.norm(ref))
    return TracedDemo(algorithm=alg.name, n=n, threads=threads,
                      tracer=tracer, log=log, rel_error=rel)
