"""Measure the wall-clock cost of the guarded-execution health checks.

The guard's per-call work — a NaN/Inf scan plus ``probe_vectors``
randomized residual probes — is O(n^2) against the product's
super-quadratic flops, so overhead must shrink with n; the acceptance
target for this repo is <= 10% at n=1024.  Run via
``python -m repro guard-overhead`` or call :func:`measure_guard_overhead`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.timing import MeasuredTime, measure
from repro.core.engine import ExecutionEngine

__all__ = ["GuardOverhead", "measure_guard_overhead"]


@dataclass(frozen=True)
class GuardOverhead:
    algorithm: str
    n: int
    unguarded: MeasuredTime
    guarded: MeasuredTime

    @property
    def overhead(self) -> float:
        """Fractional wall-clock cost of the guard (best-of times)."""
        return self.guarded.best / self.unguarded.best - 1.0

    def describe(self) -> str:
        return (
            f"{self.algorithm} n={self.n}: unguarded {self.unguarded.best:.4f}s, "
            f"guarded {self.guarded.best:.4f}s "
            f"({self.overhead * 100:+.1f}% overhead)"
        )


def measure_guard_overhead(
    algorithm: str = "bini322",
    n: int = 1024,
    steps: int = 1,
    dtype=np.float32,
    repeats: int = 3,
    seed: int = 0,
) -> GuardOverhead:
    """Time guarded vs unguarded APA matmul on one ``n x n`` product."""
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)

    # A private engine: the guard's breaker state starts fresh.
    engine = ExecutionEngine()
    plain = engine.backend(algorithm=algorithm, steps=steps)
    guarded = engine.backend(algorithm=algorithm, steps=steps, guarded=True)

    t_plain = measure(lambda: plain.matmul(A, B), repeats=repeats)
    t_guarded = measure(lambda: guarded.matmul(A, B), repeats=repeats)
    return GuardOverhead(algorithm=algorithm, n=n, unguarded=t_plain,
                         guarded=t_guarded)
