"""Execution engine: run APA algorithms on NumPy operands.

- :mod:`repro.core.lam` — theory-optimal and empirically tuned choices of
  the APA parameter ``lambda`` (paper §2.3);
- :mod:`repro.core.apa_matmul` — the generic recursive executor for true
  :class:`~repro.algorithms.spec.BilinearAlgorithm` objects (write-once
  linear combinations + gemm sub-products, paper §3.2);
- :mod:`repro.core.surrogate` — execution of metadata surrogates
  (classical product + structured error at the modelled magnitude);
- :mod:`repro.core.backend` — the pluggable matmul-backend protocol used
  to inject APA products into neural-network layers, and the classical
  baseline (APA backends come from ``default_engine().backend(...)``);
- :mod:`repro.core.plan` — cached :class:`~repro.core.plan.ExecutionPlan`
  objects with pooled workspace arenas (the hot-path engine behind
  repeated identically-shaped calls);
- :mod:`repro.core.config` / :mod:`repro.core.engine` — the
  :class:`~repro.core.config.ExecutionConfig` value object and the
  :class:`~repro.core.engine.ExecutionEngine` that resolves it into the
  layered inject → guard → trace → dispatch stack; ``apa_matmul``,
  ``engine.matmul`` and ``engine.backend`` all dispatch through it.
"""

from repro.core.apa_matmul import apa_matmul
from repro.core.config import ExecutionConfig, execution_context
from repro.core.engine import ExecutionEngine, default_engine
from repro.core.backend import (
    ClassicalBackend,
    MatmulBackend,
)
from repro.core.lam import optimal_lambda, precision_bits, tune_lambda
from repro.core.plan import (
    ExecutionPlan,
    PlanCache,
    configure_plan_cache,
    default_plan_cache,
)
from repro.core.surrogate import surrogate_matmul

__all__ = [
    "apa_matmul",
    "surrogate_matmul",
    "ExecutionConfig",
    "ExecutionEngine",
    "execution_context",
    "default_engine",
    "optimal_lambda",
    "tune_lambda",
    "precision_bits",
    "MatmulBackend",
    "ClassicalBackend",
    "ExecutionPlan",
    "PlanCache",
    "default_plan_cache",
    "configure_plan_cache",
]
