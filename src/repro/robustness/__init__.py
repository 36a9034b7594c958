"""Guarded execution: health checks, fault injection, graceful degradation.

The APA runtime's central risk is numerical — a product can be wrong
without anything raising.  This package makes every layer of the stack
fail *soft*:

- :mod:`~repro.robustness.guard` wraps any matmul backend with cheap
  per-call health checks and an escalation ladder ending in classical
  gemm, plus a per-(algorithm, shape-class) circuit breaker;
- :mod:`~repro.robustness.policy` holds the escalation/breaker knobs;
- :mod:`~repro.robustness.inject` manufactures deterministic faults
  (NaN/Inf poisoning, perturbation, worker exception, worker stall) so
  the guards are testable without real numerical accidents;
- :mod:`~repro.robustness.divergence` guards the training loop with
  checkpoint rollback and backend downgrade;
- :mod:`~repro.robustness.events` is the shared structured-event record.
"""

from repro.robustness.events import EventLog, RobustnessEvent
from repro.robustness.policy import (
    BreakerState,
    CircuitBreaker,
    EscalationPolicy,
    shape_class,
)
from repro.robustness.guard import (
    GuardedBackend,
    HealthReport,
    check_product,
    residual_probe,
)
from repro.robustness.inject import (
    FaultSpec,
    GemmFaultInjector,
    InjectedFault,
    faulty_gemm,
)
from repro.robustness.divergence import DivergenceGuard, downgrade_backends

__all__ = [
    "EventLog",
    "RobustnessEvent",
    "EscalationPolicy",
    "CircuitBreaker",
    "BreakerState",
    "shape_class",
    "GuardedBackend",
    "HealthReport",
    "check_product",
    "residual_probe",
    "FaultSpec",
    "GemmFaultInjector",
    "InjectedFault",
    "faulty_gemm",
    "DivergenceGuard",
    "downgrade_backends",
]
