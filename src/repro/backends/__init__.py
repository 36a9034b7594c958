"""``repro.backends`` — the composable backend-stack subsystem.

One middleware seam for everything that wraps a matmul: guarding,
randomized operand transforms, tracing, and fault injection are uniform
:class:`~repro.backends.base.BackendStage` plugins composed by
:class:`~repro.backends.stack.BackendStack` in the canonical order
``guard → randomized → trace → inject``
(:data:`~repro.backends.registry.STAGE_ORDER`).

Entry points:

- ``ExecutionConfig(guarded=..., randomized=..., stages=...)`` — the
  engine builds and caches stacks per resolved config; this is how
  nearly all code should reach them.
- :meth:`BackendStack.from_config` — standalone construction for tools
  and tests.
- ``engine.backend(guarded=True)`` hands back the stack's
  :class:`GuardedBackend`; new wrapping behavior should be a stage
  here, not a second wrapper class (``repro lint`` rule ENG002
  enforces this).

See ``docs/BACKENDS.md`` for the guided tour.
"""

from repro.backends.base import BackendStage, MatmulFn, StageContext
from repro.backends.guard import (
    GuardedBackend,
    HealthReport,
    check_product,
    residual_probe,
)
from repro.backends.randomize import apply_signed_permutation, signed_permutation
from repro.backends.registry import (
    STAGE_ORDER,
    active_stage_names,
    build_stages,
    get_stage,
    register_stage,
    stage_names,
)
from repro.backends.stack import BackendStack
from repro.backends.stages import (
    GuardStage,
    InjectStage,
    RandomizedStage,
    TraceStage,
)

__all__ = [
    "BackendStage",
    "BackendStack",
    "GuardStage",
    "GuardedBackend",
    "HealthReport",
    "InjectStage",
    "MatmulFn",
    "RandomizedStage",
    "STAGE_ORDER",
    "StageContext",
    "TraceStage",
    "active_stage_names",
    "apply_signed_permutation",
    "build_stages",
    "check_product",
    "get_stage",
    "register_stage",
    "residual_probe",
    "signed_permutation",
    "stage_names",
]
