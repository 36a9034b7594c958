"""``repro.backends`` — the one place a matmul product gets wrapped.

:class:`~repro.backends.stack.BackendStack` composes at most two
layers over a terminal backend, in one fixed order: the
:class:`~repro.backends.guard.GuardedBackend` health checks
(``guarded=True``) outermost, over the seeded signed-permutation
transform of :mod:`repro.backends.randomize` (``randomized=True``).

Entry points:

- ``ExecutionConfig(guarded=..., randomized=...)`` — the engine builds
  and caches stacks per resolved config; this is how nearly all code
  should reach them.
- :meth:`BackendStack.from_config` — standalone construction for tools
  and tests.
- ``engine.backend(guarded=True)`` hands back the stack's
  :class:`GuardedBackend`; constructing one by hand outside this
  package is a lint error (``repro lint`` rule ENG002).

See ``docs/BACKENDS.md`` for the guided tour.
"""

from repro.backends.guard import (
    GuardedBackend,
    HealthReport,
    check_product,
    residual_probe,
)
from repro.backends.randomize import apply_signed_permutation, signed_permutation
from repro.backends.stack import BackendStack

__all__ = [
    "BackendStack",
    "GuardedBackend",
    "HealthReport",
    "apply_signed_permutation",
    "check_product",
    "residual_probe",
    "signed_permutation",
]
