"""The stage interface: one contract for everything that wraps a matmul.

Before this subsystem existed the repo had three hand-rolled wrapper
classes around a matmul plus a fourth copy of the layering logic
special-cased inside the engine's dispatch.  Each new numeric
transform (randomization, quantization) would have become wrapper
number five.  :class:`BackendStage` replaces
that with a middleware contract, composed by
:class:`~repro.backends.stack.BackendStack`:

- :meth:`~BackendStage.wrap` — the **product seam**: receives the inner
  ``matmul(A, B) -> C`` callable and returns a wrapped one.  Guarding,
  tracing, and operand transforms (randomization) live here.
- :meth:`~BackendStage.wrap_gemm` — the **gemm seam**: receives the
  base-case gemm used *inside* the recursion and returns a wrapped one.
  Fault injection lives here (a fault hits individual sub-products,
  not the whole result).
- :meth:`~BackendStage.error_bound` — the stage's declared effect on
  the §2.3 error budget ``2**(-d*sigma/(sigma + s*phi))``: the
  predicted bound flows innermost-to-outermost through every stage so
  a composed stack can still state one number
  (:meth:`~repro.backends.stack.BackendStack.error_bound`).
- :meth:`~BackendStage.plan_key` — the stage's contribution to cache
  and coalescing keys: two configs whose stages return different keys
  must never share a plan, a batch, or breaker state.

Stages are **per-stack instances** (they may hold state: a guard's
circuit breaker, a randomizer's draw counter), built from per-class
factories registered in :mod:`repro.backends.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

__all__ = ["MatmulFn", "StageContext", "BackendStage"]

#: The product seam every stage composes over.
MatmulFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class StageContext:
    """What a stage may see while wrapping: the resolved config, the
    terminal backend it ultimately drives (an
    :class:`~repro.core.engine.EngineBackend` for engine-built stacks),
    and the owning engine (``None`` for standalone stacks).

    The ``target`` matters to stages that need the *live* execution
    knobs rather than the frozen config: the guard's escalation ladder
    writes recovered ``lam``/``steps`` back onto it so one bad call
    fixes all subsequent ones.  ``log`` lets a hosting subsystem (the
    serve layer) route stage events into its own ring buffer; ``None``
    keeps each stage's default log.
    """

    config: Any
    target: Any = None
    engine: Any = None
    log: Any = None


class BackendStage:
    """Base class for composable backend middleware.

    Subclasses set :attr:`name` (the registry key, also the spelling
    accepted by ``ExecutionConfig(stages=...)``), override
    :meth:`applies` to say which configs activate them, and implement
    whichever seam(s) they act on.  The defaults make every unexercised
    seam a transparent pass-through, so a stage only states what it
    changes.
    """

    #: Registry key; canonical composition order lives in
    #: :data:`repro.backends.registry.STAGE_ORDER`.
    name: ClassVar[str] = ""

    def __init__(self, config: Any = None) -> None:
        self.config = config

    # -- activation ----------------------------------------------------

    @classmethod
    def applies(cls, config: Any) -> bool:
        """Whether this stage can activate for ``config``.

        Called before construction; a stage *named* in
        ``config.stages`` whose ``applies`` is false is a config error
        (e.g. the inject stage without a fault spec).
        """
        return True

    # -- the two wrapping seams ----------------------------------------

    def wrap(self, inner: MatmulFn, ctx: StageContext) -> MatmulFn:
        """Wrap the product seam; default: pass through."""
        return inner

    def wrap_gemm(self, gemm: Any, config: Any = None) -> Any:
        """Wrap the base-case gemm seam; default: pass through."""
        return gemm

    # -- declared contracts --------------------------------------------

    def error_bound(self, inner_bound: float, config: Any = None) -> float:
        """Fold this stage's effect into the predicted error bound.

        ``inner_bound`` is the bound of everything inside this stage;
        the return value is what callers outside it may assume.  The
        default declares "no effect" — correct for the guard (it
        enforces the bound rather than changing it) and for exact
        operand transforms like randomization (the worst-case bound is
        unchanged; only the error's *variance* shrinks).
        """
        return inner_bound

    def plan_key(self, config: Any = None) -> tuple[Any, ...]:
        """This stage's contribution to plan/coalescing cache keys."""
        return (self.name,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
