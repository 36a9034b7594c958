"""``BackendStack``: compose stages over a terminal backend.

The stack is the one composition point for everything that wraps a
matmul.  Construction walks the stages innermost-to-outermost, handing
each the callable produced so far:

```
guard( randomized( trace( target.matmul ) ) )
```

An **empty** stack is exactly the target — no wrapper frames, no
behavior change.

Stacks satisfy the :class:`~repro.core.backend.MatmulBackend` protocol
(``name`` + ``matmul``), so they drop into ``Dense`` layers, the serve
worker pool, and anywhere else a backend goes.  They also aggregate
the stage contracts: :meth:`error_bound` folds the §2.3 budget through
every stage innermost-first, and :meth:`plan_key` concatenates stage
contributions so caches and coalescers can tell staged configs apart.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.backends.base import BackendStage, StageContext
from repro.backends.registry import build_stages

__all__ = ["BackendStack"]


class BackendStack:
    """Stages composed over a terminal backend, outermost first.

    Parameters
    ----------
    stages:
        :class:`BackendStage` instances in canonical order (outermost
        first — the order :func:`repro.backends.registry.build_stages`
        returns).
    target:
        The terminal backend: anything with ``matmul`` (an
        :class:`~repro.core.engine.EngineBackend` for engine-built
        stacks).
    config / engine / log:
        Recorded into the :class:`StageContext` stages wrap under
        (``log`` routes stage events — the guard's escalations — into a
        host-owned ring buffer; ``None`` keeps stage defaults).
    """

    def __init__(
        self,
        stages: Iterable[BackendStage],
        target: Any,
        config: Any = None,
        engine: Any = None,
        name: str | None = None,
        log: Any = None,
    ) -> None:
        self.stages: tuple[BackendStage, ...] = tuple(stages)
        self.target = target
        self.config = config
        ctx = StageContext(config=config, target=target, engine=engine,
                           log=log)
        fn = target.matmul
        for stage in reversed(self.stages):
            fn = stage.wrap(fn, ctx)
        self._fn = fn
        if name is not None:
            self.name = name
        elif self.stages:
            self.name = ("stack:"
                         + "+".join(s.name for s in self.stages)
                         + ":" + getattr(target, "name", "backend"))
        else:
            self.name = getattr(target, "name", "backend")

    # ------------------------------------------------------------------
    # the MatmulBackend surface
    # ------------------------------------------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self._fn(A, B)

    # ------------------------------------------------------------------
    # construction & introspection
    # ------------------------------------------------------------------

    @classmethod
    def from_config(cls, config: Any, engine: Any = None,
                    log: Any = None) -> "BackendStack":
        """Build the stack a resolved :class:`ExecutionConfig` asks for.

        The terminal backend is an
        :class:`~repro.core.engine.EngineBackend` over ``engine`` (the
        default engine when ``None``) with the stage knobs stripped —
        the stack owns them; the terminal must not re-apply them.
        """
        from repro.core.engine import EngineBackend, default_engine

        engine = engine if engine is not None else default_engine()
        target = EngineBackend(engine, config)
        return cls(build_stages(config), target, config=config, engine=engine,
                   log=log)

    def stage(self, name: str) -> BackendStage:
        """The active stage called ``name`` (KeyError if absent)."""
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(
            f"stage {name!r} not in stack "
            f"({', '.join(s.name for s in self.stages) or 'empty'})")

    @property
    def guard(self) -> Any:
        """The guard stage's :class:`GuardedBackend`, or ``None``.

        For guarded stacks this object's ``matmul`` *is* the stack's
        composed callable (the guard is outermost), so the engine hands
        it out as the backend — callers keep the familiar
        ``violations``/``fallback_calls``/``breaker`` surface.
        """
        for s in self.stages:
            if s.name == "guard":
                return s.backend
        return None

    # ------------------------------------------------------------------
    # aggregated stage contracts
    # ------------------------------------------------------------------

    def error_bound(self, inner_bound: float | None = None) -> float:
        """Fold the §2.3 error budget through every stage.

        ``inner_bound`` defaults to the terminal backend's own
        predicted bound when it can state one (an ``algorithm`` with
        the analysis helpers available), else ``0.0`` (exact gemm).
        """
        bound = inner_bound
        if bound is None:
            bound = 0.0
            alg = getattr(self.target, "algorithm", None)
            if alg is not None and not isinstance(alg, (tuple, list)):
                from repro.algorithms.analysis import predicted_error_bound

                bound = predicted_error_bound(
                    alg, steps=int(getattr(self.target, "steps", 1) or 1))
        for stage in reversed(self.stages):
            bound = stage.error_bound(bound, self.config)
        return bound

    def plan_key(self) -> tuple[Any, ...]:
        """Concatenated stage contributions to cache/coalescing keys."""
        return tuple(
            part for stage in self.stages
            for part in stage.plan_key(self.config))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " -> ".join(s.name for s in self.stages) or "(empty)"
        return f"<BackendStack {inner} -> {getattr(self.target, 'name', '?')}>"
