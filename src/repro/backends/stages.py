"""The built-in stages: guard, randomized, trace, inject.

Each was previously a bespoke wrapper class (or engine special case);
here they all speak :class:`~repro.backends.base.BackendStage` and are
composed by :class:`~repro.backends.stack.BackendStack` in the
canonical order :data:`repro.backends.registry.STAGE_ORDER`:

``guard`` → ``randomized`` → ``trace`` → ``inject``

The guard stage still *runs* :class:`~repro.backends.guard.GuardedBackend`
— the escalation ladder, breaker, and event log are untouched — it just
builds it over the composed inner callable instead of a hand-wired
backend object, so the residual probe automatically checks whatever the
stages below produced (with randomization active, the probe confirms
the variance reduction instead of being blind to it).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.backends.base import BackendStage, MatmulFn, StageContext
from repro.backends.registry import register_stage

__all__ = ["GuardStage", "RandomizedStage", "TraceStage", "InjectStage"]


class _StageTarget:
    """Backend-protocol adapter handed to :class:`GuardedBackend`.

    The guard needs an *object* with ``matmul`` plus the live execution
    knobs (``lam``/``steps``/``gemm``/``algorithm``/``name``): it reads
    them to size thresholds and writes recovered values back through
    them.  ``matmul`` is the composed below-guard callable; every other
    attribute proxies to the stack's terminal backend, so escalation
    write-backs land on the same live knobs they always did.
    """

    __slots__ = ("_fn", "_target")

    def __init__(self, fn: MatmulFn, target: Any) -> None:
        object.__setattr__(self, "_fn", fn)
        object.__setattr__(self, "_target", target)

    def matmul(self, A, B):
        return self._fn(A, B)

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not in __slots__ (and not `matmul`).
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)


@register_stage
class GuardStage(BackendStage):
    """Outermost stage: health checks + escalation + circuit breaker.

    Holds the per-stack :class:`~repro.backends.guard.GuardedBackend`
    (exposed as :attr:`backend`) so callers keep the familiar
    ``violations`` / ``fallback_calls`` / ``breaker`` surface.
    """

    name = "guard"

    def __init__(self, config: Any = None) -> None:
        super().__init__(config)
        self.backend: Any = None

    def wrap(self, inner: MatmulFn, ctx: StageContext) -> MatmulFn:
        from repro.backends.guard import GuardedBackend

        target = _StageTarget(inner, ctx.target)
        policy = getattr(ctx.config, "guard_policy", None)
        self.backend = GuardedBackend(target, policy=policy, log=ctx.log)
        return self.backend.matmul

    def plan_key(self, config: Any = None) -> tuple[Any, ...]:
        policy = getattr(config, "guard_policy", None)
        return (self.name,) if policy is None else (self.name, id(policy))


@register_stage
class RandomizedStage(BackendStage):
    """Seeded signed-permutation operand transform (Malik & Becker).

    Every call draws a fresh transform from the seeded stream (reusing
    one permutation would merely relabel the worst-case operand); the
    draw counter makes the stream deterministic per stack, so two
    stacks built from the same config replay identical transforms.
    """

    name = "randomized"

    def __init__(self, config: Any = None) -> None:
        super().__init__(config)
        seed = getattr(config, "rand_seed", None)
        self.seed = 0 if seed is None else int(seed)
        self.calls = 0
        self._lock = threading.Lock()

    def wrap(self, inner: MatmulFn, ctx: StageContext) -> MatmulFn:
        from repro.backends.randomize import apply_signed_permutation

        def randomized_matmul(A, B):
            if A.ndim != 2 or B.ndim != 2:
                raise ValueError(
                    "randomized execution supports 2-D products only")
            with self._lock:
                draw = self.calls
                self.calls += 1
            A2, B2 = apply_signed_permutation(A, B, seed=self.seed, draw=draw)
            return inner(A2, B2)

        return randomized_matmul

    def plan_key(self, config: Any = None) -> tuple[Any, ...]:
        return (self.name, self.seed)


@register_stage
class TraceStage(BackendStage):
    """One ``backend-stack`` span per call when a tracer is installed.

    Free when tracing is off (a single module-attribute read per call —
    the same discipline every obs site in the repo follows).
    """

    name = "trace"

    def wrap(self, inner: MatmulFn, ctx: StageContext) -> MatmulFn:
        from repro.backends.registry import active_stage_names
        from repro.obs import tracer as _obs_tracer

        stages = "+".join(active_stage_names(ctx.config)) or "none"
        target_name = getattr(ctx.target, "name", "backend")

        def traced_matmul(A, B):
            tracer = _obs_tracer.ACTIVE
            if tracer is None:
                return inner(A, B)
            with tracer.span(
                "backend-stack", cat="backends", stages=stages,
                target=target_name,
                shape=f"{tuple(A.shape)}@{tuple(B.shape)}",
            ):
                return inner(A, B)

        return traced_matmul


@register_stage
class InjectStage(BackendStage):
    """Seeded fault injection — a **gemm-seam** stage.

    Faults model hardware/worker failures inside the recursion, so the
    stage acts where those failures live: it wraps the base-case gemm
    with a fresh :class:`~repro.robustness.inject.GemmFaultInjector`.
    It is therefore activated by the ``fault=`` knob at the terminal
    backend (engine ``_execute`` / ``EngineBackend``), never selected
    onto the product seam by ``active_stage_names`` — that would
    double-inject.
    """

    name = "inject"

    def __init__(self, config: Any = None) -> None:
        super().__init__(config)
        # Accept either a resolved config or a bare FaultSpec.
        self.spec = getattr(config, "fault", config)

    @classmethod
    def applies(cls, config: Any) -> bool:
        return getattr(config, "fault", config) is not None

    def wrap_gemm(self, gemm: Any, config: Any = None) -> Any:
        from repro.robustness.inject import GemmFaultInjector

        if self.spec is None:
            return gemm
        return GemmFaultInjector(gemm=gemm, spec=self.spec)

    def wrap(self, inner: MatmulFn, ctx: StageContext) -> MatmulFn:
        injector = self.wrap_gemm(inner)
        return injector if callable(injector) else inner

    def error_bound(self, inner_bound: float, config: Any = None) -> float:
        spec = self.spec
        if spec is None:
            return inner_bound
        kind = getattr(spec, "kind", None)
        if kind == "perturb":
            return inner_bound + float(getattr(spec, "magnitude", 0.0))
        if kind in ("nan", "inf", "raise"):
            return float("inf")
        return inner_bound  # stall: slow, not wrong

    def plan_key(self, config: Any = None) -> tuple[Any, ...]:
        return (self.name, id(self.spec))
