"""``BackendStack``: the guard over the randomized transform over the engine.

The stack is the one place a matmul product gets wrapped.  It composes
at most two layers over a terminal backend, always in this order::

    guard( randomized( target.matmul ) )

- **randomized** (``randomized=True``): every call takes the next draw
  of the seeded signed-permutation stream (Malik & Becker,
  arXiv 1905.07439) under the stack's lock, transforms the operands,
  and opens one ``backend-stack`` span when a tracer is installed.
- **guard** (``guarded=True``): a
  :class:`~repro.backends.guard.GuardedBackend` outermost, so its
  residual probe checks the product the caller receives — with
  randomization active, the probe sees the randomized product.

A stack with neither knob is exactly the target.  Fault injection
(``fault=``) is not a layer: faults model failures inside the
recursion, so the terminal backend wraps its base-case gemm in a
:class:`~repro.robustness.inject.GemmFaultInjector`.
:meth:`BackendStack.error_bound` still folds the fault into the §2.3
budget.

Stacks satisfy the :class:`~repro.core.backend.MatmulBackend` protocol
(``name`` + ``matmul``), so they drop into ``Dense`` layers, the serve
worker pool, and anywhere else a backend goes.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.backends.guard import GuardedBackend
from repro.backends.randomize import apply_signed_permutation
from repro.obs import tracer as _obs_tracer

__all__ = ["BackendStack"]


class _StageTarget:
    """Backend-protocol adapter handed to :class:`GuardedBackend`.

    The guard needs an *object* with ``matmul`` plus the live execution
    knobs (``lam``/``steps``/``gemm``/``algorithm``/``name``): it reads
    them to size thresholds and writes recovered values back through
    them.  ``matmul`` is the below-guard callable; every other
    attribute proxies to the stack's terminal backend, so escalation
    write-backs land on the live knobs.
    """

    __slots__ = ("_fn", "_target")

    def __init__(self, fn: Any, target: Any) -> None:
        object.__setattr__(self, "_fn", fn)
        object.__setattr__(self, "_target", target)

    def matmul(self, A, B):
        return self._fn(A, B)

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not in __slots__ (and not `matmul`).
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)


class BackendStack:
    """The guard and randomized layers a config asks for, over ``target``.

    Parameters
    ----------
    target:
        The terminal backend: anything with ``matmul`` (an
        :class:`~repro.core.engine.EngineBackend` for engine-built
        stacks).
    config:
        The resolved config; ``guarded``, ``guard_policy``,
        ``randomized``, ``rand_seed`` and ``fault`` are read.
    log:
        Routes the guard's events into a host-owned ring buffer
        (``None`` keeps the guard's own log).
    """

    def __init__(self, target: Any, config: Any, log: Any = None) -> None:
        self.target = target
        self.config = config
        #: The guard layer's :class:`GuardedBackend`, or ``None``.  For
        #: guarded stacks its ``matmul`` *is* the stack's (the guard is
        #: outermost), so the engine hands it out as the backend.
        self.guard: GuardedBackend | None = None
        #: Randomized draws taken so far.
        self.draws = 0
        self._lock = threading.Lock()
        layers = ("guard",) * bool(config.guarded)
        if config.randomized:
            layers += ("randomized", "trace")
        target_name = getattr(target, "name", "backend")
        fn = target.matmul
        if config.randomized:
            fn = self._randomized(fn, "+".join(layers), target_name)
        if config.guarded:
            self.guard = GuardedBackend(_StageTarget(fn, target),
                                        policy=config.guard_policy, log=log)
            fn = self.guard.matmul
        self._fn = fn
        self.name = (f"stack:{'+'.join(layers)}:{target_name}" if layers
                     else target_name)

    def _randomized(self, inner: Any, layers: str, target_name: str) -> Any:
        """``inner`` behind the seeded signed-permutation transform."""
        seed = int(self.config.rand_seed or 0)
        span_args = {"stages": layers, "target": target_name}

        def randomized_matmul(A, B):
            if A.ndim != 2 or B.ndim != 2:
                raise ValueError(
                    "randomized execution supports 2-D products only")
            with self._lock:
                draw = self.draws
                self.draws += 1
            A2, B2 = apply_signed_permutation(A, B, seed=seed, draw=draw)
            tracer = _obs_tracer.ACTIVE
            if tracer is None:
                return inner(A2, B2)
            with tracer.span(
                "backend-stack", cat="backends", **span_args,
                shape=f"{tuple(A2.shape)}@{tuple(B2.shape)}",
            ):
                return inner(A2, B2)

        return randomized_matmul

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self._fn(A, B)  # type: ignore[no-any-return]

    @classmethod
    def from_config(cls, config: Any, engine: Any = None,
                    log: Any = None) -> "BackendStack":
        """Build the stack a resolved :class:`ExecutionConfig` asks for.

        The terminal backend is an
        :class:`~repro.core.engine.EngineBackend` over ``engine`` (the
        default engine when ``None``) with the guard and randomized
        knobs stripped — the stack owns them.
        """
        from repro.core.engine import EngineBackend, default_engine

        engine = engine if engine is not None else default_engine()
        return cls(EngineBackend(engine, config), config, log=log)

    def error_bound(self, inner_bound: float | None = None) -> float:
        """The §2.3 error budget callers of this stack may assume.

        ``inner_bound`` defaults to the terminal backend's own
        predicted bound when it can state one (a single ``algorithm``),
        else ``0.0`` (exact gemm).  The guard enforces the bound rather
        than changing it, and the signed permutation is exact, so only
        ``fault=`` moves it: ``perturb`` adds its magnitude,
        ``nan``/``inf``/``raise`` make it infinite, and ``stall`` is
        slow, not wrong.
        """
        bound = inner_bound
        if bound is None:
            bound = 0.0
            alg = getattr(self.target, "algorithm", None)
            if alg is not None and not isinstance(alg, (tuple, list)):
                from repro.algorithms.analysis import predicted_error_bound

                bound = predicted_error_bound(
                    alg, steps=int(getattr(self.target, "steps", 1) or 1))
        fault = self.config.fault
        if fault is None or fault.kind == "stall":
            return bound
        if fault.kind == "perturb":
            return bound + float(fault.magnitude)
        return float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BackendStack {self.name}>"
