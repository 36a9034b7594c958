"""Guarded matmul execution: health checks + escalation + circuit breaker.

This is the outer layer of :class:`repro.backends.stack.BackendStack`
(``guarded=True``); ``repro.robustness`` re-exports its public names.

An APA product is only *probably* accurate: a mis-tuned lambda, an
ill-conditioned operand, or a failed worker can push its error orders of
magnitude past the analytic bound without any exception being raised
(Malik & Becker 2021 motivate exactly this failure mode and the cheap
randomized probes that detect it).  :class:`GuardedBackend` wraps any
:class:`~repro.core.backend.MatmulBackend` with two O(n^2) per-call
health checks —

- a NaN/Inf scan of the output, and
- a randomized residual probe ``||C_hat x - A (B x)|| / (||A|| ||B|| ||x||)``
  compared against a small multiple of the algorithm's predicted error
  bound (:func:`repro.algorithms.analysis.predicted_error_bound`) —

and, on violation, escalates through the
:class:`~repro.robustness.policy.EscalationPolicy` ladder: re-tune lambda
(:func:`repro.core.lam.tune_lambda`), reduce recursion depth one level at
a time, and finally recompute with classical gemm.  Recovery settings
that pass the health check are written back into the wrapped backend, so
one bad call fixes the configuration for all subsequent ones.  A
per-(algorithm, shape-class) circuit breaker disables a chronically
failing fast path after ``strikes_to_open`` violations and re-probes it
after ``cooldown_calls`` skipped calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backend import ClassicalBackend, MatmulBackend
from repro.core.lam import level_class, working_bits
from repro.obs.registry import default_registry
from repro.robustness.events import EventLog
from repro.robustness.policy import CircuitBreaker, EscalationPolicy, shape_class

__all__ = ["HealthReport", "check_product", "residual_probe", "GuardedBackend"]


def _count(name: str) -> None:
    """Bump a process-wide guard counter (``repro.obs.metrics()`` view).

    Resolved through :func:`~repro.obs.registry.default_registry` per
    call so tests that swap the registry see fresh counters; the lookup
    is a dict get under a lock — noise next to a guarded product.
    """
    default_registry().counter(
        name, help="guard-rail action count (see docs/OBSERVABILITY.md)"
    ).inc()


@dataclass(frozen=True)
class HealthReport:
    """Outcome of one per-call health check."""

    finite: bool
    residual: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.finite and self.residual <= self.threshold

    @property
    def reason(self) -> str:
        if not self.finite:
            return "nonfinite"
        if self.residual > self.threshold:
            return "residual"
        return "ok"


def residual_probe(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    rng: np.random.Generator,
    vectors: int = 1,
) -> float:
    """Max relative residual of ``C ~= A @ B`` over random probe vectors.

    Each probe costs three matrix-vector products (O(n^2)) instead of a
    full O(n^3) reference multiply: ``r = ||C x - A (B x)||`` scaled by
    ``||A||_F ||B||_F ||x||``, the normwise backward-error yardstick.
    """
    if vectors < 1:
        return 0.0
    denom_mats = float(np.linalg.norm(A) * np.linalg.norm(B))
    if denom_mats == 0.0:
        return 0.0
    worst = 0.0
    for _ in range(vectors):
        # Probe in the operand dtype: a float64 vector would silently
        # promote every matvec to float64 and triple the probe cost.
        x = rng.standard_normal(B.shape[1]).astype(C.dtype, copy=False)
        r = float(np.linalg.norm(C @ x - A @ (B @ x)))
        denom = denom_mats * float(np.linalg.norm(x))
        if denom > 0:
            worst = max(worst, r / denom)
    return worst


def check_product(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    threshold: float,
    rng: np.random.Generator,
    vectors: int = 1,
) -> HealthReport:
    """Run the cheap health checks on one computed product."""
    finite = bool(np.isfinite(C).all())
    residual = np.inf
    if finite:
        residual = residual_probe(A, B, C, rng, vectors=vectors)
    return HealthReport(finite=finite, residual=residual, threshold=threshold)


class GuardedBackend:
    """A :class:`MatmulBackend` that fails soft instead of silently.

    Parameters
    ----------
    inner:
        The backend to guard (typically an
        :class:`~repro.core.engine.EngineBackend`; any backend satisfying
        the protocol works, with the lambda/steps escalation rungs
        skipped when the backend has no such knobs).
    policy:
        :class:`EscalationPolicy` knobs; defaults are sensible.
    fallback:
        Backend used when everything else fails and while the circuit
        breaker is open.  Defaults to a fresh
        :class:`~repro.core.backend.ClassicalBackend`.
    log:
        Shared :class:`EventLog`; pass one in to aggregate events across
        several guarded backends (e.g. all layers of a network).
    rng_seed:
        Seed of the probe-vector stream — guards are deterministic.
    """

    def __init__(
        self,
        inner: MatmulBackend,
        policy: EscalationPolicy | None = None,
        fallback: MatmulBackend | None = None,
        log: EventLog | None = None,
        rng_seed: int = 0,
    ) -> None:
        self.inner = inner
        self.policy = policy or EscalationPolicy()
        self.fallback = fallback or ClassicalBackend()
        # `log or EventLog()` would discard a passed-in *empty* log
        # (EventLog defines __len__, so an empty one is falsy).
        self.log = log if log is not None else EventLog()
        self.breaker = CircuitBreaker(
            strikes_to_open=self.policy.strikes_to_open,
            cooldown_calls=self.policy.cooldown_calls,
        )
        self.name = f"guarded:{inner.name}"
        self._rng = np.random.default_rng(rng_seed)
        self.calls = 0
        self.violations = 0
        self.fallback_calls = 0
        self.denied_calls = 0

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------

    @property
    def _algorithm(self):
        alg = getattr(self.inner, "algorithm", None)
        if isinstance(alg, (tuple, list)):
            # Non-stationary level lists have no single lambda/steps
            # knob to escalate on; rungs 1–2 are skipped and escalation
            # goes straight to the classical fallback.
            return None
        return alg

    def _steps(self) -> int:
        return int(getattr(self.inner, "steps", 1))

    def _threshold(self, inner_dim: int, d: int, steps: int) -> float:
        from repro.algorithms.analysis import predicted_error_bound

        alg = getattr(self.inner, "algorithm", None)
        if isinstance(alg, (tuple, list)):
            # Non-stationary recursion compounds like one rule with the
            # combined class the engine's lambda optimum uses.
            sigma, phi = level_class(alg)
            bound = inner_dim * 2.0 ** -d
            if phi and sigma:
                bound = max(2.0 ** (-d * sigma / (sigma + phi)), bound)
            return self.policy.bound_factor * bound
        bound = predicted_error_bound(
            self._algorithm, d=d, steps=steps, inner_dim=inner_dim
        )
        return self.policy.bound_factor * bound

    # ------------------------------------------------------------------
    # the guarded call
    # ------------------------------------------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        self.calls += 1
        _count("repro_guard_calls_total")
        key = (self.inner.name, shape_class(A.shape[0], A.shape[1], B.shape[1]))

        was_open = self.breaker.is_open(key)
        if not self.breaker.allow(key):
            self.denied_calls += 1
            self.fallback_calls += 1
            _count("repro_guard_denied_calls_total")
            return self.fallback.matmul(A, B)
        if was_open:
            self.log.emit("breaker-probe", self.name,
                          f"half-open probe for {key[1]}")

        d = working_bits(np.result_type(A.dtype, B.dtype))
        steps = self._steps()
        threshold = self._threshold(A.shape[1], d, steps)

        try:
            C = self.inner.matmul(A, B)
        except Exception as exc:  # fast path died outright — escalate
            self.violations += 1
            _count("repro_guard_violations_total")
            self.log.emit("exception", self.name,
                          f"{type(exc).__name__}: {exc}")
            if self.breaker.record_failure(key):
                _count("repro_guard_breaker_opens_total")
                self.log.emit(
                    "breaker-open", self.name,
                    f"{self.policy.strikes_to_open} strikes on {key[1]}; "
                    f"disabling for {self.policy.cooldown_calls} calls")
            return self._escalate(A, B, key, d, threshold)
        health = check_product(A, B, C, threshold, self._rng,
                               vectors=self.policy.probe_vectors)
        if health.ok:
            if self.breaker.record_success(key):
                self.log.emit("breaker-close", self.name,
                              f"probe healthy; re-enabling {key[1]}")
            return C

        # Input scan runs only on the (rare) violation path: garbage in,
        # garbage out is not the backend's fault — no strike, no
        # escalation, just a flag for the caller's own guards.
        if self.policy.check_inputs and not (
            np.isfinite(A).all() and np.isfinite(B).all()
        ):
            self.log.emit("input-nonfinite", self.name,
                          "operands contain NaN/Inf; health checks waived")
            return C

        self.violations += 1
        _count("repro_guard_violations_total")
        self.log.emit(health.reason, self.name,
                      f"residual {health.residual:.2e} vs "
                      f"threshold {threshold:.2e} on {key[1]}")
        if self.breaker.record_failure(key):
            _count("repro_guard_breaker_opens_total")
            self.log.emit(
                "breaker-open", self.name,
                f"{self.policy.strikes_to_open} strikes on {key[1]}; "
                f"disabling for {self.policy.cooldown_calls} calls")
        return self._escalate(A, B, key, d, threshold)

    # ------------------------------------------------------------------
    # escalation ladder
    # ------------------------------------------------------------------

    def _recompute(self, A: np.ndarray, B: np.ndarray, lam: float | None,
                   steps: int) -> np.ndarray | None:
        """Re-run the wrapped algorithm with altered knobs; None on error."""
        from repro.core.apa_matmul import apa_matmul

        try:
            return apa_matmul(
                A, B, self._algorithm, lam=lam, steps=steps,
                gemm=getattr(self.inner, "gemm", None),
            )
        except Exception:
            return None

    def _escalate(self, A: np.ndarray, B: np.ndarray,
                  key: tuple[str, str], d: int,
                  threshold: float) -> np.ndarray:
        algorithm = self._algorithm
        steps = self._steps()

        # Rung 1: re-tune lambda (APA algorithms only — exact rules and
        # plain backends have no lambda to tune).
        if (self.policy.retune_lambda and algorithm is not None
                and not algorithm.is_surrogate and algorithm.is_apa):
            from repro.core.lam import tune_lambda

            lam_new, _ = tune_lambda(
                algorithm, n=min(128, A.shape[1]), d=d, steps=steps,
                dtype=np.result_type(A.dtype, B.dtype),
            )
            C = self._recompute(A, B, lam_new, steps)
            if C is not None:
                health = check_product(A, B, C, threshold, self._rng,
                                       vectors=max(1, self.policy.probe_vectors))
                if health.ok:
                    self.inner.lam = lam_new
                    self.log.emit("retune", self.name,
                                  f"lambda -> {lam_new:.2e} recovered {key[1]}")
                    return C

        # Rung 2: peel recursion levels — each removed level removes phi
        # from the roundoff exponent.
        if self.policy.reduce_steps and algorithm is not None and steps > 1:
            from repro.algorithms.analysis import predicted_error_bound

            for s in range(steps - 1, 0, -1):
                if algorithm.is_surrogate:
                    break
                bound_s = self.policy.bound_factor * predicted_error_bound(
                    algorithm, d=d, steps=s, inner_dim=A.shape[1])
                C = self._recompute(A, B, getattr(self.inner, "lam", None), s)
                if C is None:
                    continue
                health = check_product(A, B, C, bound_s, self._rng,
                                       vectors=max(1, self.policy.probe_vectors))
                if health.ok:
                    self.inner.steps = s
                    self.log.emit("reduce-steps", self.name,
                                  f"steps -> {s} recovered {key[1]}")
                    return C

        # Rung 3: classical gemm — always available, always last.
        self.fallback_calls += 1
        _count("repro_guard_fallback_calls_total")
        C = self.fallback.matmul(A, B)
        self.log.emit("fallback", self.name,
                      f"classical gemm used for {key[1]}")
        if not np.isfinite(C).all():  # pragma: no cover - catastrophic
            self.log.emit("nonfinite", self.fallback.name,
                          "classical fallback produced NaN/Inf")
        return C
