"""Escalation policy and circuit breaker for guarded execution.

The :class:`~repro.backends.guard.GuardedBackend` reacts to a failed
health check by escalating through increasingly drastic (and increasingly
reliable) recovery actions; :class:`EscalationPolicy` holds the knobs.
A per-(algorithm, shape-class) :class:`CircuitBreaker` remembers chronic
failures so a backend that keeps producing bad products on a shape class
is disabled outright — classical gemm is used without even attempting the
fast path — and re-probed after a cool-down, the standard half-open
breaker protocol.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

__all__ = ["EscalationPolicy", "CircuitBreaker", "BreakerState", "shape_class"]


def shape_class(m: int, n: int, k: int) -> str:
    """Bucket a product shape by rounding each dim up to a power of two.

    Health is tracked per shape *class* rather than exact shape: a rule
    that misbehaves on 1000x1000 products almost certainly misbehaves on
    1024x1024 ones, and per-exact-shape counters would never accumulate
    strikes under ragged workloads.
    """
    def bucket(x: int) -> int:
        return 1 if x <= 1 else 2 ** math.ceil(math.log2(x))

    return f"{bucket(m)}x{bucket(n)}x{bucket(k)}"


@dataclass(frozen=True)
class EscalationPolicy:
    """Knobs for the guard's reaction ladder.

    On a failed health check the guard walks, in order, every enabled
    rung: re-tune lambda (``retune_lambda``), reduce the recursion depth
    one level at a time (``reduce_steps``), and finally recompute with
    classical gemm (always enabled — the ladder cannot fall off the end).

    ``bound_factor`` scales the algorithm's predicted error bound into an
    acceptance threshold for the residual probe: measured error sits a
    small constant below the bound (paper Fig 1), so a violation by more
    than this factor signals a genuinely broken product rather than an
    unlucky constant.
    """

    retune_lambda: bool = True
    reduce_steps: bool = True
    bound_factor: float = 64.0
    probe_vectors: int = 1
    check_inputs: bool = True
    strikes_to_open: int = 3
    cooldown_calls: int = 32

    def __post_init__(self) -> None:
        if self.bound_factor <= 0:
            raise ValueError("bound_factor must be positive")
        if self.probe_vectors < 0:
            raise ValueError("probe_vectors must be >= 0")
        if self.strikes_to_open < 1:
            raise ValueError("strikes_to_open must be >= 1")
        if self.cooldown_calls < 1:
            raise ValueError("cooldown_calls must be >= 1")


@dataclass
class BreakerState:
    """Strike/cool-down counters for one (algorithm, shape-class) key."""

    strikes: int = 0
    open: bool = False
    calls_since_open: int = 0

    def record_failure(self, strikes_to_open: int) -> bool:
        """Count a strike; returns True when this strike opens the breaker."""
        self.strikes += 1
        if not self.open and self.strikes >= strikes_to_open:
            self.open = True
            self.calls_since_open = 0
            return True
        return False

    def record_success(self) -> None:
        self.strikes = 0


@dataclass
class CircuitBreaker:
    """Per-(algorithm, shape-class) chronic-failure tracker.

    ``allow(key)`` answers "may the fast path run for this product?":
    closed breakers always allow; open breakers deny until
    ``cooldown_calls`` denials have passed, then allow exactly one probe
    call (half-open).  The probe's outcome either closes the breaker
    (``record_success``) or re-opens it for another cool-down
    (``record_failure``).

    All methods are thread-safe: the serving layer hammers one breaker
    from many worker threads, and the half-open protocol is only correct
    if exactly one of N racing ``allow`` calls wins the probe slot.  A
    single internal lock covers every state transition (the critical
    sections are a few integer updates, far below contention range).
    """

    strikes_to_open: int = 3
    cooldown_calls: int = 32
    _states: dict[tuple[str, str], BreakerState] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def _state(self, key: tuple[str, str]) -> BreakerState:
        if key not in self._states:
            self._states[key] = BreakerState()
        return self._states[key]

    def is_open(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return self._state(key).open

    def allow(self, key: tuple[str, str]) -> bool:
        with self._lock:
            state = self._state(key)
            if not state.open:
                return True
            state.calls_since_open += 1
            if state.calls_since_open > self.cooldown_calls:
                # half-open: let one probe call through
                state.calls_since_open = 0
                return True
            return False

    def record_failure(self, key: tuple[str, str]) -> bool:
        """Returns True when this failure newly opens the breaker."""
        with self._lock:
            state = self._state(key)
            if state.open:
                # failed half-open probe: restart the cool-down
                state.calls_since_open = 0
                return False
            return state.record_failure(self.strikes_to_open)

    def record_success(self, key: tuple[str, str]) -> bool:
        """Returns True when a half-open probe closes the breaker."""
        with self._lock:
            state = self._state(key)
            if state.open:
                self._states[key] = BreakerState()
                return True
            state.record_success()
            return False

    def open_keys(self) -> list[tuple[str, str]]:
        with self._lock:
            return [k for k, s in self._states.items() if s.open]

    def snapshot(self) -> dict[str, dict[str, int | bool]]:
        """Consistent per-key state view for metrics/debugging."""
        with self._lock:
            return {
                f"{alg}|{shape}": {"open": s.open, "strikes": s.strikes,
                                   "calls_since_open": s.calls_since_open}
                for (alg, shape), s in self._states.items()
            }
