"""Structured events emitted by the guarded-execution stack.

Every guard rail in the runtime — the :class:`~repro.backends.guard.
GuardedBackend` health checks, the hardened executor's per-job recovery,
and the training-loop :class:`~repro.robustness.divergence.DivergenceGuard`
— reports what it did through the same small record type, so callers can
log, count, or render them uniformly (the executor's events feed the
Gantt view in :mod:`repro.parallel.tracing`).

Every event carries a monotonic timestamp ``t`` (``time.perf_counter``,
the same clock :mod:`repro.obs.tracer` spans use), so guard actions can
be ordered against execution spans on one timeline; when a tracer is
active, :meth:`EventLog.emit` additionally forwards the event to it as
an instant, which is how robustness events land in the Chrome trace and
JSONL exports without any extra plumbing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs import tracer as _obs_tracer
from repro.obs.registry import default_registry

__all__ = ["RobustnessEvent", "EventLog"]


@dataclass(frozen=True)
class RobustnessEvent:
    """One guard-rail action.

    ``kind`` is a short machine-readable tag:

    - health checks: ``nonfinite``, ``residual``,
    - escalation actions: ``retune``, ``reduce-steps``, ``fallback``,
    - circuit breaker: ``breaker-open``, ``breaker-probe``,
      ``breaker-close``,
    - executor recovery: ``worker-error``, ``worker-nonfinite``,
      ``worker-timeout``, ``retry``, ``backoff``, ``job-fallback``,
    - serving layer: ``admit``, ``shed``, ``degrade``, ``recover``,
    - plan engine: ``plan-miss``, ``plan-evict``,
    - training: ``divergence``, ``rollback``, ``downgrade``.

    ``where`` locates the event (backend name, ``mult 3``, ``epoch 7``),
    ``detail`` carries a human-readable explanation, and ``t`` is the
    ``time.perf_counter`` reading at emission (default-filled, so
    pre-existing construction sites keep working unchanged).
    """

    kind: str
    where: str
    detail: str = ""
    attempt: int = 0
    t: float = field(default_factory=time.perf_counter)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tail = f" (attempt {self.attempt})" if self.attempt else ""
        return f"[{self.kind}] {self.where}: {self.detail}{tail}"


class EventLog:
    """Bounded ring-buffer event sink shared by the guard components.

    Long-running processes (the :mod:`repro.serve` server above all)
    emit guard events indefinitely; an unbounded list is a slow memory
    leak.  The log therefore keeps only the most recent ``cap`` events
    (oldest evicted first) and counts evictions in ``dropped``, which is
    also surfaced process-wide as the ``repro_eventlog_dropped_total``
    counter in :func:`repro.obs.metrics`.  Eviction never loses the
    trace-export copy: when a tracer is active every event is forwarded
    at emission time, before any ring-buffer wraparound.

    ``emit`` is safe to call from concurrent worker threads (the
    executor and the serve pool both do): appends and the dropped
    counter are guarded by an internal lock.
    """

    #: Default ring capacity — generous for test runs, bounded for soaks.
    DEFAULT_CAP = 1024

    def __init__(self, events: "list[RobustnessEvent] | None" = None,
                 cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.events: deque[RobustnessEvent] = deque(events or (), maxlen=cap)
        self.dropped = 0
        self._lock = threading.Lock()

    def emit(self, kind: str, where: str, detail: str = "",
             attempt: int = 0, t: float | None = None) -> RobustnessEvent:
        event = RobustnessEvent(
            kind=kind, where=where, detail=detail, attempt=attempt,
            **({} if t is None else {"t": t}))
        with self._lock:
            evicting = len(self.events) == self.cap
            self.events.append(event)
            if evicting:
                self.dropped += 1
        if evicting:
            default_registry().counter(
                "repro_eventlog_dropped_total",
                "Events evicted from ring-buffer EventLogs (process-wide).",
            ).inc()
        tracer = _obs_tracer.ACTIVE
        if tracer is not None:
            tracer.instant(kind, cat="robustness", t=event.t, where=where,
                           detail=detail, attempt=attempt, source="eventlog")
        return event

    def of_kind(self, kind: str) -> list[RobustnessEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.of_kind(kind))

    def clear(self) -> None:
        """Drop buffered events (``dropped`` stays cumulative)."""
        with self._lock:
            self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
