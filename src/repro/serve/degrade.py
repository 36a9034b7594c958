"""Pressure-driven graceful degradation: full APA → ... → shed.

:class:`~repro.backends.guard.GuardedBackend` escalates on *numerical*
evidence (a failed health check).  The serving layer needs the same
ladder shape driven by *load* evidence — queue depth and latency against
deadlines — because a saturated server that keeps answering slowly is
worse than one that answers faster with a looser (but still declared)
error budget.  The rungs, cheapest-exit last:

1. ``FULL`` — the request's admitted config, untouched.
2. ``REDUCED_STEPS`` — recursion depth clamped to one level: the error
   bound ``2^(-d·sigma/(sigma+phi))`` tightens *and* per-request work
   drops (fewer, larger gemms with better arithmetic intensity).
3. ``CLASSICAL`` — the trusted baseline ``np.matmul``, bypassing the
   request's gemm/fault seam entirely (same rung the guard falls back
   to, so a degraded answer is never a *wrong* answer).
4. ``SHED`` — sheddable requests are refused outright; non-sheddable
   ones still get the ``CLASSICAL`` rung.

Transitions use dual-threshold hysteresis (escalate after
``escalate_after`` consecutive pressure readings above the high water
mark, recover after ``recover_after`` consecutive calm readings below
the low water mark) so a single burst cannot flap the ladder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.config import ExecutionConfig
from repro.robustness.events import EventLog

__all__ = ["DegradationLevel", "LadderConfig", "DegradationLadder"]


class DegradationLevel(enum.IntEnum):
    """Ladder rungs, mildest first (ordering is meaningful)."""

    FULL = 0
    REDUCED_STEPS = 1
    CLASSICAL = 2
    SHED = 3


@dataclass(frozen=True)
class LadderConfig:
    """Thresholds and hysteresis for :class:`DegradationLadder`.

    ``high_water`` / ``low_water`` bound the *pressure* signal, defined
    per observation as ``max(queue_fill, deadline_ratio)`` where
    ``queue_fill`` is the admission queue's fill fraction and
    ``deadline_ratio`` is recent service latency over the class
    deadline (1.0 = deadlines exactly consumed).  The EWMA smooths the
    per-request noise before thresholding.
    """

    high_water: float = 0.85
    low_water: float = 0.40
    escalate_after: int = 3
    recover_after: int = 8
    ewma_alpha: float = 0.3

    def __post_init__(self) -> None:
        if not 0 < self.low_water < self.high_water:
            raise ValueError("need 0 < low_water < high_water")
        if self.escalate_after < 1 or self.recover_after < 1:
            raise ValueError("hysteresis counts must be >= 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")


class DegradationLadder:
    """Hysteresis state machine stepping one rung at a time.

    Not thread-safe by design: the server observes and applies it only
    from the event-loop thread (worker threads never touch it), so the
    ladder needs no lock — and the PAR001 lint family now scans
    ``serve/`` to keep it that way.
    """

    def __init__(self, config: LadderConfig | None = None,
                 log: EventLog | None = None) -> None:
        self.config = config or LadderConfig()
        self.log = log
        self.level = DegradationLevel.FULL
        self.pressure = 0.0
        self._hot = 0
        self._calm = 0

    def observe(self, queue_fill: float, deadline_ratio: float
                ) -> DegradationLevel:
        """Fold one load reading into the EWMA and maybe step the ladder."""
        cfg = self.config
        raw = max(queue_fill, deadline_ratio)
        self.pressure += cfg.ewma_alpha * (raw - self.pressure)
        if self.pressure >= cfg.high_water:
            self._hot += 1
            self._calm = 0
            if (self._hot >= cfg.escalate_after
                    and self.level < DegradationLevel.SHED):
                self._step(DegradationLevel(self.level + 1), "degrade")
                self._hot = 0
        elif self.pressure <= cfg.low_water:
            self._calm += 1
            self._hot = 0
            if (self._calm >= cfg.recover_after
                    and self.level > DegradationLevel.FULL):
                self._step(DegradationLevel(self.level - 1), "recover")
                self._calm = 0
        else:
            self._hot = 0
            self._calm = 0
        return self.level

    def _step(self, to: DegradationLevel, kind: str) -> None:
        detail = (f"{self.level.name} -> {to.name} "
                  f"(pressure {self.pressure:.2f})")
        self.level = to
        if self.log is not None:
            self.log.emit(kind, "ladder", detail)

    def apply(self, cfg: ExecutionConfig,
              level: DegradationLevel | None = None) -> ExecutionConfig:
        """Transform an admitted config for the given (or current) rung.

        ``SHED`` maps to the ``CLASSICAL`` transform here — shedding is
        an *admission* decision the server takes for sheddable requests
        before any config is executed; a non-sheddable request that
        reaches execution at SHED level still deserves its trusted
        answer.
        """
        level = self.level if level is None else level
        if level == DegradationLevel.FULL:
            return cfg
        if level == DegradationLevel.REDUCED_STEPS:
            if (cfg.steps or 1) > 1:
                return cfg.replace(steps=1)
            return cfg
        # CLASSICAL / SHED: trusted baseline, deliberately dropping the
        # request's gemm/fault seam — a degraded rung must not inherit
        # the very seam that may be poisoning the fast path.
        return ExecutionConfig()
