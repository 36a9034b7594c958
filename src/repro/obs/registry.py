"""Process-wide metrics registry: counters, gauges, histograms.

Before this module the runtime's counters lived behind unrelated stat
APIs — :meth:`repro.core.plan.PlanCache.stats` and
:func:`repro.parallel.pool.pool_stats` — plus ad-hoc attributes on
:class:`~repro.backends.guard.GuardedBackend`.  The registry gives
them one spine: components register named instruments once at import
time (cheap — an attribute read plus a lock-guarded add per update) and
:func:`repro.obs.metrics` absorbs the legacy stat APIs into the same
snapshot, so one call answers "what has this process been doing".

Metric names follow Prometheus conventions (``repro_`` prefix,
``_total`` suffix on counters); :func:`repro.obs.export.render_prometheus`
emits the standard text exposition format.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_registry", "reset_registry",
           "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds (seconds-oriented: 10 µs .. 10 s).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)


class Counter:
    """Monotonically increasing count (thread-safe)."""

    kind = "counter"
    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go both ways (thread-safe)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics, thread-safe).

    ``buckets`` are upper bounds; every observation lands in all buckets
    whose bound is >= the value, plus the implicit ``+Inf`` bucket.
    ``sum``/``count``/``min``/``max`` ride along for quick reading
    without quantile math.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_lock", "_counts",
                 "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("need at least one bucket bound")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> dict:
        with self._lock:
            cumulative = []
            running = 0
            for c in self._counts[:-1]:
                running += c
                cumulative.append(running)
            return {
                "buckets": {
                    **{bound: cum for bound, cum in
                       zip(self.buckets, cumulative)},
                    math.inf: self._count,
                },
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
            }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


class MetricsRegistry:
    """Named instruments, created once and shared (thread-safe).

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call registers, later calls return the same object — so modules can
    resolve their instruments at import time and hot paths touch only
    the instrument's own lock.  Re-registering a name as a different
    kind raises (one name, one meaning).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls: type, name: str, help: str,
                       **kwargs) -> Counter | Gauge | Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")  # type: ignore[attr-defined]
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """``{name: value-or-histogram-dict}`` for every instrument."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: m.snapshot() for m in
                sorted(metrics, key=lambda m: m.name)}

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)


# ----------------------------------------------------------------------
# the process-wide default registry
# ----------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT: MetricsRegistry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The registry the instrumented runtime modules share."""
    return _DEFAULT


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh default registry (tests); returns the new one.

    Modules that resolved instrument objects at import time keep
    updating their old (now unregistered) instruments until they
    re-resolve — the runtime modules therefore resolve lazily per
    update site or re-resolve via :func:`default_registry` each time.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = MetricsRegistry()
        return _DEFAULT
