"""Unified observability: spans, metrics, trace export (one spine).

The runtime grew unrelated stat APIs (plan cache, worker pool) and an
event log with no clock; this package replaces that patchwork with one
instrumentation spine:

- :mod:`repro.obs.tracer` — structured spans + instants on the
  monotonic clock, thread-aware, nestable, **off by default** (the
  disabled cost of every span site is a single ``ACTIVE is None``
  branch);
- :mod:`repro.obs.registry` — process-wide counters/gauges/histograms;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, Prometheus
  text exposition, JSONL event stream (robustness events included).

:func:`metrics` is the one-call view: the registry snapshot plus the
legacy stat APIs (plan cache, pool) absorbed into one dict.  See
``docs/OBSERVABILITY.md`` for the span model, the metric name catalog,
and how to read the traces.
"""

from __future__ import annotations

from typing import Any

from repro.obs.export import (
    chrome_trace,
    jsonl_records,
    render_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_registry,
)
from repro.obs.tracer import (
    Instant,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Span", "Instant", "Tracer", "get_tracer", "set_tracer", "use_tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "default_registry", "reset_registry",
    "chrome_trace", "write_chrome_trace", "render_prometheus",
    "jsonl_records", "write_jsonl",
    "metrics",
]


def metrics() -> dict[str, Any]:
    """One snapshot of everything the process counts.

    Sections:

    - ``registry`` — every instrument in the default
      :class:`MetricsRegistry` (guard counters, training counters,
      span-site histograms — whatever instrumented code registered);
    - ``plan_cache`` — the process-default
      :class:`~repro.core.plan.PlanCache` ``stats()``
      (size/maxsize/hits/misses/evictions);
    - ``pool`` — :func:`repro.parallel.pool.pool_stats`
      (threads/creates/resizes).

    The legacy sections read the live structures at call time (imports
    are lazy so ``repro.obs`` stays dependency-free at import).
    """
    from repro.core.plan import default_plan_cache
    from repro.parallel.pool import pool_stats

    return {
        "registry": default_registry().snapshot(),
        "plan_cache": default_plan_cache().stats(),
        "pool": pool_stats(),
    }
