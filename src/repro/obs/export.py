"""Exporters: Chrome/Perfetto trace JSON, Prometheus text, JSONL stream.

All three read the same records — a :class:`~repro.obs.tracer.Tracer`'s
spans and instants, optionally merged with
:class:`~repro.robustness.events.EventLog` entries — and differ only in
destination:

- :func:`chrome_trace` / :func:`write_chrome_trace` emit the Trace Event
  Format (``ph: "X"`` complete events for spans, ``ph: "i"`` instants),
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev;
- :func:`render_prometheus` emits the text exposition format for the
  unified :func:`repro.obs.metrics` snapshot;
- :func:`jsonl_records` / :func:`write_jsonl` emit one JSON object per
  record, time-sorted — the greppable form of the same timeline.

Timestamps: spans, instants, and robustness events are all stamped with
``time.perf_counter`` (see the tracer and ``EventLog``), so they share
one timebase; the Chrome export shifts everything to a zero origin and
scales to microseconds as the format requires.

When a tracer is active, ``EventLog.emit`` already forwards each
robustness event to it as an instant — pass ``logs=`` only for event
logs that were filled while no tracer was installed, otherwise the
events would appear twice.
"""

from __future__ import annotations

import json
import math
import threading
from typing import IO, Any, Iterable

from repro.obs.tracer import Tracer

__all__ = ["chrome_trace", "write_chrome_trace", "render_prometheus",
           "jsonl_records", "write_jsonl"]


def _event_records(logs: Iterable) -> list[dict[str, Any]]:
    """Normalize EventLog entries to instant records (duck-typed: any
    iterable of objects with kind/where/detail/attempt/t works)."""
    records = []
    for log in logs:
        for e in log:
            records.append({
                "name": e.kind, "cat": "robustness", "t": e.t,
                "args": {"where": e.where, "detail": e.detail,
                         "attempt": e.attempt, "source": "eventlog"},
            })
    return records


def chrome_trace(tracer: Tracer, logs: Iterable = (),
                 origin: float | None = None) -> list[dict[str, Any]]:
    """The trace as a list of Trace Event Format dicts.

    Spans become complete events (``ph: "X"``, per-thread lanes keyed on
    the recording thread's ident); tracer instants and ``logs``' events
    become instant events (``ph: "i"``) with thread scope, or process
    scope for records that carry no thread.  ``origin`` (a
    ``perf_counter`` reading) overrides the automatic zero point.
    """
    spans = tracer.spans
    instants = tracer.instants
    extra = _event_records(logs)

    times = ([s.start for s in spans] + [i.t for i in instants]
             + [r["t"] for r in extra])
    if origin is None:
        origin = min(times) if times else 0.0

    def us(t: float) -> float:
        return (t - origin) * 1e6

    events: list[dict[str, Any]] = []
    pid = tracer.pid
    tids = sorted({s.tid for s in spans} | {i.tid for i in instants})
    for lane, tid in enumerate(tids):
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": f"thread-{lane}"},
        })
    for s in spans:
        args = dict(s.args)
        if s.parent_id is not None:
            args["parent_span"] = s.parent_id
        events.append({
            "ph": "X", "name": s.name, "cat": s.cat, "pid": pid,
            "tid": s.tid, "ts": us(s.start),
            "dur": us(s.end if s.end is not None else s.start) - us(s.start),
            "id": s.span_id, "args": args,
        })
    for i in instants:
        events.append({
            "ph": "i", "name": i.name, "cat": i.cat, "pid": pid,
            "tid": i.tid, "ts": us(i.t), "s": "t", "args": dict(i.args),
        })
    for r in extra:
        events.append({
            "ph": "i", "name": r["name"], "cat": r["cat"], "pid": pid,
            "tid": 0, "ts": us(r["t"]), "s": "p", "args": r["args"],
        })
    events.sort(key=lambda e: e.get("ts", -1.0))
    return events


def write_chrome_trace(path: str, tracer: Tracer,
                       logs: Iterable = ()) -> str:
    """Write a ``chrome://tracing``-loadable JSON file; returns ``path``."""
    payload = {
        "traceEvents": chrome_trace(tracer, logs=logs),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=None, default=_json_default)
    return path


def _json_default(value: Any) -> Any:
    """Last-resort JSON coercion (numpy scalars in span args)."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _prom_name(section: str, key: str) -> str:
    name = f"repro_{section}_{key}" if section else key
    return name.replace("-", "_").replace(".", "_")


def render_prometheus(unified: dict[str, Any]) -> str:
    """Text exposition of the :func:`repro.obs.metrics` snapshot.

    The ``registry`` section renders with full counter/gauge/histogram
    typing; the absorbed legacy sections (``plan_cache``, ``pool``)
    render as gauges named ``repro_<section>_<key>``.
    """
    lines: list[str] = []
    registry = unified.get("registry", {})
    for name, value in registry.items():
        if isinstance(value, dict):  # histogram
            lines.append(f"# TYPE {name} histogram")
            for bound, cum in value["buckets"].items():
                le = "+Inf" if math.isinf(bound) else repr(float(bound))
                lines.append(f'{name}_bucket{{le="{le}"}} {cum}')
            lines.append(f"{name}_sum {value['sum']}")
            lines.append(f"{name}_count {value['count']}")
        else:
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {value}")
    for section, stats in unified.items():
        if section == "registry":
            continue
        for key, value in stats.items():
            name = _prom_name(section, key)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSONL event stream
# ----------------------------------------------------------------------

def jsonl_records(tracer: Tracer, logs: Iterable = ()) -> list[dict[str, Any]]:
    """Every span, instant, and event as one flat dict, time-sorted.

    Record kinds: ``span`` (with ``t``/``dur``/``tid``/``parent``),
    ``instant``, and ``event`` (EventLog-sourced).  ``t`` stays in raw
    ``perf_counter`` seconds so streams from the same process merge.
    """
    records: list[dict[str, Any]] = []
    for s in tracer.spans:
        records.append({
            "kind": "span", "name": s.name, "cat": s.cat, "t": s.start,
            "dur": s.duration, "tid": s.tid, "span_id": s.span_id,
            "parent": s.parent_id, "args": dict(s.args),
        })
    for i in tracer.instants:
        records.append({
            "kind": "instant", "name": i.name, "cat": i.cat, "t": i.t,
            "tid": i.tid, "args": dict(i.args),
        })
    for r in _event_records(logs):
        records.append({
            "kind": "event", "name": r["name"], "cat": r["cat"],
            "t": r["t"], "args": r["args"],
        })
    records.sort(key=lambda r: r["t"])
    return records


def write_jsonl(path_or_file: str | IO[str], tracer: Tracer,
                logs: Iterable = ()) -> None:
    """Write :func:`jsonl_records` one JSON object per line."""
    records = jsonl_records(tracer, logs=logs)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write_lines(fh, records)
    else:
        _write_lines(path_or_file, records)


_WRITE_LOCK = threading.Lock()


def _write_lines(fh: IO[str], records: list[dict[str, Any]]) -> None:
    with _WRITE_LOCK:
        for record in records:
            fh.write(json.dumps(record, default=_json_default) + "\n")
