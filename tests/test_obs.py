"""Tests for the observability layer: tracer, registry, exporters, CLI."""

from __future__ import annotations

import io
import json
import math
import threading

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.obs import metrics
from repro.obs.export import (
    chrome_trace,
    jsonl_records,
    render_prometheus,
    write_chrome_trace,
)
from repro.obs.registry import (
    MetricsRegistry,
    default_registry,
    reset_registry,
)
from repro.obs.tracer import Tracer, get_tracer, set_tracer, use_tracer
from repro.robustness.events import EventLog


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    assert get_tracer() is None
    yield
    set_tracer(None)


# ----------------------------------------------------------------------
# tracer: nesting, threads, lifecycle
# ----------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("mid") as mid:
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.parent_id is None
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        assert sibling.parent_id == outer.span_id
        # Finish order: innermost closes first.
        assert [s.name for s in tracer.spans] == [
            "inner", "mid", "sibling", "outer"]
        for s in tracer.spans:
            assert s.end is not None and s.end >= s.start

    def test_thread_attribution_and_independent_stacks(self):
        tracer = Tracer()
        done = threading.Barrier(3)

        def work(label: str) -> None:
            with tracer.span(f"root-{label}"):
                done.wait(timeout=10)  # both workers hold a span open
                with tracer.span(f"child-{label}"):
                    pass

        threads = [threading.Thread(target=work, args=(str(i),))
                   for i in range(2)]
        for t in threads:
            t.start()
        done.wait(timeout=10)
        for t in threads:
            t.join()

        spans = {s.name: s for s in tracer.spans}
        # Worker roots are roots: the *other* thread's open span must not
        # become their parent.
        assert spans["root-0"].parent_id is None
        assert spans["root-1"].parent_id is None
        assert spans["child-0"].parent_id == spans["root-0"].span_id
        assert spans["child-1"].parent_id == spans["root-1"].span_id
        assert spans["root-0"].tid != spans["root-1"].tid
        assert spans["child-0"].tid == spans["root-0"].tid

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.name == "doomed"
        assert span.end is not None
        # The stack unwound: a new span is again a root.
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None

    def test_use_tracer_installs_and_restores(self):
        outer = Tracer()
        with use_tracer(outer):
            assert get_tracer() is outer
            with use_tracer() as inner:  # fresh tracer when omitted
                assert isinstance(inner, Tracer)
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is None

    def test_instant_honors_explicit_timestamp(self):
        tracer = Tracer()
        inst = tracer.instant("stamped", t=123.25, origin="test")
        assert inst.t == 123.25
        assert tracer.instants[0].args["origin"] == "test"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(ValueError):
            reg.gauge("thing_total")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"][0.1] == 2
        assert snap["buckets"][1.0] == 3
        assert snap["buckets"][math.inf] == 4
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.6)
        assert snap["min"] == pytest.approx(0.05)
        assert snap["max"] == pytest.approx(5.0)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_thread_safety_under_shared_pool(self):
        """Concurrent inc() through the process worker pool loses nothing."""
        from repro.parallel.pool import get_pool

        reg = reset_registry()
        try:
            pool = get_pool(4)
            per_task, tasks = 500, 8

            def bump() -> None:
                for _ in range(per_task):
                    default_registry().counter(
                        "test_obs_pool_incs_total").inc()
                    default_registry().histogram(
                        "test_obs_pool_seconds").observe(0.001)

            futures = [pool.submit(bump) for _ in range(tasks)]
            for f in futures:
                f.result(timeout=30)
            assert reg.counter("test_obs_pool_incs_total").value \
                == per_task * tasks
            assert reg.histogram("test_obs_pool_seconds").count \
                == per_task * tasks
        finally:
            reset_registry()


# ----------------------------------------------------------------------
# EventLog timestamps + tracer forwarding
# ----------------------------------------------------------------------


class TestEventLog:
    def test_events_carry_monotonic_timestamps(self):
        log = EventLog()
        first = log.emit("residual", "test", "one")
        second = log.emit("fallback", "test", "two")
        assert second.t >= first.t
        explicit = log.emit("retry", "test", t=first.t)
        assert explicit.t == first.t

    def test_emit_forwards_to_active_tracer(self):
        log = EventLog()
        with use_tracer() as tracer:
            event = log.emit("residual", "backend", "detail", attempt=2)
        (inst,) = tracer.instants
        assert inst.name == "residual"
        assert inst.cat == "robustness"
        assert inst.t == event.t  # same clock reading, not re-stamped
        assert inst.args["source"] == "eventlog"
        assert inst.args["attempt"] == 2

    def test_no_forwarding_without_tracer(self):
        log = EventLog()
        log.emit("residual", "backend")  # must not raise
        assert len(log) == 1


class TestEventLogRing:
    def test_bounded_with_cumulative_dropped_counter(self):
        log = EventLog(cap=4)
        for i in range(10):
            log.emit("retry", "test", str(i))
        assert len(log) == 4 and log.cap == 4
        assert log.dropped == 6
        # oldest evicted, newest kept
        assert [ev.detail for ev in log] == ["6", "7", "8", "9"]

    def test_dropped_counter_lands_in_registry(self):
        from repro.obs.registry import default_registry, reset_registry

        reset_registry()
        try:
            log = EventLog(cap=2)
            for i in range(5):
                log.emit("retry", "test", str(i))
            value = default_registry().counter(
                "repro_eventlog_dropped_total",
                "Events evicted from bounded EventLog ring buffers.").value
            assert value == 3.0
        finally:
            reset_registry()

    def test_clear_keeps_cumulative_dropped(self):
        log = EventLog(cap=2)
        for i in range(3):
            log.emit("retry", "test", str(i))
        log.clear()
        assert len(log) == 0 and log.dropped == 1

    def test_wraparound_still_forwards_to_tracer(self):
        """The ring bounds *memory*, not the trace: every event reaches
        an active tracer even after eviction begins."""
        log = EventLog(cap=2)
        with use_tracer() as tracer:
            for i in range(6):
                log.emit("retry", "test", str(i))
        assert len(log) == 2
        assert len(tracer.instants) == 6

    def test_cap_validation(self):
        import pytest

        with pytest.raises(ValueError):
            EventLog(cap=0)


# ----------------------------------------------------------------------
# numerical invariance
# ----------------------------------------------------------------------


class TestInvariance:
    def test_tracer_leaves_apa_matmul_bit_identical(self, rng):
        alg = get_algorithm("bini322")
        A = rng.random((24, 24)).astype(np.float32)
        B = rng.random((24, 24)).astype(np.float32)
        plain = apa_matmul(A, B, alg)
        with use_tracer():
            traced = apa_matmul(A, B, alg)
        assert plain.dtype == traced.dtype
        assert np.array_equal(plain, traced)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


def _small_trace() -> tuple[Tracer, EventLog]:
    """A hand-built trace: nested spans, an instant, an offline log."""
    tracer = Tracer()
    with tracer.span("outer", cat="core", algorithm="bini322"):
        with tracer.span("inner", cat="parallel", mult=3):
            pass
        tracer.instant("plan-miss", cat="plan", shape="8x8x8")
    log = EventLog()  # filled with no tracer active -> pass via logs=
    log.emit("residual", "guard", "too big")
    return tracer, log


class TestChromeTrace:
    def test_schema(self):
        tracer, log = _small_trace()
        events = chrome_trace(tracer, logs=[log])
        json.dumps(events)  # serializable as-is
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        for e in events:
            assert isinstance(e["name"], str)
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            if e["ph"] == "M":
                assert e["name"] == "thread_name"
                continue
            assert e["ts"] >= 0.0
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
                assert isinstance(e["cat"], str)
            if e["ph"] == "i":
                assert e["s"] in ("t", "p", "g")
        ts = [e["ts"] for e in events if "ts" in e]
        assert ts == sorted(ts)

    def test_parent_and_log_merge(self):
        tracer, log = _small_trace()
        events = chrome_trace(tracer, logs=[log])
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner["args"]["parent_span"] == outer["id"]
        # The offline log's event landed as a process-scoped instant.
        residual = by_name["residual"]
        assert residual["ph"] == "i"
        assert residual["s"] == "p"
        assert residual["args"]["source"] == "eventlog"
        # Span ts are relative to the common origin: outer starts first.
        assert outer["ts"] <= inner["ts"]

    def test_write_chrome_trace_file(self, tmp_path):
        tracer, _ = _small_trace()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in data["traceEvents"])


class TestPrometheus:
    def test_full_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_guard_calls_total").inc(3)
        reg.gauge("repro_depth").set(2)
        reg.histogram("repro_step_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus({
            "registry": reg.snapshot(),
            "plan_cache": {"size": 1, "hits": 4},
        })
        assert "# TYPE repro_guard_calls_total counter" in text
        assert "repro_guard_calls_total 3.0" in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_step_seconds histogram" in text
        assert 'repro_step_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_step_seconds_count 1" in text
        assert "repro_plan_cache_hits 4" in text
        assert text.endswith("\n")

    def test_legacy_name_sanitization(self):
        text = render_prometheus({"registry": {},
                                  "plan_cache": {"hit-rate.pct": 99}})
        assert "repro_plan_cache_hit_rate_pct 99" in text


class TestJsonl:
    def test_records_time_sorted_and_tagged(self):
        tracer, log = _small_trace()
        records = jsonl_records(tracer, logs=[log])
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "instant", "event"}
        times = [r["t"] for r in records]
        assert times == sorted(times)
        buf = io.StringIO()
        from repro.obs.export import write_jsonl

        write_jsonl(buf, tracer, logs=[log])
        lines = [json.loads(line) for line in
                 buf.getvalue().strip().splitlines()]
        assert len(lines) == len(records)


# ----------------------------------------------------------------------
# unified metrics view
# ----------------------------------------------------------------------


class TestMetricsView:
    def test_absorbs_legacy_stat_apis(self):
        unified = metrics()
        assert set(unified) == {"registry", "plan_cache", "pool"}
        assert {"size", "hits", "misses"} <= set(unified["plan_cache"])
        assert {"threads", "creates", "resizes"} == set(unified["pool"])

    def test_guard_counters_reach_registry(self, rng):
        from repro.core.engine import ExecutionEngine

        reg = reset_registry()
        try:
            # A private engine: a fresh guard, so this is its first call.
            backend = ExecutionEngine().backend(algorithm="bini322",
                                                guarded=True)
            A = rng.random((24, 24)).astype(np.float32)
            B = rng.random((24, 24)).astype(np.float32)
            backend.matmul(A, B)
            assert reg.counter("repro_guard_calls_total").value == 1.0
        finally:
            reset_registry()


# ----------------------------------------------------------------------
# gantt overlay of timestamped events
# ----------------------------------------------------------------------


class TestGanttOverlay:
    def test_events_render_as_positioned_markers(self):
        from repro.parallel.executor import ExecutionReport, JobOutcome
        from repro.parallel.tracing import render_execution_gantt

        report = ExecutionReport()
        report.jobs.append(JobOutcome(mult=0, status="ok", attempts=1,
                                      start=10.0, end=11.0))
        report.jobs.append(JobOutcome(mult=1, status="retried", attempts=2,
                                      start=10.0, end=12.0))
        report.events.emit("retry", "mult 1", "attempt 2", t=11.0)
        text = render_execution_gantt(report, width=60)
        lines = text.splitlines()
        marker_lines = [ln for ln in lines if "^" in ln]
        assert len(marker_lines) == 1
        assert "@+  1.0000s" in marker_lines[0]
        assert "[retry]" in marker_lines[0]
        # The marker sits mid-bar: offset 1.0 of a 2.0s window.
        bar = marker_lines[0].split("|")[1]
        pos = bar.index("^") / len(bar)
        assert 0.3 < pos < 0.7

    def test_event_before_window_clamps_to_left_edge(self):
        from repro.parallel.executor import ExecutionReport, JobOutcome
        from repro.parallel.tracing import render_execution_gantt

        report = ExecutionReport()
        report.jobs.append(JobOutcome(mult=0, status="ok", attempts=1,
                                      start=10.0, end=11.0))
        report.events.emit("breaker-open", "guard", t=5.0)
        text = render_execution_gantt(report, width=60)
        (marker,) = [ln for ln in text.splitlines() if "^" in ln]
        assert marker.split("|")[1].index("^") == 0


# ----------------------------------------------------------------------
# CLI acceptance: repro trace / metrics / obs-overhead
# ----------------------------------------------------------------------


class TestCli:
    def test_trace_exports_full_timeline(self, tmp_path):
        from repro.cli import main

        out = io.StringIO()
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        rc = main(["trace", "--n", "32", "--out", str(trace_path),
                   "--jsonl", str(jsonl_path)], out=out)
        assert rc == 0
        data = json.loads(trace_path.read_text())
        events = data["traceEvents"]

        jobs = [e for e in events if e["name"] == "executor.job"]
        assert jobs, "threaded executor jobs missing from the trace"
        assert len({e["tid"] for e in jobs}) > 1  # several worker lanes

        plan_events = [e for e in events
                       if e["name"] in ("plan-miss", "plan-hit")]
        assert any(e["name"] == "plan-miss" for e in plan_events)
        assert any(e["name"] == "plan-hit" for e in plan_events)

        robustness = [e for e in events
                      if e.get("args", {}).get("source") == "eventlog"]
        assert robustness, "no EventLog-sourced robustness event"

        # Shared timebase: every record sits inside the span window.
        ts = [e["ts"] for e in events if "ts" in e]
        lo, hi = min(ts), max(ts)
        for e in robustness + plan_events:
            assert lo <= e["ts"] <= hi

        lines = jsonl_path.read_text().strip().splitlines()
        assert all(json.loads(ln) for ln in lines)

    def test_metrics_prom_and_json(self):
        from repro.cli import main

        out = io.StringIO()
        assert main(["metrics"], out=out) == 0
        assert "# TYPE repro_plan_cache_size gauge" in out.getvalue()

        out = io.StringIO()
        assert main(["metrics", "--format", "json"], out=out) == 0
        unified = json.loads(out.getvalue())
        assert set(unified) == {"registry", "plan_cache", "pool"}

    def test_obs_overhead_smoke(self):
        from repro.cli import main

        out = io.StringIO()
        # Tiny loop + permissive budget: checks the machinery, not perf.
        rc = main(["obs-overhead", "--n", "48", "--iters", "3",
                   "--repeats", "3", "--max-overhead", "10"], out=out)
        assert rc == 0
        assert "paired median" in out.getvalue()

    def test_obs_overhead_refuses_active_tracer(self):
        from repro.bench.obs_overhead import measure_obs_overhead

        with use_tracer():
            with pytest.raises(RuntimeError, match="tracer disabled"):
                measure_obs_overhead(n=16, iters=1, repeats=1)
