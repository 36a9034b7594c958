"""Execution traces of fast-matmul schedules (Fig-2 with a time axis).

:func:`trace_schedule` prices every job of a schedule individually with
the machine model and lays the phases out on a wall-clock axis, producing
the data of a Gantt chart: per-job ``(multiplication, threads, start,
end)`` plus the bandwidth-bound combination intervals.  The total equals
:func:`repro.parallel.simulator.simulate_fast` by construction (asserted
in the tests), so the trace is a faithful decomposition of the simulated
time, useful for understanding *why* a strategy wins (e.g. the 12-thread
remainder products dominating the hybrid timeline of ``<4,4,4>``).

:func:`render_gantt` draws it as ASCII art.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.linalg.blocking import required_padding
from repro.machine.bandwidth import BandwidthModel
from repro.machine.gemm_model import GemmModel
from repro.machine.spec import MachineSpec, paper_machine
from repro.parallel.strategy import build_schedule

__all__ = ["JobSpan", "ScheduleTrace", "trace_schedule", "render_gantt",
           "render_execution_gantt"]


@dataclass(frozen=True)
class JobSpan:
    """One traced interval: a sub-multiplication or a combination pass."""

    label: str
    kind: str  # 'combine-in' | 'mult' | 'combine-out'
    threads: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ScheduleTrace:
    algorithm: str
    threads: int
    strategy: str
    spans: tuple[JobSpan, ...]

    @property
    def total(self) -> float:
        return max(span.end for span in self.spans)

    def by_kind(self, kind: str) -> list[JobSpan]:
        return [s for s in self.spans if s.kind == kind]


def trace_schedule(
    algorithm,
    M: int,
    N: int,
    K: int,
    threads: int = 1,
    strategy: str = "hybrid",
    spec: MachineSpec | None = None,
    dtype_bytes: int = 4,
) -> ScheduleTrace:
    """Trace one recursive step of ``algorithm`` on the machine model.

    The layout mirrors the simulator exactly: the input combinations
    stream first, then the schedule's phases in order (each phase's wall
    time is its slowest job), then the output combinations.
    """
    spec = spec or paper_machine()
    gemm = GemmModel(spec)
    bw = BandwidthModel(spec)
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    r = algorithm.rank
    schedule = build_schedule(r, threads, strategy)

    bm = required_padding(M, m) // m
    bn = required_padding(N, n) // n
    bk = required_padding(K, k) // k

    nnz_u, nnz_v, nnz_w = algorithm.nnz()
    bytes_a = bm * bn * dtype_bytes
    bytes_b = bn * bk * dtype_bytes
    bytes_c = bm * bk * dtype_bytes

    spans: list[JobSpan] = []
    clock = 0.0

    t_in = bw.time((nnz_u + r) * bytes_a + (nnz_v + r) * bytes_b, threads)
    spans.append(JobSpan("linear combinations (S_i, T_i)", "combine-in",
                         threads, clock, clock + t_in))
    clock += t_in

    for phase in schedule.phases:
        c = phase.concurrency
        durations = {
            mult: gemm.time(bm, bn, bk, threads=t, concurrent=c)
            for mult, t in phase.jobs
        }
        wall = max(durations.values())
        for mult, t in phase.jobs:
            spans.append(JobSpan(f"M{mult + 1}", "mult", t,
                                 clock, clock + durations[mult]))
        clock += wall

    t_out = bw.time((nnz_w + m * k) * bytes_c, threads)
    spans.append(JobSpan("output combinations (C_q)", "combine-out",
                         threads, clock, clock + t_out))

    return ScheduleTrace(algorithm=algorithm.name, threads=threads,
                         strategy=schedule.strategy, spans=tuple(spans))


def render_gantt(trace: ScheduleTrace, width: int = 72) -> str:
    """ASCII Gantt chart of a trace (one row per span)."""
    if width < 20:
        raise ValueError("width too small to render")
    total = trace.total
    lines = [
        f"{trace.algorithm} on {trace.threads} threads "
        f"({trace.strategy}): {total:.4f}s"
    ]
    label_w = max(len(s.label) for s in trace.spans) + 2
    bar_w = max(10, width - label_w - 12)
    for span in trace.spans:
        lo = int(round(span.start / total * bar_w))
        hi = max(lo + 1, int(round(span.end / total * bar_w)))
        bar = " " * lo + "#" * (hi - lo)
        lines.append(
            f"{span.label:<{label_w}}|{bar:<{bar_w}}| "
            f"{span.duration:8.4f}s x{span.threads}"
        )
    return "\n".join(lines)


_STATUS_GLYPH = {"ok": "#", "retried": "~", "fallback": "!",
                 "timeout-fallback": "X"}


def render_execution_gantt(report, width: int = 72) -> str:
    """ASCII Gantt of a *real* threaded run, failures highlighted.

    ``report`` is the :class:`~repro.parallel.executor.ExecutionReport`
    filled in by ``engine.matmul(..., report=...)``.  Healthy jobs
    draw with ``#``; retried jobs with ``~``; jobs recovered by the
    classical fallback with ``!``; timed-out jobs with ``X``.  Recovery
    events carry a monotonic timestamp on the same clock as the job
    spans, so each is overlaid as a ``^`` marker row at its position on
    the timeline (clamped to the chart for events stamped at the very
    edges), followed by its offset from the first job's start.
    """
    if width < 20:
        raise ValueError("width too small to render")
    if not report.jobs:
        return "(no jobs recorded)"
    origin = min(j.start for j in report.jobs)
    total = max(j.end for j in report.jobs) - origin
    total = total or 1e-12
    failed = len(report.failed_jobs)
    lines = [
        f"execution trace: {len(report.jobs)} jobs, "
        f"{failed} recovered" if failed else
        f"execution trace: {len(report.jobs)} jobs, all healthy"
    ]
    label_w = max(len(f"M{j.mult + 1}") for j in report.jobs) + 2
    bar_w = max(10, width - label_w - 24)
    for job in sorted(report.jobs, key=lambda j: (j.start, j.mult)):
        lo = int(round((job.start - origin) / total * bar_w))
        hi = max(lo + 1, int(round((job.end - origin) / total * bar_w)))
        glyph = _STATUS_GLYPH.get(job.status, "?")
        bar = " " * lo + glyph * (hi - lo)
        label = f"M{job.mult + 1}"
        lines.append(
            f"{label:<{label_w}}|{bar:<{bar_w}}| "
            f"{job.duration:8.4f}s {job.status}"
        )
    for event in report.events:
        offset = event.t - origin
        lo = int(round(min(max(offset, 0.0), total) / total * bar_w))
        lo = min(lo, bar_w - 1)
        marker = " " * lo + "^"
        lines.append(f"{'':<{label_w}}|{marker:<{bar_w}}| "
                     f"@+{offset:8.4f}s {event}")
    return "\n".join(lines)
