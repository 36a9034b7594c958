"""Shared pieces of the wall-clock benchmark: statistics, the correctness
oracle, host provenance, the per-layer probe and result printing.

Every per-layer number is measured from outside ``src/``: the probe
times calls into public functions and seams (``ExecutionEngine.resolve``,
``repro.tune.dispatch.consult``, ``BackendStack.from_config``,
``PlanCache.plan_for`` and the ``gemm=`` seam) by wrapping them for the
duration of the traced run only, and restores the originals afterwards.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

#: End-to-end metrics, printed by every workload with tracing off.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "gflops_eff": "GFLOP/s",
    "apa_speedup": "x",
    "rel_err_max": "ratio",
}

#: Per-layer metrics, printed by every workload in the traced run.  A
#: layer the workload does not exercise reads 0.
PER_LAYER: dict[str, str] = {
    "engine.resolve_us": "us",
    "tune.consult_us": "us",
    "backends.stack_builds": "count",
    "plan.lookup_us": "us",
    "plan.hit_ratio": "ratio",
    "plan.evictions": "count",
    "plan.workspaces_built": "count",
    "plan.adds_per_call": "count",
    "plan.combine_frac": "ratio",
    "gemm.calls_per_op": "count",
    "gemm.busy_frac": "ratio",
    "gemm.gflops": "GFLOP/s",
    "parallel.idle_frac": "ratio",
    "parallel.job_busy_s": "s",
    "parallel.failed_jobs": "count",
    "procpool.call_s": "s",
    "procpool.restarts": "count",
    "shm.creates": "count",
    "shm.reuses": "count",
    "shm.condemned": "count",
    "shard.tiles": "count",
    "shard.call_s": "s",
    "nn.fwd_ms": "ms",
    "nn.grad_input_ms": "ms",
    "nn.grad_weight_ms": "ms",
    "nn.matmul_frac": "ratio",
    "nn.samples_per_s": "1/s",
    "nn.loss_final": "nats",
    "serve.queue_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.degraded_frac": "ratio",
    "serve.shed_frac": "ratio",
    "serve.deadline_miss_frac": "ratio",
    "serve.gen_lag_ms": "ms",
    "serve.max_rate_at_slo": "1/s",
    "model.thread_ratio": "ratio",
    "model.process_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Tail percentiles tried from the top; the first with at least ten
#: samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Oracle slack: a result passes when its relative Frobenius error is
#: within this constant of the predicted bound (the paper's
#: 2^(-d*sigma/(sigma+phi)) for the algorithm, dtype and steps, never
#: below the classical K*2^-d growth).
ORACLE_CONST = 8.0


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else 0.0


def tail(values: list[float], top: float = TAIL_LADDER[0]
         ) -> tuple[float, float]:
    """``(percentile, value)``: the highest :data:`TAIL_LADDER` entry, at
    most ``top``, with at least ten samples beyond it (the maximum below
    20 samples).  Workloads pass a ``top`` their sample count clears
    with room, so the reported percentile stays the same run to run."""
    n = len(values)
    for p in TAIL_LADDER:
        if p <= top and n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return 100.0, float(max(values)) if values else 0.0


# ---------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------

def precision_bits(dtype: Any) -> int:
    return 23 if np.dtype(dtype) == np.float32 else 52


def error_bound(algorithm: str | None, dtype: Any, steps: int,
                inner_dim: int) -> float:
    """The oracle's limit for one product (see :data:`ORACLE_CONST`)."""
    from repro.algorithms.analysis import predicted_error_bound

    return ORACLE_CONST * predicted_error_bound(
        algorithm, d=precision_bits(dtype), steps=steps,
        inner_dim=max(1, inner_dim))


def rel_err(C: np.ndarray, ref: np.ndarray) -> float:
    """Relative Frobenius error against a float64 reference."""
    diff = np.asarray(C, dtype=np.float64) - ref
    denom = float(np.linalg.norm(ref))
    return float(np.linalg.norm(diff)) / denom if denom else 0.0


# ---------------------------------------------------------------------
# host provenance
# ---------------------------------------------------------------------

def blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, when it is found."""
    base = os.path.dirname(np.__file__)
    patterns = [os.path.join(base, os.pardir, d, "*openblas*")
                for d in ("numpy.libs", "scipy_openblas64", "scipy_openblas32")]
    patterns.append(os.path.join(base, os.pardir, "scipy_openblas*", "lib",
                                 "*openblas*"))
    names = ("scipy_openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for pattern in patterns:
        for path in glob.glob(pattern):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def host_info() -> dict[str, Any]:
    from repro.tune.table import host_fingerprint

    info: dict[str, Any] = dict(host_fingerprint())
    info["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = blas_threads()
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------
# results
# ---------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run produced, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_error(self, label: str, err: float, bound: float) -> None:
        if not (err <= bound):  # NaN fails too
            self.fail(f"{label}: rel err {err:.3e} > bound {bound:.3e}")


def windows(stamps: list[float], window_s: float) -> list[list[int]]:
    """Sample indices grouped into consecutive ``window_s`` windows,
    leaving out partial windows (under half the median window's size)."""
    start = min(stamps)
    groups: dict[int, list[int]] = {}
    for i, t in enumerate(stamps):
        groups.setdefault(int((t - start) // window_s), []).append(i)
    typical = median(len(g) for g in groups.values())
    return [g for g in groups.values() if len(g) >= typical / 2]


def latency_metrics(out: Outcome, latencies_s: list[float],
                    tail_top: float, stamps: list[float] | None = None,
                    window_s: float | None = None) -> None:
    """Fill ``latency_p50_ms``/``latency_tail_ms`` with their notes.

    The tail is taken over every sample.  With ``stamps`` (each
    sample's start time) and ``window_s``, the median is the median of
    the medians of windows of that length, so a burst of load from
    another tenant that covers a minority of the windows does not move
    it; a slowdown of the program's own that is confined to a minority
    of the windows then shows in the tail only.
    """
    ms = [t * 1e3 for t in latencies_s]
    p, value = tail(ms, tail_top)
    out.metrics["latency_tail_ms"] = value
    out.notes["latency_tail_ms"] = f"p{p:g}, n={len(ms)}"
    if window_s is None or not ms:
        out.metrics["latency_p50_ms"] = median(ms)
        out.notes["latency_p50_ms"] = f"n={len(ms)}"
        return
    groups = [[ms[i] for i in idx] for idx in windows(stamps, window_s)]
    out.metrics["latency_p50_ms"] = median(median(g) for g in groups)
    out.notes["latency_p50_ms"] = (
        f"median of {len(groups)} {window_s:g} s windows, n={len(ms)}")


def closed_loop_metrics(out: Outcome, stats: dict[str, Any],
                        tail_top: float, window_s: float | None = None
                        ) -> None:
    """End-to-end metrics of a closed loop that pairs every APA op with
    its classical twin: ``stats`` holds per-op APA seconds (``lat``),
    classical/APA time ratios (``ratios``), errors (``errs``) and the
    total ``flops`` of the APA ops.  With ``window_s``, per-op start
    times (``stamps``) and flops (``op_flops``), the median latency and
    the flop rate are medians over windows (see :func:`latency_metrics`)."""
    lat = stats["lat"]
    if window_s is None:
        latency_metrics(out, lat, tail_top)
        total = sum(lat)
        out.metrics["gflops_eff"] = stats["flops"] / total / 1e9 if total \
            else 0.0
    else:
        latency_metrics(out, lat, tail_top, stats["stamps"], window_s)
        groups = windows(stats["stamps"], window_s)
        out.metrics["gflops_eff"] = median(
            sum(stats["op_flops"][i] for i in idx)
            / sum(lat[i] for i in idx) / 1e9 for idx in groups)
        out.notes["gflops_eff"] = f"median of {len(groups)} windows"
    out.metrics["apa_speedup"] = median(stats["ratios"])
    out.notes["apa_speedup"] = f"n={len(stats['ratios'])} pairs"
    out.metrics["rel_err_max"] = max(stats["errs"], default=0.0)


def emit(names: dict[str, str], out: Outcome,
         extra: dict[str, Any]) -> bool:
    """Print the human-readable lines, then the one-line JSON result;
    returns whether every output passed its checks."""
    metrics = {}
    for name, unit in names.items():
        value = float(out.metrics.get(name, 0.0))
        if not math.isfinite(value):
            out.fail(f"{name} measured {value}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    for key, value in extra.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for err in out.errors:
        print(f"# FAILED {err}")
    for name, metric in metrics.items():
        note = out.notes.get(name, "")
        print(f"{name} = {metric['value']:.6g} {metric['unit']}"
              + (f"  ({note})" if note else ""))
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": int(out.attempted),
                      "failed": int(out.failed), "metrics": metrics}))
    return correct


# ---------------------------------------------------------------------
# the per-layer probe
# ---------------------------------------------------------------------

class LayerProbe:
    """Timing wrappers around public seams, live only while installed.

    ``timed[name]`` holds ``[seconds, calls]``; :meth:`gemm` is a drop-in
    ``gemm=`` seam that counts calls, seconds and flops.  Counters are
    updated under one lock because the threaded executor calls the
    gemm seam from pool workers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.timed: dict[str, list[float]] = {}
        self.gemm_calls = 0
        self.gemm_s = 0.0
        self.gemm_flops = 0.0
        #: plan id -> (plan, workspaces_built when first returned)
        self.plans: dict[int, tuple[Any, int]] = {}
        #: Plans returned by ``plan_for`` since :meth:`take_plans`.
        self.recent_plans: list[Any] = []
        self._restore: list[Callable[[], None]] = []

    # -- accounting ----------------------------------------------------

    def _add(self, name: str, dt: float) -> None:
        with self._lock:
            slot = self.timed.setdefault(name, [0.0, 0])
            slot[0] += dt
            slot[1] += 1

    def mean_us(self, name: str) -> float:
        s, n = self.timed.get(name, (0.0, 0))
        return s / n * 1e6 if n else 0.0

    def calls(self, name: str) -> int:
        return int(self.timed.get(name, (0.0, 0))[1])

    def seconds(self, name: str) -> float:
        return float(self.timed.get(name, (0.0, 0))[0])

    def gemm(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        M = np.matmul(S, T)
        dt = time.perf_counter() - t0
        flops = 2.0 * S.shape[0] * S.shape[1] * T.shape[1]
        with self._lock:
            self.gemm_calls += 1
            self.gemm_s += dt
            self.gemm_flops += flops
        return M

    def gemm_snapshot(self) -> tuple[int, float]:
        with self._lock:
            return self.gemm_calls, self.gemm_s

    def take_plans(self) -> list[Any]:
        with self._lock:
            plans, self.recent_plans = self.recent_plans, []
        return plans

    def workspaces_built(self) -> int:
        return sum(plan.workspaces_built - first
                   for plan, first in self.plans.values())

    # -- installation --------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        from repro.backends.stack import BackendStack
        from repro.core.engine import ExecutionEngine
        from repro.core.plan import PlanCache
        from repro.tune import dispatch

        probe = self
        resolve = ExecutionEngine.resolve

        def timed_resolve(engine, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return resolve(engine, *args, **kwargs)
            finally:
                probe._add("resolve", time.perf_counter() - t0)

        consult = dispatch.consult

        def timed_consult(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return consult(*args, **kwargs)
            finally:
                probe._add("consult", time.perf_counter() - t0)

        from_config = BackendStack.__dict__["from_config"].__func__

        def timed_from_config(cls, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return from_config(cls, *args, **kwargs)
            finally:
                probe._add("stack_build", time.perf_counter() - t0)

        plan_for = PlanCache.plan_for

        def timed_plan_for(cache, *args, **kwargs):
            t0 = time.perf_counter()
            plan = plan_for(cache, *args, **kwargs)
            probe._add("plan_for", time.perf_counter() - t0)
            with probe._lock:
                probe.plans.setdefault(id(plan),
                                       (plan, plan.workspaces_built))
                probe.recent_plans.append(plan)
            return plan

        self._patch(ExecutionEngine, "resolve", timed_resolve)
        self._patch(dispatch, "consult", timed_consult)
        self._patch(BackendStack, "from_config",
                    classmethod(timed_from_config))
        self._patch(PlanCache, "plan_for", timed_plan_for)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def plan_adds(plan: Any) -> int:
    """Block additions one execution of ``plan`` performs.

    Per recursion level: ``len(terms) - 1`` additions for every S and T
    combination, and ``contributors - 1`` for every output block.  A
    sequential plan runs all ``key.steps`` levels itself (``r**l``
    sub-problems at level ``l``); a threaded/process plan runs only the
    outer level, its workers look up their own inner plans.
    """
    level = sum(max(len(t) - 1, 0) for t in plan.s_terms)
    level += sum(max(len(t) - 1, 0) for t in plan.t_terms)
    contributors: dict[int, int] = {}
    for terms in plan.w_terms:
        for q, _ in terms:
            contributors[q] = contributors.get(q, 0) + 1
    level += sum(c - 1 for c in contributors.values())
    if plan.key.mode != "sequential":
        return level
    return level * sum(plan.rank ** lvl for lvl in range(plan.key.steps))


class PlanCacheDelta:
    """Hit/miss/eviction deltas of the process-wide plan cache."""

    def __init__(self) -> None:
        from repro.core.plan import default_plan_cache

        self._cache = default_plan_cache()
        self._start = self._cache.stats()

    def fill(self, out: Outcome) -> None:
        end = self._cache.stats()
        hits = end["hits"] - self._start["hits"]
        misses = end["misses"] - self._start["misses"]
        out.metrics["plan.hit_ratio"] = (hits / (hits + misses)
                                         if hits + misses else 0.0)
        out.metrics["plan.evictions"] = end["evictions"] - self._start[
            "evictions"]


def fill_probe_metrics(out: Outcome, probe: LayerProbe) -> None:
    """The dispatch-layer metrics every workload reads the same way."""
    out.metrics["engine.resolve_us"] = probe.mean_us("resolve")
    out.metrics["tune.consult_us"] = probe.mean_us("consult")
    out.metrics["backends.stack_builds"] = probe.calls("stack_build")
    out.metrics["plan.lookup_us"] = probe.mean_us("plan_for")
    out.metrics["plan.workspaces_built"] = probe.workspaces_built()
    if probe.gemm_s:
        out.metrics["gemm.gflops"] = probe.gemm_flops / probe.gemm_s / 1e9
