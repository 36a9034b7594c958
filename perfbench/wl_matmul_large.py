"""matmul-large: closed-loop products where additions and gemms dominate.

One caller repeats a fixed cycle of large products: n in {1024, 2048},
a Fig 7-style rectangular product and a skinny weight-gradient shape,
over strassen222, bini322, laderman333 and a 2-level bini322; run on
the sequential plan, the thread executor (``threads=2``), the process
executor (2 workers) and one ``shard_matmul`` over memory-mapped
operands under a byte budget.  ``np.matmul`` runs on the same operands
right after every product, for the paired speedup.  The seed draws the
operand values; the cycle is the workload definition.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from harness import LayerProbe, Outcome, closed_loop_metrics, error_bound, \
    median, plan_adds, rel_err


#: Operand sets: name -> (M, K, N, dtype).
OPERANDS = {
    "sq2048": (2048, 2048, 2048, np.float32),
    "sq1024": (1024, 1024, 1024, np.float32),
    "sq1024d": (1024, 1024, 1024, np.float64),
    "rect": (1024, 4096, 1024, np.float32),
    "skinny": (2048, 128, 2048, np.float32),
}

#: The cycle: (label, operands, algorithm, steps, executor).
CYCLE = (
    ("strassen222-2048-seq", "sq2048", "strassen222", 1, "seq"),
    ("bini322-1024-seq", "sq1024", "bini322", 1, "seq"),
    ("bini322-2048-thread", "sq2048", "bini322", 1, "thread"),
    ("laderman333-1024-seq", "sq1024", "laderman333", 1, "seq"),
    ("strassen222-2048-process", "sq2048", "strassen222", 1, "process"),
    ("bini322-rect-seq", "rect", "bini322", 1, "seq"),
    ("bini322x2-2048-seq", "sq2048", "bini322", 2, "seq"),
    ("bini322-1024d-process", "sq1024d", "bini322", 1, "process"),
    ("strassen222-skinny-seq", "skinny", "strassen222", 1, "seq"),
    ("bini322-2048-shard", "sq2048", "bini322", 1, "shard"),
    ("bini322-2048-seq", "sq2048", "bini322", 1, "seq"),
)

WORKERS = 2
#: In-flight byte budget of the sharded product.
SHARD_BUDGET = 48 * 1024 * 1024

#: Highest tail percentile reported (see ``harness.tail``): a 15 s run
#: makes ~170 products, p90 needs 100.
TAIL_TOP = 90.0


class Workload:
    def __init__(self, seed: int, scratch: Any) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        from repro.core.engine import default_engine
        from repro.parallel.procpool import get_process_pool

        rng = np.random.default_rng(self.seed)
        self.operands = {}
        for name, (M, K, N, dt) in OPERANDS.items():
            self.operands[name] = (rng.standard_normal((M, K)).astype(dt),
                                   rng.standard_normal((K, N)).astype(dt))
        A, B = self.operands["sq2048"]
        self.paths = (self.scratch / "A.npy", self.scratch / "B.npy")
        np.save(self.paths[0], A)
        np.save(self.paths[1], B)
        self.engine = default_engine()
        get_process_pool(WORKERS)
        for op in CYCLE:  # plans, pool workers, page cache
            self._call(op, None, None)

    def close(self) -> None:
        from repro.parallel.procpool import shutdown_process_pool

        shutdown_process_pool(wait=True)

    def prepare_oracle(self) -> None:
        self.refs = {name: A.astype(np.float64) @ B.astype(np.float64)
                     for name, (A, B) in self.operands.items()}

    def _call(self, op: tuple, gemm: Any, report: Any) -> np.ndarray:
        from repro.shard import shard_matmul

        _, operands, alg, steps, executor = op
        A, B = self.operands[operands]
        extra = {} if gemm is None else {"gemm": gemm}
        if executor == "seq":
            return self.engine.matmul(A, B, alg, steps=steps, **extra)
        if executor == "thread":
            return self.engine.matmul(A, B, alg, steps=steps,
                                      threads=WORKERS, report=report, **extra)
        if executor == "process":
            return self.engine.matmul(A, B, alg, steps=steps,
                                      threads=WORKERS, executor="process",
                                      report=report)
        return shard_matmul(str(self.paths[0]), str(self.paths[1]), alg,
                            memory_budget=SHARD_BUDGET, steps=steps, **extra)

    def _expected_gemms(self, op: tuple) -> int:
        from repro.algorithms.catalog import get_algorithm
        from repro.shard.geometry import recommend_shard_spec

        _, operands, alg, steps, executor = op
        calls = get_algorithm(alg).rank ** steps
        if executor == "shard":
            M, K, N, dt = OPERANDS[operands]
            spec = recommend_shard_spec(M, K, N, SHARD_BUDGET,
                                        itemsize=np.dtype(dt).itemsize)
            rows, panels, cols = spec.tiles(M, K, N)
            calls *= rows * panels * cols
        return calls

    def run(self, seconds: float, out: Outcome,
            probe: LayerProbe | None) -> dict[str, Any]:
        from repro.obs.registry import default_registry
        from repro.parallel.executor import ExecutionReport
        from repro.parallel.procpool import process_pool_stats
        from repro.parallel.shm import shm_stats

        gemm = None if probe is None else probe.gemm
        shm0 = shm_stats()
        restarts0 = process_pool_stats()["restarts"]
        tiles_counter = default_registry().counter("repro_shard_tiles_total")
        tiles0 = tiles_counter.value
        lat: list[float] = []
        ratios: list[float] = []
        errs: list[float] = []
        flops = 0.0
        per_op: dict[str, list[dict[str, float]]] = {op[0]: [] for op in CYCLE}
        cycles = 0
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            cycles += 1
            for idx, op in enumerate(CYCLE):
                label, operands, alg, steps, executor = op
                A, B = self.operands[operands]
                M, K, N, dt = OPERANDS[operands]
                report = (ExecutionReport()
                          if executor in ("thread", "process") else None)
                if probe is not None:
                    probe.take_plans()
                    calls0, gemm_s0 = probe.gemm_snapshot()
                    lookup0 = probe.seconds("plan_for")
                out.attempted += 1
                try:
                    if (cycles + idx) % 2:
                        t0 = time.perf_counter()
                        C = self._call(op, gemm, report)
                        t1 = time.perf_counter()
                        np.matmul(A, B)
                        t2 = time.perf_counter()
                        t_apa, t_np = t1 - t0, t2 - t1
                    else:
                        t0 = time.perf_counter()
                        np.matmul(A, B)
                        t1 = time.perf_counter()
                        C = self._call(op, gemm, report)
                        t2 = time.perf_counter()
                        t_np, t_apa = t1 - t0, t2 - t1
                except Exception as exc:  # a benchmark boundary: count it
                    out.fail(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                lat.append(t_apa)
                ratios.append(t_np / t_apa)
                flops += 2.0 * M * K * N
                err = rel_err(C, self.refs[operands])
                errs.append(err)
                out.check_error(label, err, error_bound(alg, dt, steps, K))
                row = {"call_s": t_apa}
                if report is not None:
                    failed = report.failed_jobs
                    if failed:
                        out.fail(f"{label}: {len(failed)} jobs fell back to "
                                 "classical", len(failed))
                    row["failed_jobs"] = len(failed)
                    row["job_s"] = sum(j.duration for j in report.jobs)
                if probe is not None and executor != "process":
                    calls1, gemm_s1 = probe.gemm_snapshot()
                    expected = self._expected_gemms(op)
                    if calls1 - calls0 != expected:
                        out.fail(f"{label}: {calls1 - calls0} gemm calls, "
                                 f"expected {expected}")
                    row["gemm_calls"] = calls1 - calls0
                    row["gemm_s"] = gemm_s1 - gemm_s0
                    row["lookup_s"] = probe.seconds("plan_for") - lookup0
                if probe is not None:
                    row["adds"] = sum(plan_adds(p)
                                      for p in probe.take_plans())
                per_op[label].append(row)
        restarts = process_pool_stats()["restarts"] - restarts0
        if restarts:
            out.fail(f"process pool restarted {restarts} times", restarts)
        shm1 = shm_stats()
        shm = {key: shm1[key] - shm0[key]
               for key in ("creates", "reuses", "condemned")}
        if shm["condemned"]:
            out.fail(f"{shm['condemned']} shared-memory segments condemned",
                     shm["condemned"])
        return {"lat": lat, "ratios": ratios, "errs": errs, "flops": flops,
                "per_op": per_op, "cycles": cycles, "restarts": restarts,
                "shm": shm, "tiles": tiles_counter.value - tiles0}

    def end_to_end(self, stats: dict[str, Any], out: Outcome) -> None:
        closed_loop_metrics(out, stats, TAIL_TOP)
        out.notes["apa_speedup"] += f", {stats['cycles']} cycles"

    def per_layer(self, stats: dict[str, Any], probe: LayerProbe,
                  out: Outcome) -> None:
        per_op = stats["per_op"]
        ops = {op[0]: op for op in CYCLE}
        rows = [r for label in per_op for r in per_op[label]]
        seq = [r for label, rs in per_op.items() for r in rs
               if ops[label][4] in ("seq", "shard") and "gemm_s" in r]
        seam = [r for r in rows if "gemm_calls" in r]
        if seam:
            out.metrics["gemm.calls_per_op"] = (
                sum(r["gemm_calls"] for r in seam) / len(seam))
        adds = [r["adds"] for r in rows if r.get("adds")]
        if adds:
            out.metrics["plan.adds_per_call"] = sum(adds) / len(adds)
        if seq:
            call = sum(r["call_s"] for r in seq)
            gemm_s = sum(r["gemm_s"] for r in seq)
            lookup = sum(r["lookup_s"] for r in seq)
            out.metrics["plan.combine_frac"] = (call - gemm_s - lookup) / call
            out.metrics["gemm.busy_frac"] = gemm_s / call
        split = []
        for label, rs in per_op.items():
            rs = [r for r in rs if "gemm_s" in r]
            if rs and ops[label][4] == "seq":
                frac = median((r["call_s"] - r["gemm_s"] - r["lookup_s"])
                              / r["call_s"] for r in rs)
                split.append(f"{label} {frac:.2f}")
        out.notes["plan.combine_frac"] = "sequential ops; " + ", ".join(split)
        parallel = [(label, r) for label, rs in per_op.items() for r in rs
                    if "job_s" in r]
        if parallel:
            idle = sum(1.0 - r["job_s"] / (WORKERS * r["call_s"])
                       for _, r in parallel)
            out.metrics["parallel.idle_frac"] = idle / len(parallel)
            out.metrics["parallel.job_busy_s"] = (
                sum(r["job_s"] for _, r in parallel) / len(parallel))
            out.metrics["parallel.failed_jobs"] = sum(
                r["failed_jobs"] for _, r in parallel)
        proc = [r["call_s"] for label, rs in per_op.items() for r in rs
                if ops[label][4] == "process"]
        out.metrics["procpool.call_s"] = median(proc)
        out.metrics["procpool.restarts"] = stats["restarts"]
        for key, value in stats["shm"].items():
            out.metrics[f"shm.{key}"] = value
        shard = [r["call_s"] for label, rs in per_op.items() for r in rs
                 if ops[label][4] == "shard"]
        out.metrics["shard.call_s"] = median(shard)
        if shard:
            out.metrics["shard.tiles"] = stats["tiles"] / len(shard)
        self._model_ratios(per_op, ops, out)

    def _model_ratios(self, per_op: dict[str, list[dict[str, float]]],
                      ops: dict[str, tuple], out: Outcome) -> None:
        """Measured time over the cost model on a host-calibrated spec."""
        from repro.machine.calibrate import calibrated_spec, \
            measure_gemm_curve
        from repro.machine.numa import ExecutorCostModel
        from repro.machine.spec import paper_machine

        dims, gflops = measure_gemm_curve(seed=self.seed)
        model = ExecutorCostModel(calibrated_spec(paper_machine(), dims,
                                                  gflops))
        for executor, metric in (("thread", "model.thread_ratio"),
                                 ("process", "model.process_ratio")):
            ratios = []
            for label, rows in per_op.items():
                _, operands, alg, steps, kind = ops[label]
                if kind != executor or not rows:
                    continue
                M, K, N, dt = OPERANDS[operands]
                predict = (model.thread_time if kind == "thread"
                           else model.process_time)
                predicted = predict(alg, M, K, N, workers=WORKERS,
                                    steps=steps,
                                    dtype_bytes=np.dtype(dt).itemsize)
                ratios.append(median(r["call_s"] for r in rows) / predicted)
            out.metrics[metric] = median(ratios)
