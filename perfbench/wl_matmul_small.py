"""matmul-small: a Zipf-weighted closed-loop stream of small APA products.

One caller issues products with dims 24-160 (ragged ones included) over
six real catalog algorithms in float32 and float64, through every
public way in: ``apa_matmul``, ``engine.matmul`` keyword overrides, an
``execution_context``, ``tuned=True`` against a simulated dispatch
table, ``guarded=True`` and ``randomized=True`` with a fixed
``rand_seed``.  The plan-key working set (132 keys) is about twice the
default plan cache (64), so lookups, builds and evictions all happen.

Fixed per-call costs dominate here: config merge, tune consult, stack
lookup, plan lookup/build/evict and workspace checkout.  No traffic
data exists for these entry points, so the mix assumes nothing beyond
the Zipf shape: the popularity ranks interleave algorithms, dtypes and
shapes (:func:`popularity_ranks`), and each key's calls go through the
six paths in turn, in equal shares.  The seed draws the stream order
and the operand values.
"""

from __future__ import annotations

import math
import time
from typing import Any

import numpy as np

from harness import LayerProbe, Outcome, closed_loop_metrics, error_bound, \
    plan_adds, rel_err


ALGORITHMS = ("strassen222", "winograd222", "dps222", "bini322", "bini232",
              "laderman333")
DTYPES = (np.float32, np.float64)
SHAPES = ((24, 24, 24), (32, 32, 32), (37, 53, 29), (48, 40, 56),
          (64, 64, 64), (72, 96, 80), (96, 96, 96), (100, 60, 130),
          (128, 128, 128), (144, 120, 136), (160, 160, 160))
PATHS = ("apa_matmul", "engine", "context", "tuned", "guarded", "randomized")
ZIPF_S = 1.0
#: Every block holds the same (key, path) multiset in Zipf proportions;
#: the seed shuffles each block, so runs differ in order, not in mix.
BLOCK = 4096
BLOCKS = 40
RAND_SEED = 1234

#: Highest tail percentile reported (see ``harness.tail``).  p99.9 has
#: the samples but is set by host preemption: it spread 13-18% between
#: runs of one seed, against 4% for p50.
TAIL_TOP = 99.0
#: The median latency and the flop rate are medians over windows of
#: this length; the interpreter-bound calls here slow by up to 40% while
#: another tenant loads the host.
WINDOW_S = 1.0


def popularity_ranks() -> np.ndarray:
    """The Zipf rank of each key, in ``Workload.keys`` order.

    Rank ``r`` goes to (algorithm, dtype) pair ``r % 12`` at shape
    ``r % 11``.  The two counts are coprime, so every key gets exactly
    one rank; successive ranks change shape and dtype every time and
    algorithm every other time, so no algorithm, dtype or shape owns
    the popular end of the curve.
    """
    pairs = len(ALGORITHMS) * len(DTYPES)
    assert math.gcd(pairs, len(SHAPES)) == 1
    ranks = np.empty(pairs * len(SHAPES), dtype=np.int64)
    for r in range(len(ranks)):
        ranks[(r % pairs) * len(SHAPES) + r % len(SHAPES)] = r
    return ranks


class Workload:
    def __init__(self, seed: int, scratch: Any) -> None:
        self.seed = seed
        self.keys = [(alg, dt, shape) for alg in ALGORITHMS
                     for dt in DTYPES for shape in SHAPES]

    def setup(self) -> None:
        from repro.core.engine import default_engine
        from repro.tune.dispatch import install_dispatch_table
        from repro.tune.tuner import TuneGrid, tune_dispatch_table

        rng = np.random.default_rng(self.seed)
        block = self._block()
        self.stream = np.concatenate(
            [block[rng.permutation(BLOCK)] for _ in range(BLOCKS)])
        self.operands = []
        for alg, dt, (M, K, N) in self.keys:
            A = rng.standard_normal((M, K)).astype(dt)
            B = rng.standard_normal((K, N)).astype(dt)
            self.operands.append((A, B))
        self.table = tune_dispatch_table(
            TuneGrid(dims=(32, 64, 128), dtypes=("float32", "float64")),
            simulate=True)
        install_dispatch_table(self.table)
        self.engine = default_engine()
        # Warm every key once on the plain path (plans, coefficient
        # evaluations) and build the guarded/randomized stacks.
        for idx, (alg, dt, shape) in enumerate(self.keys):
            A, B = self.operands[idx]
            self._call(PATHS.index("apa_matmul"), alg, A, B, None)
        for alg in ALGORITHMS:
            A, B = self.operands[self.keys.index((alg, DTYPES[0], SHAPES[0]))]
            for path in ("guarded", "randomized", "tuned", "context"):
                self._call(PATHS.index(path), alg, A, B, None)

    def _block(self) -> np.ndarray:
        """One block's ``(key, path)`` rows: Zipf counts by largest
        remainder, each key's calls spread over the paths in turn."""
        weights = 1.0 / (popularity_ranks() + 1.0) ** ZIPF_S
        quota = BLOCK * weights / weights.sum()
        counts = np.floor(quota).astype(int)
        short = BLOCK - counts.sum()
        counts[np.argsort(counts - quota, kind="stable")[:short]] += 1
        rows = [(key, (key + j) % len(PATHS))
                for key, count in enumerate(counts) for j in range(count)]
        return np.asarray(rows, dtype=np.int64)

    def close(self) -> None:
        from repro.tune.dispatch import install_dispatch_table

        install_dispatch_table(None)

    def prepare_oracle(self) -> None:
        self.refs = [A.astype(np.float64) @ B.astype(np.float64)
                     for A, B in self.operands]
        self.bounds = []
        for (alg, dt, (M, K, N)) in self.keys:
            cell = self.table.lookup(M, K, N, dt, 1)
            tuned_alg = None if cell is None else cell.algorithm
            self.bounds.append((error_bound(alg, dt, 1, K),
                                error_bound(tuned_alg, dt, 1, K),
                                tuned_alg))

    def _call(self, path: int, alg: str, A: np.ndarray, B: np.ndarray,
              gemm: Any) -> np.ndarray:
        from repro.core.apa_matmul import apa_matmul
        from repro.core.config import execution_context

        extra = {} if gemm is None else {"gemm": gemm}
        name = PATHS[path]
        if name == "apa_matmul":
            return apa_matmul(A, B, alg, **extra)
        if name == "engine":
            return self.engine.matmul(A, B, alg, **extra)
        if name == "context":
            with execution_context(algorithm=alg, **extra):
                return self.engine.matmul(A, B)
        if name == "tuned":
            return self.engine.matmul(A, B, tuned=True, **extra)
        if name == "guarded":
            return self.engine.matmul(A, B, alg, guarded=True, **extra)
        return self.engine.matmul(A, B, alg, randomized=True,
                                  rand_seed=RAND_SEED, **extra)

    def _guards(self, gemm: Any) -> list[Any]:
        extra = {} if gemm is None else {"gemm": gemm}
        return [self.engine.backend(algorithm=alg, guarded=True, **extra)
                for alg in ALGORITHMS]

    def run(self, seconds: float, out: Outcome,
            probe: LayerProbe | None) -> dict[str, Any]:
        from repro.algorithms.catalog import get_algorithm

        gemm = None if probe is None else probe.gemm
        guards = self._guards(gemm)
        fallbacks0 = sum(g.fallback_calls for g in guards)
        lat: list[float] = []
        ratios: list[float] = []
        stamps: list[float] = []
        op_flops: list[float] = []
        errs: list[float] = []
        layer = {"call_s": 0.0, "gemm_s": 0.0, "lookup_s": 0.0,
                 "apa_call_s": 0.0, "apa_gemm_s": 0.0, "apa_lookup_s": 0.0,
                 "adds": 0, "apa_ops": 0, "gemm_calls": 0, "gemm_ops": 0}
        i = 0
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            key, path = (int(v) for v in self.stream[i % len(self.stream)])
            i += 1
            alg, dt, (M, K, N) = self.keys[key]
            A, B = self.operands[key]
            if probe is not None:
                probe.take_plans()
                calls0, gemm_s0 = probe.gemm_snapshot()
                lookup0 = probe.seconds("plan_for")
            out.attempted += 1
            try:
                # Alternate which of the pair runs first, so neither
                # always finds the operands in cache.
                if i % 2:
                    t0 = time.perf_counter()
                    C = self._call(path, alg, A, B, gemm)
                    t1 = time.perf_counter()
                    np.matmul(A, B)
                    t2 = time.perf_counter()
                    t_apa, t_np = t1 - t0, t2 - t1
                else:
                    t0 = time.perf_counter()
                    np.matmul(A, B)
                    t1 = time.perf_counter()
                    C = self._call(path, alg, A, B, gemm)
                    t2 = time.perf_counter()
                    t_np, t_apa = t1 - t0, t2 - t1
            except Exception as exc:  # a benchmark boundary: count it
                out.fail(f"{PATHS[path]} {alg} {M}x{K}x{N}: "
                         f"{type(exc).__name__}: {exc}")
                continue
            lat.append(t_apa)
            ratios.append(t_np / t_apa)
            stamps.append(t0)
            op_flops.append(2.0 * M * K * N)
            bound, tuned_bound, tuned_alg = self.bounds[key]
            ran = tuned_alg if PATHS[path] == "tuned" else alg
            err = rel_err(C, self.refs[key])
            errs.append(err)
            out.check_error(f"{PATHS[path]} {alg} {dt.__name__} {M}x{K}x{N}",
                            err, tuned_bound if PATHS[path] == "tuned"
                            else bound)
            if probe is None:
                continue
            calls1, gemm_s1 = probe.gemm_snapshot()
            expected = 1 if ran is None else get_algorithm(ran).rank
            if calls1 - calls0 != expected:
                out.fail(f"{PATHS[path]} {ran}: {calls1 - calls0} gemm "
                         f"calls, expected {expected}")
            lookup = probe.seconds("plan_for") - lookup0
            layer["call_s"] += t_apa
            layer["gemm_s"] += gemm_s1 - gemm_s0
            layer["gemm_calls"] += calls1 - calls0
            layer["gemm_ops"] += 1
            plans = probe.take_plans()
            if ran is not None and plans:
                layer["apa_ops"] += 1
                layer["adds"] += sum(plan_adds(p) for p in plans)
                layer["apa_call_s"] += t_apa
                layer["apa_gemm_s"] += gemm_s1 - gemm_s0
                layer["apa_lookup_s"] += lookup
        fallbacks = sum(g.fallback_calls for g in guards) - fallbacks0
        if fallbacks:
            out.fail(f"guard fell back on {fallbacks} calls", fallbacks)
        return {"lat": lat, "ratios": ratios, "errs": errs, "stamps": stamps,
                "op_flops": op_flops,
                "layer": layer}

    def end_to_end(self, stats: dict[str, Any], out: Outcome) -> None:
        closed_loop_metrics(out, stats, TAIL_TOP, WINDOW_S)

    def per_layer(self, stats: dict[str, Any], probe: LayerProbe,
                  out: Outcome) -> None:
        layer = stats["layer"]
        if layer["apa_ops"]:
            out.metrics["plan.adds_per_call"] = layer["adds"] / layer["apa_ops"]
            rest = (layer["apa_call_s"] - layer["apa_gemm_s"]
                    - layer["apa_lookup_s"])
            out.metrics["plan.combine_frac"] = rest / layer["apa_call_s"]
        if layer["gemm_ops"]:
            out.metrics["gemm.calls_per_op"] = (layer["gemm_calls"]
                                                / layer["gemm_ops"])
            out.metrics["gemm.busy_frac"] = layer["gemm_s"] / layer["call_s"]
