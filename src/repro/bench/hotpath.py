"""Hot-path benchmark: plan-cached execution vs the per-call cold path.

Quantifies what the plan-and-arena engine (:mod:`repro.core.plan`) buys
on the workload the ROADMAP cares about — thousands of identically
shaped products:

- repeated ``apa_matmul`` calls on one shape, cold (an uncached plan
  per call: partition + coefficient evaluation + term lists + buffer
  allocation rebuilt every time) vs warm (one cached plan, pooled
  arenas);
- a short MLP train step (forward + backward through APA-backed Dense
  layers) under the same two regimes.

Numerics are asserted identical (cold and warm run the same plan
arithmetic), so the speedup is pure overhead reclaimed.  Since the
ExecutionEngine refactor the bench also measures the *dispatch* cost of
the public shim vs the engine-private sequential entry
(:func:`measure_engine_overhead`, paired-median like the obs gate) and
``benchmarks/bench_hotpath.py`` gates it below 2%.  Run through
``python -m repro hotpath`` or ``benchmarks/bench_hotpath.py`` (which
emits ``BENCH_hotpath.json`` for the CI perf trajectory).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.apa_matmul import apa_matmul
from repro.core.engine import default_engine
from repro.core.plan import PlanCache

__all__ = ["HotpathResult", "run_hotpath", "format_hotpath",
           "measure_engine_overhead"]


@dataclass(frozen=True)
class HotpathResult:
    """Timings (seconds per call, best of ``repeats``) and cache stats."""

    algorithm: str
    n: int
    iters: int
    steps: int
    dtype: str
    matmul_cold: float
    matmul_warm: float
    train_cold: float
    train_warm: float
    max_abs_diff: float
    engine_overhead: float = 0.0
    plan_cache: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)

    @property
    def matmul_speedup(self) -> float:
        return self.matmul_cold / self.matmul_warm

    @property
    def train_speedup(self) -> float:
        if not self.train_cold:
            return 1.0
        return self.train_cold / self.train_warm

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "iters": self.iters,
            "steps": self.steps,
            "dtype": self.dtype,
            "matmul_cold_s": self.matmul_cold,
            "matmul_warm_s": self.matmul_warm,
            "matmul_speedup": self.matmul_speedup,
            "train_cold_s": self.train_cold,
            "train_warm_s": self.train_warm,
            "train_speedup": self.train_speedup,
            "max_abs_diff": self.max_abs_diff,
            "engine_overhead": self.engine_overhead,
            "plan_cache": self.plan_cache,
            "pool": self.pool,
        }


def _best_per_call(fn, iters: int, repeats: int) -> float:
    """Best mean-per-call over ``repeats`` runs of an ``iters``-call loop."""
    fn()  # warmup (also primes caches on the warm variants)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def measure_engine_overhead(
    algorithm: str = "bini322",
    n: int = 96,
    iters: int = 40,
    repeats: int = 5,
    dtype=np.float32,
    seed: int = 0,
) -> float:
    """Dispatch cost of the engine shim vs the pre-refactor direct call.

    Times the public ``apa_matmul`` shim (which routes through the
    :class:`~repro.core.engine.ExecutionEngine` fast lane) against the
    engine-private sequential entry on the *same* warm plan path, as
    interleaved rounds of ``iters`` calls each; returns the median of
    per-round ``shim/direct`` ratios minus one (the paired-median
    estimator the obs-overhead gate uses, robust to drift).  Gated
    below 2% by ``benchmarks/bench_hotpath.py`` — the layered engine
    must stay free on the hot path.
    """
    from repro.algorithms.catalog import get_algorithm
    from repro.core.apa_matmul import _apa_matmul_impl  # lint: ignore[ENG001]: the overhead probe must import the engine-private seam it measures

    alg = get_algorithm(algorithm) if isinstance(algorithm, str) \
        else algorithm
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)
    cache = PlanCache()

    def direct_round() -> None:
        for _ in range(iters):
            _apa_matmul_impl(  # lint: ignore[ENG001]: measuring the seam
                A, B, alg, None, 1, None, None, cache)

    def shim_round() -> None:
        for _ in range(iters):
            apa_matmul(A, B, alg, plan_cache=cache)

    # warm up both paths (primes the plan cache and the arena pool)
    direct_round()
    shim_round()
    direct, shim = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        direct_round()
        t1 = time.perf_counter()
        shim_round()
        t2 = time.perf_counter()
        direct.append(t1 - t0)
        shim.append(t2 - t1)
    return statistics.median(s / b for s, b in zip(shim, direct)) - 1.0


def _train_step(model, loss, x, y) -> None:
    logits = model.forward(x, training=True)
    loss.forward(logits, y)
    model.backward(loss.backward())
    for p in model.parameters():
        p.zero_grad()


def _build_mlp(algorithm, plan_cache, in_dim: int, hidden: int,
               out_dim: int):
    from repro.nn.layers import Dense, ReLU
    from repro.nn.model import Sequential

    engine = default_engine()
    rng = np.random.default_rng(0)
    return Sequential([
        Dense(in_dim, hidden,
              backend=engine.backend(algorithm=algorithm,
                                     plan_cache=plan_cache),
              rng=rng),
        ReLU(),
        Dense(hidden, out_dim,
              backend=engine.backend(algorithm=algorithm,
                                     plan_cache=plan_cache),
              rng=rng),
    ])


def run_hotpath(
    algorithm: str = "bini322",
    n: int = 96,
    iters: int = 40,
    steps: int = 1,
    dtype=np.float32,
    repeats: int = 3,
    batch: int = 64,
    hidden: int = 96,
    train: bool = True,
    seed: int = 0,
) -> HotpathResult:
    """Measure cold vs plan-cached throughput on one configuration.

    The cold loop pays the full per-call build: it runs with
    ``plan_cache=False`` (an uncached plan per call) *and* drops the
    algorithm's memoized coefficient evaluation before every call.  The
    warm loop uses a private primed :class:`~repro.core.plan.PlanCache`.
    """
    from repro.algorithms.catalog import get_algorithm
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.parallel.pool import pool_stats

    alg = get_algorithm(algorithm)
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)

    cache = PlanCache()

    def cold_call():
        alg.clear_evaluation_cache()
        return apa_matmul(A, B, alg, steps=steps, plan_cache=False)

    def warm_call():
        return apa_matmul(A, B, alg, steps=steps, plan_cache=cache)

    # Numerics gate first: the cached plan must match the uncached one.
    reference = cold_call()
    planned = warm_call()
    max_abs_diff = float(np.max(np.abs(reference - planned)))
    if not np.allclose(reference, planned, rtol=1e-6, atol=1e-6):
        raise AssertionError(
            f"plan-cached result diverged from the uncached plan "
            f"(max |diff| = {max_abs_diff:.3e})")

    matmul_cold = _best_per_call(cold_call, iters, repeats)
    matmul_warm = _best_per_call(warm_call, iters, repeats)

    train_cold = train_warm = 0.0
    if train:
        loss = SoftmaxCrossEntropy()
        x = rng.random((batch, n)).astype(dtype)
        y = rng.integers(0, 10, size=batch)
        cold_model = _build_mlp(alg, False, n, hidden, 10)
        warm_model = _build_mlp(alg, cache, n, hidden, 10)
        train_iters = max(1, iters // 4)

        def cold_step():
            alg.clear_evaluation_cache()
            _train_step(cold_model, loss, x, y)

        train_cold = _best_per_call(cold_step, train_iters, repeats)
        train_warm = _best_per_call(
            lambda: _train_step(warm_model, loss, x, y), train_iters, repeats)

    engine_overhead = measure_engine_overhead(
        algorithm, n=n, iters=iters, repeats=max(repeats, 5), dtype=dtype,
        seed=seed)

    return HotpathResult(
        algorithm=algorithm, n=n, iters=iters, steps=steps,
        dtype=np.dtype(dtype).name,
        matmul_cold=matmul_cold, matmul_warm=matmul_warm,
        train_cold=train_cold, train_warm=train_warm,
        max_abs_diff=max_abs_diff, engine_overhead=engine_overhead,
        plan_cache=cache.stats(), pool=pool_stats(),
    )


def format_hotpath(result: HotpathResult) -> str:
    lines = [
        f"hot path: {result.algorithm} n={result.n} steps={result.steps} "
        f"{result.dtype} ({result.iters} calls/loop)",
        f"  matmul  cold {result.matmul_cold * 1e6:9.1f} us/call   "
        f"warm {result.matmul_warm * 1e6:9.1f} us/call   "
        f"speedup {result.matmul_speedup:5.2f}x",
    ]
    if result.train_cold:
        lines.append(
            f"  train   cold {result.train_cold * 1e6:9.1f} us/step   "
            f"warm {result.train_warm * 1e6:9.1f} us/step   "
            f"speedup {result.train_speedup:5.2f}x")
    pc = result.plan_cache
    lines.append(
        f"  plans: {pc.get('size', 0)} cached, {pc.get('hits', 0)} hits / "
        f"{pc.get('misses', 0)} misses; max |diff| vs uncached "
        f"{result.max_abs_diff:.2e}")
    lines.append(
        f"  engine dispatch {result.engine_overhead * 100:+.2f}% "
        f"(paired median, shim vs direct impl on the warm path)")
    return "\n".join(lines)
