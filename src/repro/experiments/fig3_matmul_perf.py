"""Fig 3 — standalone matrix-multiplication performance (1/6/12 threads).

Y-axis is *effective GFLOPS* ``1e-9 * 2 n^3 / time`` so algorithms doing
different amounts of work share an axis; the dotted machine-peak line of
the paper is ``threads * peak_core``.  Timings come from the calibrated
machine model (DESIGN.md §2); a ``measured`` mode times the real threaded
executor instead, for use on actual multicore hosts.

Headline shapes the figure must show (and the tests assert):

- Fig 3a (1 thread): all APA algorithms beat gemm beyond ~2000, the best
  (``<4,4,4>``) by ~28% at n=8192;
- Fig 3b (6 threads): speedups compress to ~25% max, crossover ~2000;
- Fig 3c (12 threads): most APA algorithms at/below gemm; the
  remainder-free ``<4,4,2>`` (24 = 2 x 12 sub-products) wins by ~21%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.catalog import PAPER_ALGORITHMS, get_algorithm
from repro.bench.tables import format_table
from repro.bench.timing import measure
from repro.core.engine import default_engine
from repro.machine.spec import MachineSpec, paper_machine
from repro.parallel.simulator import simulate_classical, simulate_fast

__all__ = ["Fig3Point", "run_fig3", "format_fig3", "FIG3_DIMS_PAPER"]

FIG3_DIMS_PAPER: tuple[int, ...] = (512, 1024, 2048, 3072, 4096, 6144, 8192)


@dataclass(frozen=True)
class Fig3Point:
    algorithm: str
    n: int
    threads: int
    seconds: float
    effective_gflops: float
    speedup_vs_classical: float  # fractional, e.g. 0.28


def run_fig3(
    threads: int = 1,
    dims: tuple[int, ...] = FIG3_DIMS_PAPER,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    spec: MachineSpec | None = None,
    strategy: str = "hybrid",
    mode: str = "simulated",
    repeats: int = 3,
    dtype=np.float32,
) -> list[Fig3Point]:
    """One panel of Fig 3 (pick ``threads`` in {1, 6, 12}).

    ``mode='simulated'`` prices the schedules on the machine model;
    ``mode='measured'`` wall-clocks the real threaded executor (real
    algorithms only — surrogates have no coefficients to execute).
    """
    if mode not in ("simulated", "measured"):
        raise ValueError("mode must be 'simulated' or 'measured'")
    spec = spec or paper_machine()
    points: list[Fig3Point] = []

    for n in dims:
        if mode == "simulated":
            t_classical = simulate_classical(n, n, n, threads=threads, spec=spec).total
        else:
            rng = np.random.default_rng(0)
            A = rng.random((n, n)).astype(dtype)
            B = rng.random((n, n)).astype(dtype)
            t_classical = measure(lambda: A @ B, repeats=repeats).best
        points.append(
            Fig3Point("classical", n, threads, t_classical,
                      2.0 * n**3 / t_classical / 1e9, 0.0)
        )
        for name in algorithms:
            alg = get_algorithm(name)
            if mode == "simulated":
                t = simulate_fast(
                    alg, n, n, n, threads=threads, strategy=strategy, spec=spec
                ).total
            else:
                if alg.is_surrogate:
                    continue
                t = measure(
                    lambda: default_engine().matmul(
                        A, B, alg, threads=threads, strategy=strategy),
                    repeats=repeats,
                ).best
            points.append(
                Fig3Point(name, n, threads, t, 2.0 * n**3 / t / 1e9,
                          t_classical / t - 1.0)
            )
    return points


def format_fig3(points: list[Fig3Point], spec: MachineSpec | None = None) -> str:
    spec = spec or paper_machine()
    threads = points[0].threads if points else 1
    peak = spec.peak_flops(threads) / 1e9
    headers = ["algorithm", "n", "eff GFLOPS", "speedup"]
    rows = [
        [p.algorithm, p.n, f"{p.effective_gflops:.1f}",
         f"{p.speedup_vs_classical * 100:+.1f}%"]
        for p in points
    ]
    return format_table(
        headers, rows,
        title=(f"Fig 3 ({threads} threads): effective GFLOPS "
               f"(classical machine peak {peak:.0f})"),
    )


if __name__ == "__main__":
    for p in (1, 6, 12):
        print(format_fig3(run_fig3(threads=p, dims=(2048, 8192))))
        print()
