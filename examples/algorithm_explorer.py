#!/usr/bin/env python3
"""Tour of the algorithm machinery: verify, transform, plan, search.

Run:  python examples/algorithm_explorer.py

Shows the library's symbolic layer at work:

1. symbolic verification of every real algorithm in the catalog (exact
   rational arithmetic — a passing report is a proof);
2. building new algorithms from old via the paper's §6 transforms
   (permutation, tensor product, stacking);
3. the execution plan for Bini's rule — the paper's §3 write-once
   linear combinations, r gemms, and output scatters — with its naive
   and CSE addition counts;
4. ALS numerically rediscovering a rank-7 <2,2,2> algorithm — the route
   by which the Smirnov-class rules of Table 1 were found.
"""

import numpy as np

from repro.algorithms.analysis import analyze_algorithm
from repro.algorithms.bini import bini322_algorithm
from repro.algorithms.catalog import get_algorithm, list_algorithms
from repro.algorithms.search import discover_algorithm
from repro.algorithms.strassen import strassen_algorithm
from repro.algorithms.transforms import permute, stack_m, tensor_product
from repro.algorithms.verify import verify_algorithm
from repro.core.lam import optimal_lambda
from repro.core.plan import PlanCache


def _combo(terms, operand: str, cols: int) -> str:
    """``[(block, coeff), ...]`` as ``+1*A00 -0.00391*A11`` (row-major)."""
    return " ".join(f"{c:+.3g}*{operand}{p // cols}{p % cols}"
                    for p, c in terms)


def main() -> None:
    print("=== 1. symbolic verification of the real catalog ===")
    for name in list_algorithms("real"):
        alg = get_algorithm(name)
        report = verify_algorithm(alg)
        print(f"  {name:18s} {alg.signature():12s} phi={alg.phi}  "
              f"{report.summary()}")

    print("\n=== 2. composing new algorithms ===")
    bini = bini322_algorithm()
    strassen = strassen_algorithm()
    for alg in (
        permute(bini, (1, 2, 0), name="bini-rotated"),
        tensor_product(bini, strassen, name="bini(x)strassen"),
        stack_m(bini, bini, name="bini-stacked"),
    ):
        report = verify_algorithm(alg)
        print(f"  {alg.name:18s} {alg.signature():12s} "
              f"speedup {alg.speedup_percent:5.1f}%  {report.summary()}")

    print("\n=== 3. execution plan for Bini's <3,2,2> rule ===")
    lam = optimal_lambda(bini)
    plan = PlanCache().plan_for(bini, 96, 64, 64, np.float32, lam=lam)
    print(f"  lambda = {lam:g}; P_i = S_i @ T_i, then C += w * P_i")
    for i, (s, t, w) in enumerate(
            zip(plan.s_terms, plan.t_terms, plan.w_terms)):
        print(f"  P{i}: S = {_combo(s, 'A', bini.n)}")
        print(f"       T = {_combo(t, 'B', bini.k)}")
        print(f"       w = {_combo(w, 'C', bini.k)}")
    report = analyze_algorithm(bini, crossover=False)
    print(f"  additions: {report.additions_naive} naive (write-once), "
          f"{report.additions_cse} with CSE")

    print("\n=== 4. ALS rediscovers Strassen's rank ===")
    result = discover_algorithm(2, 2, 2, 7, restarts=8, iters=800, seed=0)
    print(f"  rank-7 <2,2,2> search: residual {result.residual:.2e}, "
          f"converged={result.converged}")
    result5 = discover_algorithm(2, 2, 2, 5, restarts=2, iters=150, seed=0)
    print(f"  rank-5 (impossible) search: residual {result5.residual:.2e} "
          "— correctly stalls, no such algorithm exists")


if __name__ == "__main__":
    main()
