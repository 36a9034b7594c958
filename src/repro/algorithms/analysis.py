"""Per-algorithm analytics: everything a user wants to know in one report.

Collects, for any catalog entry, the quantities that decide whether to
use it: dims/rank/speedup, error parameters and floors per precision,
coefficient sparsity, naive vs CSE-optimized addition counts, workspace
overhead, and the sequential crossover dimension on the modelled machine.
Feeds the CLI ``info`` command and the catalog report table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.algorithms.spec import AlgorithmLike
from repro.bench.tables import format_table

__all__ = [
    "AlgorithmReport",
    "analyze_algorithm",
    "catalog_report",
    "frobenius_growth",
    "growth_product_squared",
    "predicted_error_bound",
]


def predicted_error_bound(
    algorithm: AlgorithmLike | str | None = None,
    d: int = 23,
    steps: int = 1,
    inner_dim: int = 1,
) -> float:
    """Predicted relative error of one product — the guard's yardstick.

    For an APA/exact algorithm this is its analytic floor
    :meth:`~repro.algorithms.spec.Algorithm.error_bound`, never below the
    classical forward-error growth ``inner_dim * 2**-d`` that any gemm
    over ``inner_dim``-long dot products accrues.  With no algorithm
    (classical gemm) only the growth term remains.  Runtime health checks
    compare a measured residual against a small multiple of this value.
    """
    if d <= 0:
        raise ValueError("precision bits d must be positive")
    if inner_dim < 1:
        raise ValueError("inner_dim must be >= 1")
    classical = inner_dim * 2.0**-d
    if algorithm is None:
        return classical
    if isinstance(algorithm, str):
        from repro.algorithms.catalog import get_algorithm

        algorithm = get_algorithm(algorithm)
    return max(algorithm.error_bound(d=d, steps=steps), classical)


def growth_product_squared(
    algorithm: AlgorithmLike | str, lam: Fraction | int = 1
) -> Fraction:
    """Exact squared Frobenius growth product ``(||U|| ||V|| ||W||)^2``.

    The coefficient-growth measure Dumas–Pernet–Sedoglavic (arXiv
    2402.05630) minimize over the basis-change orbit of a rule: the
    accumulated roundoff of a recursive bilinear algorithm scales with
    the magnitude of its coefficients, and the product of factor
    Frobenius norms is the orbit-optimizable proxy for it (Strassen's
    published coefficients give ``1728``; the accuracy-optimal variant
    reaches ``531441/512``).  Returned as the *squared* product so the
    comparison stays exact rational; Laurent entries are evaluated at
    ``lam`` (default 1, i.e. the nominal coefficient including every
    order of the APA perturbation).
    """
    if isinstance(algorithm, str):
        from repro.algorithms.catalog import get_algorithm

        algorithm = get_algorithm(algorithm)
    if algorithm.is_surrogate:
        raise ValueError(
            f"{algorithm.name!r} is a surrogate; growth needs coefficients")
    lam = Fraction(lam)
    product = Fraction(1)
    for M in (algorithm.U, algorithm.V, algorithm.W):
        sq = Fraction(0)
        for entry in M.flat:
            if entry and not entry.is_zero():
                sq += entry.evaluate_exact(lam) ** 2
        product *= sq
    return product


def frobenius_growth(algorithm: AlgorithmLike | str,
                     lam: Fraction | int = 1) -> float:
    """``||U||_F * ||V||_F * ||W||_F`` as a float (see
    :func:`growth_product_squared` for the exact squared value)."""
    return math.sqrt(float(growth_product_squared(algorithm, lam=lam)))


@dataclass(frozen=True)
class AlgorithmReport:
    name: str
    signature: str
    is_exact: bool
    is_surrogate: bool
    speedup_percent: float
    sigma: int
    phi: int
    error_f32: float
    error_f64: float
    nnz: tuple[int, int, int]
    additions_naive: int
    additions_cse: int | None  # None for surrogates (no coefficients)
    workspace_overhead: float  # x classical footprint at n=4096
    crossover_seq: int | None

    def describe(self) -> str:
        lines = [
            f"{self.name} {self.signature}"
            + (" [exact]" if self.is_exact else "")
            + (" [surrogate]" if self.is_surrogate else ""),
            f"  ideal speedup : {self.speedup_percent:.0f}% per step",
            f"  error params  : sigma={self.sigma} phi={self.phi}",
            f"  error floors  : {self.error_f32:.1e} (f32), "
            f"{self.error_f64:.1e} (f64)",
            f"  nonzeros      : U={self.nnz[0]} V={self.nnz[1]} W={self.nnz[2]}",
            f"  additions     : {self.additions_naive} naive"
            + (f", {self.additions_cse} with CSE"
               if self.additions_cse is not None else " (modelled)"),
            f"  workspace     : +{self.workspace_overhead * 100:.0f}% of the "
            "classical footprint (n=4096, 1 step)",
            "  seq crossover : "
            + (f"n ~ {self.crossover_seq}" if self.crossover_seq
               else "never below 32768"),
        ]
        return "\n".join(lines)


def analyze_algorithm(algorithm: AlgorithmLike | str, crossover: bool = True,
                      cse_max_rank: int = 200) -> AlgorithmReport:
    """Build the full report for one algorithm (catalog object or name).

    CSE is greedy-quadratic in the coefficient count, so it is skipped
    (reported as ``None``) above ``cse_max_rank`` — run it explicitly via
    :mod:`repro.algorithms.cse` for the XL tensor-product rules.
    """
    if isinstance(algorithm, str):
        from repro.algorithms.catalog import get_algorithm

        algorithm = get_algorithm(algorithm)

    from repro.core.memory import workspace_bytes

    additions_cse = None
    if not algorithm.is_surrogate and algorithm.rank <= cse_max_rank:
        from repro.algorithms.cse import eliminate_common_subexpressions

        additions_cse = (
            eliminate_common_subexpressions(algorithm.U).additions
            + eliminate_common_subexpressions(algorithm.V).additions
            + eliminate_common_subexpressions(algorithm.W.T).additions
        )

    au, av, aw = algorithm.addition_counts()
    est = workspace_bytes(algorithm, 4096, 4096, 4096)

    crossover_n = None
    if crossover:
        from repro.parallel.autotune import crossover_dimension

        crossover_n = crossover_dimension(algorithm.name, threads=1)

    sigma = 1 if algorithm.is_exact else algorithm.sigma
    return AlgorithmReport(
        name=algorithm.name,
        signature=algorithm.signature(),
        is_exact=algorithm.is_exact,
        is_surrogate=algorithm.is_surrogate,
        speedup_percent=algorithm.speedup_percent,
        sigma=sigma,
        phi=algorithm.phi,
        error_f32=algorithm.error_bound(d=23),
        error_f64=algorithm.error_bound(d=52),
        nnz=algorithm.nnz(),
        additions_naive=au + av + aw,
        additions_cse=additions_cse,
        workspace_overhead=est.overhead_vs_classical(4096, 4096, 4096),
        crossover_seq=crossover_n,
    )


def catalog_report(names: list[str] | None = None,
                   crossover: bool = False) -> str:
    """One-row-per-algorithm summary table of the whole catalog."""
    from repro.algorithms.catalog import list_algorithms

    names = names or list_algorithms("all")
    rows = []
    for name in names:
        r = analyze_algorithm(name, crossover=crossover)
        rows.append([
            r.name, r.signature, f"{r.speedup_percent:.0f}%",
            r.sigma, r.phi, f"{r.error_f32:.0e}",
            r.additions_naive,
            r.additions_cse if r.additions_cse is not None else "-",
            "surrogate" if r.is_surrogate else
            ("exact" if r.is_exact else "APA"),
        ])
    return format_table(
        ["name", "dims:rank", "speedup", "sigma", "phi", "err@f32",
         "adds", "adds(CSE)", "kind"],
        rows, title="Catalog report",
    )
