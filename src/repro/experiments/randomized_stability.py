"""Randomized APA stability: signed permutations vs aligned operands.

The error of one APA product is deterministic in its operands, and its
*magnitude* depends on where the heavy entries sit relative to the
recursion's block split: a column band of large-magnitude inner indices
lands in different sub-products depending on its offset, so the error
of a fleet of such products swings wildly with alignment.  The
``randomized`` stage (seeded signed permutation of the inner dimension,
Malik & Becker arXiv 1905.07439) scatters any alignment uniformly on
every call, which leaves the worst-case §2.3 bound unchanged but
collapses the error *variance* across the ensemble.

Two studies, both driven by ``benchmarks/bench_randomized.py`` into
``BENCH_randomized.json``:

- :func:`run_variance_study` — an ensemble of band-aligned operand
  pairs, each multiplied bare and through the randomized(+guarded)
  stack at the *same* lambda; the artifact gates
  ``var(randomized) < var(bare)`` at the theory-optimal lambda and
  reports an aggressive-lambda sweep alongside.
- :func:`run_fig5_randomized` — the Fig 5 MNIST protocol with the APA
  rule pushed to an aggressive lambda, with and without the
  randomized+guarded stack on the hidden products: the curve extension
  showing training stays on rails when the operand transform (and the
  guard's escalation ladder) absorb the extra approximation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import ExecutionEngine
from repro.experiments.fig5_mnist_accuracy import Fig5Run

__all__ = [
    "VarianceStudy",
    "make_aligned_pair",
    "run_variance_study",
    "format_variance_studies",
    "run_fig5_randomized",
]


@dataclass(frozen=True)
class VarianceStudy:
    """Error statistics of one bare-vs-randomized ensemble."""

    algorithm: str
    lam: float | None  # None = theory-optimal per dtype
    trials: int
    bare_errors: tuple[float, ...]
    randomized_errors: tuple[float, ...]
    guard_fallbacks: int  # classical rescues inside the randomized arm

    @property
    def bare_variance(self) -> float:
        return float(np.var(self.bare_errors))

    @property
    def randomized_variance(self) -> float:
        return float(np.var(self.randomized_errors))

    @property
    def variance_ratio(self) -> float:
        """randomized / bare — below 1 means the transform stabilized."""
        bare = self.bare_variance
        return self.randomized_variance / bare if bare > 0 else float("inf")

    @property
    def mean_ratio(self) -> float:
        bare = float(np.mean(self.bare_errors))
        return float(np.mean(self.randomized_errors)) / bare \
            if bare > 0 else float("inf")


def make_aligned_pair(
    rng: np.random.Generator,
    n: int = 256,
    band_width: int = 32,
    band_scale: float = 1e3,
    dtype: type = np.float32,
) -> tuple[np.ndarray, np.ndarray]:
    """One adversarially aligned operand pair.

    A contiguous band of ``band_width`` inner indices (columns of ``A``,
    matching rows of ``B``) is scaled by ``band_scale``; the band's
    offset is drawn from ``rng``, so across an ensemble the heavy block
    wanders over the recursion's split points — the alignment the
    signed permutation is designed to destroy.
    """
    A = rng.standard_normal((n, n)).astype(dtype)
    B = rng.standard_normal((n, n)).astype(dtype)
    offset = int(rng.integers(0, n))
    idx = (np.arange(band_width) + offset) % n
    A[:, idx] *= band_scale
    B[idx, :] *= band_scale
    return A, B


def run_variance_study(
    algorithm: str = "bini322",
    lam: float | None = None,
    trials: int = 32,
    n: int = 256,
    seed: int = 0,
    guarded: bool = True,
    engine: ExecutionEngine | None = None,
) -> VarianceStudy:
    """Multiply an aligned ensemble bare and randomized at the same lam.

    Every trial draws a fresh operand pair *and* a fresh ``rand_seed``
    (a production fleet does not replay one permutation), computes the
    relative max error of both arms against a float64 reference, and
    returns the paired error series.  ``guarded=True`` runs the
    randomized arm through the full guard+randomized stack — the
    acceptance configuration — and reports how often the guard's
    classical rescue fired (0 at sane lambdas; at aggressive lambdas a
    nonzero count means the comparison is conservative, since rescued
    calls have ~classical error).
    """
    engine = engine or ExecutionEngine()
    rng = np.random.default_rng(seed)
    bare: list[float] = []
    randomized: list[float] = []
    fallbacks = 0
    for trial in range(trials):
        A, B = make_aligned_pair(rng, n=n)
        C_ref = A.astype(np.float64) @ B.astype(np.float64)
        scale = float(np.max(np.abs(C_ref)))
        kwargs: dict = dict(algorithm=algorithm, steps=1)
        if lam is not None:
            kwargs["lam"] = lam
        C_bare = engine.matmul(A, B, **kwargs)
        stacked = engine.backend(guarded=guarded or None, randomized=True,
                                 rand_seed=seed * 100_003 + trial, **kwargs)
        C_rand = stacked.matmul(A, B)
        fallbacks += int(getattr(stacked, "fallback_calls", 0))
        bare.append(float(np.max(np.abs(C_bare - C_ref)) / scale))
        randomized.append(float(np.max(np.abs(C_rand - C_ref)) / scale))
    return VarianceStudy(
        algorithm=algorithm, lam=lam, trials=trials,
        bare_errors=tuple(bare), randomized_errors=tuple(randomized),
        guard_fallbacks=fallbacks)


def format_variance_studies(studies: list[VarianceStudy]) -> str:
    from repro.bench.tables import format_table

    rows = []
    for s in studies:
        rows.append([
            s.algorithm,
            "optimal" if s.lam is None else f"{s.lam:g}",
            s.trials,
            f"{float(np.mean(s.bare_errors)):.2e}",
            f"{float(np.mean(s.randomized_errors)):.2e}",
            f"{s.bare_variance:.2e}",
            f"{s.randomized_variance:.2e}",
            f"{s.variance_ratio:.3f}",
        ])
    return format_table(
        ["algorithm", "lam", "trials", "bare mean", "rand mean",
         "bare var", "rand var", "var ratio"],
        rows,
        title="Randomized APA error stability (aligned operand ensemble)",
    )


def run_fig5_randomized(
    algorithm: str = "bini322",
    lam: float = 0.25,
    epochs: int = 5,
    n_train: int = 6_000,
    n_test: int = 1_000,
    batch_size: int = 300,
    lr: float = 0.2,
    seed: int = 0,
) -> list[Fig5Run]:
    """Fig 5 curves at an aggressive lambda, with/without randomization.

    Three networks on the standard protocol: the classical reference,
    the bare APA rule at ``lam`` (well past the theory optimum — the
    error floor is orders of magnitude above the per-dtype bound), and
    the same rule behind the randomized+guarded stack.  Labels are
    ``classical`` / ``<name>`` / ``<name>+rand``.
    """
    from repro.core.backend import ClassicalBackend
    from repro.data.synth_mnist import load_synth_mnist
    from repro.nn.mlp import build_accuracy_mlp

    (x_train, y_train), (x_test, y_test) = load_synth_mnist(
        n_train=n_train, n_test=n_test, seed=seed)
    engine = ExecutionEngine()
    backends = [
        ("classical", ClassicalBackend()),
        (algorithm, engine.backend(algorithm=algorithm, lam=lam)),
        (f"{algorithm}+rand",
         engine.backend(algorithm=algorithm, lam=lam, steps=1,
                        guarded=True, randomized=True, rand_seed=seed)),
    ]
    runs: list[Fig5Run] = []
    for label, backend in backends:
        model = build_accuracy_mlp(
            hidden_backend=backend, rng=np.random.default_rng(seed + 1))
        history = model.fit(
            x_train, y_train,
            epochs=epochs, batch_size=batch_size, lr=lr,
            x_test=x_test, y_test=y_test,
            rng=np.random.default_rng(seed + 2),
        )
        runs.append(Fig5Run(algorithm=label, history=history))
    return runs
