"""Extension studies beyond the paper's evaluation section.

Three studies the paper motivates but does not run:

- :func:`run_precision_study` — the Fig-1 protocol repeated across
  floating-point formats (float16/32/64): the minimum error scales as
  ``2**(-d*sigma/(sigma+phi))`` in the format's fractional bits ``d``,
  so each format shifts the whole figure vertically;
- :func:`run_conv_study` — APA products inside convolutional layers via
  im2col (paper §1 cites convolution-as-matmul as the other big
  beneficiary): accuracy effect on a small CNN and the simulated speedup
  of the lowered products;
- :func:`run_roofline_study` — roofline placement of every Table-1
  algorithm at 1/6/12 threads, quantifying §3.4's "additions are the
  biggest impediment".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.catalog import PAPER_ALGORITHMS, get_algorithm
from repro.bench.metrics import relative_frobenius_error
from repro.bench.tables import format_table
from repro.core.apa_matmul import apa_matmul
from repro.core.lam import lambda_candidates, precision_bits
from repro.machine.roofline import roofline_analysis
from repro.machine.spec import MachineSpec
from repro.parallel.simulator import simulate_classical, simulate_fast

__all__ = [
    "PrecisionPoint", "run_precision_study", "format_precision_study",
    "ConvStudyResult", "run_conv_study",
    "run_roofline_study", "format_roofline_study",
]


@dataclass(frozen=True)
class PrecisionPoint:
    algorithm: str
    dtype: str
    d: int
    error: float
    bound: float


def run_precision_study(
    algorithms: tuple[str, ...] = ("bini322", "schonhage333", "smirnov444"),
    dtypes=(np.float16, np.float32, np.float64),
    n: int = 96,
    seed: int = 0,
) -> list[PrecisionPoint]:
    """Tuned-lambda error per floating-point format.

    float16 products are computed in float32 with inputs/outputs rounded
    to float16 (NumPy has no native half gemm), which reproduces the
    error floor of a d=10 format.
    """
    rng = np.random.default_rng(seed)
    A64 = rng.random((n, n))
    B64 = rng.random((n, n))
    C_ref = A64 @ B64
    points = []
    for dtype in dtypes:
        d = precision_bits(dtype)
        A = A64.astype(dtype)
        B = B64.astype(dtype)
        for name in algorithms:
            alg = get_algorithm(name)
            best = np.inf
            for lam in lambda_candidates(alg, d=d):
                if np.dtype(dtype) == np.float16:
                    C = apa_matmul(A.astype(np.float32), B.astype(np.float32),
                                   alg, lam=lam, d=d).astype(np.float16)
                else:
                    C = apa_matmul(A, B, alg, lam=lam, d=d)
                best = min(best, relative_frobenius_error(C, C_ref))
            points.append(PrecisionPoint(name, np.dtype(dtype).name, d,
                                         best, alg.error_bound(d=d)))
    return points


def format_precision_study(points: list[PrecisionPoint]) -> str:
    rows = [[p.algorithm, p.dtype, p.d, f"{p.error:.2e}", f"{p.bound:.2e}"]
            for p in points]
    return format_table(
        ["algorithm", "dtype", "d", "rel error", "bound"],
        rows, title="Extension: APA error across floating-point formats",
    )


@dataclass(frozen=True)
class ConvStudyResult:
    algorithm: str
    test_accuracy: float
    classical_accuracy: float
    simulated_speedup_im2col: float


def run_conv_study(
    algorithm: str = "smirnov442",
    epochs: int = 3,
    n_train: int = 1200,
    n_test: int = 300,
    seed: int = 0,
    spec: MachineSpec | None = None,
) -> ConvStudyResult:
    """APA products in convolutional layers (im2col lowering).

    Trains a small CNN on the synthetic digits with the APA backend
    inside every Conv2D, compares test accuracy against classical, and
    prices the im2col product of a VGG-scale conv layer
    (conv4-512 at 28x28, batch 32: a (25088 x 4608) @ (4608 x 512)
    product) on the machine model.  Narrower conv layers lower the
    im2col product too much for fast algorithms — the same size
    threshold the paper reports for dense layers.
    """
    from repro.core.backend import ClassicalBackend
    from repro.core.engine import default_engine
    from repro.data.synth_mnist import load_synth_mnist
    from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
    from repro.nn.model import Sequential

    (x, y), (xt, yt) = load_synth_mnist(n_train=n_train, n_test=n_test,
                                        seed=seed, flatten=False)
    x = x[:, None, :, :]
    xt = xt[:, None, :, :]

    def build(backend_name):
        rng = np.random.default_rng(seed)
        be = (ClassicalBackend() if backend_name is None
              else default_engine().backend(algorithm=backend_name))
        return Sequential([
            Conv2D(1, 8, kernel_size=3, padding=1, backend=be, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, kernel_size=3, padding=1, backend=be, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(16 * 7 * 7, 10, rng=rng),
        ])

    accs = {}
    for backend_name in (None, algorithm):
        model = build(backend_name)
        hist = model.fit(x, y, epochs=epochs, batch_size=100, lr=0.1,
                         x_test=xt, y_test=yt,
                         rng=np.random.default_rng(seed + 1))
        accs[backend_name] = hist.test_accuracy[-1]

    # im2col product of VGG conv4-512 at 28x28, batch 32
    alg = get_algorithm(algorithm)
    M, N, K = 32 * 28 * 28, 512 * 9, 512
    base = simulate_classical(M, N, K, threads=1, spec=spec).total
    fast = simulate_fast(alg, M, N, K, threads=1, spec=spec).total
    return ConvStudyResult(
        algorithm=algorithm,
        test_accuracy=accs[algorithm],
        classical_accuracy=accs[None],
        simulated_speedup_im2col=base / fast - 1.0,
    )


def run_roofline_study(
    dims: int = 8192,
    threads_list: tuple[int, ...] = (1, 6, 12),
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    spec: MachineSpec | None = None,
):
    """Roofline placement of every algorithm per thread count."""
    points = []
    for threads in threads_list:
        for name in algorithms:
            alg = get_algorithm(name)
            points.append(roofline_analysis(alg, dims, dims, dims,
                                            threads=threads, spec=spec))
    return points


def format_roofline_study(points) -> str:
    rows = [
        [p.algorithm, p.threads, f"{p.arithmetic_intensity:.0f}",
         f"{p.machine_balance:.0f}",
         "bandwidth" if p.bandwidth_limited else "compute",
         f"{p.addition_time_share_bound * 100:.1f}%"]
        for p in points
    ]
    return format_table(
        ["algorithm", "threads", "flops/byte", "balance", "regime",
         "min add share"],
        rows,
        title="Extension: roofline placement of the addition traffic (§3.4)",
    )
