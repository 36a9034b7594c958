"""repro — APA fast matrix multiplication for neural-network training.

A faithful, self-contained reproduction of

    Ballard, Weissenberger & Zhang,
    "Accelerating Neural Network Training using Arbitrary Precision
    Approximating Matrix Multiplication Algorithms", ICPP Workshops 2021.

Public API highlights:

- :func:`repro.apa_matmul` — multiply with any catalogued algorithm;
- :func:`repro.get_algorithm` / :func:`repro.list_algorithms` — the
  Table-1 catalog (Bini, Strassen and derived rules with full symbolic
  coefficients; Smirnov-class rules as metadata surrogates);
- :func:`repro.optimal_lambda` / :func:`repro.tune_lambda` — the APA
  parameter choice of paper §2.3;
- :mod:`repro.nn` — a NumPy MLP/CNN library with pluggable matmul
  backends, mirroring the paper's custom TensorFlow operators;
- :mod:`repro.parallel` — hybrid/BFS/DFS schedules, a real threaded
  executor, and the calibrated machine-model simulator used to regenerate
  the performance figures;
- :mod:`repro.experiments` — one driver per table/figure of the paper.
"""

from repro.algorithms import (
    BilinearAlgorithm,
    TABLE1,
    get_algorithm,
    list_algorithms,
    verify_algorithm,
)
from repro.core import (
    ClassicalBackend,
    apa_matmul,
    optimal_lambda,
    precision_bits,
    tune_lambda,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BilinearAlgorithm",
    "TABLE1",
    "get_algorithm",
    "list_algorithms",
    "verify_algorithm",
    "apa_matmul",
    "optimal_lambda",
    "tune_lambda",
    "precision_bits",
    "ClassicalBackend",
]
