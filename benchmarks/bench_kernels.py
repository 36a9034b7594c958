"""Micro-benchmarks of the library's own kernels (not a paper figure).

Useful for profiling regressions in the plan evaluator, the surrogate
path, and the symbolic substrate.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import bench_scale

from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.core.surrogate import surrogate_matmul
from repro.linalg.tensor import matmul_tensor


def _n() -> int:
    return 1024 if bench_scale() == "paper" else 384


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    n = _n()
    return (rng.random((n, n)).astype(np.float32),
            rng.random((n, n)).astype(np.float32))


def test_interpreter_bini322(benchmark, operands):
    A, B = operands
    benchmark(apa_matmul, A, B, get_algorithm("bini322"))


def test_interpreter_strassen444(benchmark, operands):
    A, B = operands
    benchmark(apa_matmul, A, B, get_algorithm("strassen444"))


def test_surrogate_path(benchmark, operands):
    A, B = operands
    benchmark(surrogate_matmul, A, B, get_algorithm("smirnov444"))


def test_two_recursive_steps(benchmark, operands):
    A, B = operands
    benchmark(apa_matmul, A, B, get_algorithm("strassen222"), None, 2)


def test_matmul_tensor_construction(benchmark):
    benchmark(matmul_tensor, 5, 5, 5)
