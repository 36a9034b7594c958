"""Pluggable matmul backends — the paper's "custom operator" boundary.

The paper swaps TensorFlow's matmul for custom operators: a classical
gemm-backed one (the fair baseline) and one per APA algorithm.  Our neural
network layers take the same seam: anything satisfying
:class:`MatmulBackend` can be injected into a
:class:`~repro.nn.layers.Dense` layer, and it will be used for the
forward product and both backward products.

This module holds the protocol and the classical baseline; the APA
operator is an :class:`~repro.core.engine.EngineBackend`, built by
``default_engine().backend(algorithm=..., lam=..., steps=...)``.

Backends also count invocations and flops so the timing harness can
attribute training time to individual products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["MatmulBackend", "ClassicalBackend"]


@runtime_checkable
class MatmulBackend(Protocol):
    """Anything that multiplies two 2-D arrays."""

    name: str

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray: ...


@dataclass
class _CallStats:
    calls: int = 0
    flops: int = 0

    def record(self, A: np.ndarray, B: np.ndarray) -> None:
        self.calls += 1
        self.flops += 2 * A.shape[0] * A.shape[1] * B.shape[1]

    def reset(self) -> None:
        self.calls = 0
        self.flops = 0


@dataclass
class ClassicalBackend:
    """The baseline: a direct call to BLAS gemm via ``np.matmul``.

    Mirrors the paper's "custom classical operator that directly calls
    gemm".
    """

    name: str = "classical"
    stats: _CallStats = field(default_factory=_CallStats)

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        self.stats.record(A, B)
        return A @ B
