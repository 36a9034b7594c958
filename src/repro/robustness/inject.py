"""Seeded, deterministic fault injectors for testing the guard rails.

Real numerical accidents (a NaN escaping a worker, a lambda tuned off a
cliff) are rare and irreproducible; the injectors here manufacture them
on demand so every guard path is exercised by ordinary unit tests.  A
:class:`FaultSpec` names the fault and *exactly* which calls it hits
(explicit call indices, or a seeded per-call coin flip), so a failing
test replays bit-for-bit.

:func:`faulty_gemm` wraps a gemm callable — inject into individual
sub-products of :func:`~repro.core.apa_matmul.apa_matmul` or into the
scheduled jobs of ``engine.matmul(..., threads=t)``.  The engine's
``fault=`` knob builds the same injector: ``engine.backend(fault=spec)``
injects into a network layer's products mid-training (one call per
layer product when the layer is classical), armed and disarmed through
``backend.gemm.active``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["InjectedFault", "FaultSpec", "GemmFaultInjector", "faulty_gemm"]


class InjectedFault(RuntimeError):
    """Raised by ``kind='raise'`` injectors — distinguishable from real bugs."""


@dataclass(frozen=True)
class FaultSpec:
    """What to inject, and when.

    Parameters
    ----------
    kind:
        ``'nan'`` / ``'inf'`` poison entries of the result, ``'perturb'``
        adds a deterministic relative error of ``magnitude``, ``'raise'``
        raises :class:`InjectedFault`, ``'stall'`` sleeps
        ``stall_seconds`` before returning (a hung worker).
    calls:
        Explicit 0-based call indices to hit (takes precedence).  ``None``
        falls back to the ``probability`` coin flip.
    period:
        When set, call indices are taken modulo ``period`` before the
        ``calls`` match — ``calls=(2,), period=10`` poisons sub-product 2
        of *every* rank-10 product, a persistent rather than transient
        fault.
    probability:
        Per-call firing probability, drawn from a generator seeded with
        ``seed`` — deterministic across runs.
    magnitude:
        Relative error injected by ``'perturb'``.
    poison_fraction:
        Fraction of result entries poisoned by ``'nan'``/``'inf'``
        (at least one entry is always hit).
    """

    kind: str
    calls: tuple[int, ...] | None = None
    period: int | None = None
    probability: float = 1.0
    magnitude: float = 1e-2
    poison_fraction: float = 0.01
    stall_seconds: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("nan", "inf", "perturb", "raise", "stall"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if self.magnitude < 0 or not np.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite and >= 0")
        if not (0.0 < self.poison_fraction <= 1.0):
            raise ValueError("poison_fraction must be in (0, 1]")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")
        if self.period is not None and self.period < 1:
            raise ValueError("period must be >= 1")


class GemmFaultInjector:
    """A gemm callable that injects ``spec``'s fault into selected calls.

    Tracks ``calls_made`` and ``faults_fired`` so tests can assert the
    fault actually landed.  ``active`` can be flipped to arm/disarm the
    injector mid-run (used by the training-divergence studies).
    """

    def __init__(self, gemm=None, spec: FaultSpec | None = None) -> None:
        self.gemm = gemm if gemm is not None else np.matmul
        self.spec = spec or FaultSpec(kind="nan")
        self.calls_made = 0
        self.faults_fired = 0
        self.active = True
        self._rng = np.random.default_rng(self.spec.seed)
        # Injected into threaded executors: call counting and the seeded
        # stream must not race across workers.
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.calls_made = 0
            self.faults_fired = 0
            self._rng = np.random.default_rng(self.spec.seed)

    def _fires(self, index: int) -> bool:
        if not self.active:
            return False
        if self.spec.calls is not None:
            if self.spec.period is not None:
                index %= self.spec.period
            return index in self.spec.calls
        if self.spec.probability >= 1.0:
            return True
        return bool(self._rng.random() < self.spec.probability)

    def _poison(self, C: np.ndarray, value: float) -> np.ndarray:
        C = np.array(C, copy=True)
        flat = C.reshape(-1)
        count = max(1, int(round(self.spec.poison_fraction * flat.size)))
        # Deterministic positions from the seeded stream.
        idx = self._rng.choice(flat.size, size=count, replace=False)
        flat[idx] = value
        return C

    def __call__(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        with self._lock:
            index = self.calls_made
            self.calls_made += 1
            fires = self._fires(index)
            if fires:
                self.faults_fired += 1
        if not fires:
            return self.gemm(A, B)
        kind = self.spec.kind
        if kind == "raise":
            raise InjectedFault(f"injected worker failure on call {index}")
        if kind == "stall":
            time.sleep(self.spec.stall_seconds)
            return self.gemm(A, B)
        C = self.gemm(A, B)
        with self._lock:
            if kind == "nan":
                return self._poison(C, np.nan)
            if kind == "inf":
                return self._poison(C, np.inf)
            # kind == "perturb": deterministic structured relative error
            E = self._rng.standard_normal(C.shape)
        e_norm = np.linalg.norm(E)
        c_norm = np.linalg.norm(C)
        if e_norm == 0 or c_norm == 0:
            return C
        return C + (self.spec.magnitude * c_norm / e_norm) * E


def faulty_gemm(spec: FaultSpec, gemm=None) -> GemmFaultInjector:
    """Convenience constructor mirroring ``functools.partial`` usage."""
    return GemmFaultInjector(gemm=gemm, spec=spec)

