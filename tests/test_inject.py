"""Tests for the deterministic fault injectors."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.backend import MatmulBackend
from repro.core.engine import default_engine
from repro.robustness.inject import (
    FaultSpec,
    GemmFaultInjector,
    InjectedFault,
    faulty_gemm,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="gremlin")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 1.5},
            {"probability": -0.1},
            {"magnitude": -1.0},
            {"magnitude": float("inf")},
            {"poison_fraction": 0.0},
            {"poison_fraction": 1.5},
            {"stall_seconds": -1.0},
            {"period": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(kind="nan", **kwargs)


class TestGemmFaultInjector:
    def test_nan_poisons_selected_call_only(self, rng):
        inj = faulty_gemm(FaultSpec(kind="nan", calls=(1,)))
        A, B = rng.random((6, 6)), rng.random((6, 6))
        first = inj(A, B)
        second = inj(A, B)
        third = inj(A, B)
        assert np.isfinite(first).all() and np.isfinite(third).all()
        assert np.isnan(second).any()
        assert inj.calls_made == 3 and inj.faults_fired == 1

    def test_inf_poison(self, rng):
        inj = faulty_gemm(FaultSpec(kind="inf", calls=(0,)))
        C = inj(rng.random((5, 5)), rng.random((5, 5)))
        assert np.isinf(C).any()

    def test_poison_does_not_mutate_clean_product(self, rng):
        """The injector poisons a copy — the underlying gemm's output
        buffer (potentially a view into caller state) is untouched."""
        store = {}

        def gemm(A, B):
            store["C"] = A @ B
            return store["C"]

        inj = GemmFaultInjector(gemm=gemm, spec=FaultSpec(kind="nan"))
        inj(rng.random((4, 4)), rng.random((4, 4)))
        assert np.isfinite(store["C"]).all()

    def test_period_makes_fault_persistent(self, rng):
        inj = faulty_gemm(FaultSpec(kind="nan", calls=(2,), period=7))
        A, B = rng.random((4, 4)), rng.random((4, 4))
        hits = [np.isnan(inj(A, B)).any() for _ in range(14)]
        assert hits[2] and hits[9]
        assert sum(hits) == 2

    def test_deterministic_given_seed(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        spec = FaultSpec(kind="nan", probability=0.5, seed=7,
                         poison_fraction=0.25)
        runs = []
        for _ in range(2):
            inj = faulty_gemm(spec)
            runs.append(np.array([inj(A, B) for _ in range(6)]))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_reset_replays_the_same_faults(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        inj = faulty_gemm(FaultSpec(kind="nan", probability=0.5, seed=3))
        first = np.array([inj(A, B) for _ in range(6)])
        inj.reset()
        assert inj.calls_made == 0 and inj.faults_fired == 0
        second = np.array([inj(A, B) for _ in range(6)])
        np.testing.assert_array_equal(first, second)

    def test_perturb_injects_requested_magnitude(self, rng):
        A, B = rng.random((16, 16)), rng.random((16, 16))
        inj = faulty_gemm(FaultSpec(kind="perturb", magnitude=1e-2))
        C = inj(A, B)
        ref = A @ B
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel == pytest.approx(1e-2, rel=1e-6)

    def test_raise_kind(self, rng):
        inj = faulty_gemm(FaultSpec(kind="raise"))
        with pytest.raises(InjectedFault):
            inj(rng.random((3, 3)), rng.random((3, 3)))
        assert inj.faults_fired == 1

    def test_stall_kind_delays_then_returns_correct_result(self, rng):
        inj = faulty_gemm(FaultSpec(kind="stall", stall_seconds=0.05))
        A, B = rng.random((4, 4)), rng.random((4, 4))
        t0 = time.perf_counter()
        C = inj(A, B)
        assert time.perf_counter() - t0 >= 0.05
        assert np.allclose(C, A @ B)

    def test_inactive_injector_is_a_passthrough(self, rng):
        inj = faulty_gemm(FaultSpec(kind="raise"))
        inj.active = False
        A, B = rng.random((4, 4)), rng.random((4, 4))
        assert np.allclose(inj(A, B), A @ B)
        assert inj.faults_fired == 0


class TestFaultyBackend:
    """A faulty layer backend: ``engine.backend(fault=spec)``.

    With no algorithm the injector wraps the one classical gemm, so the
    fault fires per backend call (per layer product).
    """

    def test_satisfies_backend_protocol_and_fires(self, rng):
        be = default_engine().backend(fault=FaultSpec(kind="nan"))
        assert isinstance(be, MatmulBackend)
        assert isinstance(be.gemm, GemmFaultInjector)
        C = be.matmul(rng.random((4, 4)), rng.random((4, 4)))
        assert np.isnan(C).any()
        assert be.gemm.calls_made == be.gemm.faults_fired == 1

    def test_arm_disarm(self, rng):
        be = default_engine().backend(fault=FaultSpec(kind="nan"))
        be.gemm.active = False
        A, B = rng.random((4, 4)), rng.random((4, 4))
        assert np.array_equal(be.matmul(A, B), A @ B)
        be.gemm.active = True
        assert np.isnan(be.matmul(A, B)).any()
