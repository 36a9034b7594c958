"""Tests for Winograd convolution, error-structure validation, profiling,
and multi-step threaded execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.bench.profiling import profile_call
from repro.experiments.error_structure import (
    predicted_error,
    run_error_structure_check,
)
from repro.nn.winograd import (
    WINOGRAD_MULS_RATIO,
    direct_conv2d_valid,
    winograd_conv2d_3x3,
)
from repro.parallel.executor import threaded_apa_matmul


class TestWinogradConv:
    @pytest.mark.parametrize("shape", [
        (2, 3, 4, 8, 8),     # even tiles
        (1, 1, 1, 5, 7),     # odd output dims -> padding path
        (3, 4, 2, 9, 10),
        (1, 2, 3, 3, 3),     # single output pixel
    ])
    def test_matches_direct_convolution(self, shape, rng):
        b, ci, co, H, W = shape
        x = rng.standard_normal((b, ci, H, W))
        w = rng.standard_normal((co, ci, 3, 3))
        got = winograd_conv2d_3x3(x, w)
        want = direct_conv2d_valid(x, w)
        assert got.shape == want.shape == (b, co, H - 2, W - 2)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_exactness_with_integer_data(self, rng):
        """The transforms are dyadic rationals: integer inputs with
        moderate magnitude give *bitwise* exact results in float64."""
        x = rng.integers(-8, 9, (2, 2, 8, 8)).astype(np.float64)
        w = rng.integers(-4, 5, (3, 2, 3, 3)).astype(np.float64)
        assert np.array_equal(winograd_conv2d_3x3(x, w),
                              direct_conv2d_valid(x, w))

    def test_multiplication_saving_constant(self):
        assert WINOGRAD_MULS_RATIO == pytest.approx(16 / 36)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            winograd_conv2d_3x3(rng.standard_normal((1, 2, 8, 8)),
                                rng.standard_normal((3, 2, 5, 5)))
        with pytest.raises(ValueError):
            winograd_conv2d_3x3(rng.standard_normal((1, 1, 2, 8)),
                                rng.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ValueError):
            direct_conv2d_valid(rng.standard_normal((1, 1, 2, 8)),
                                rng.standard_normal((1, 1, 3, 3)))


class TestErrorStructure:
    @pytest.mark.parametrize("name", ["bini322", "bini232", "bini522",
                                       "bini322xstrassen"])
    def test_measured_error_matches_symbolic_prediction(self, name):
        """The deepest cross-layer check: the executor's measured error
        equals lambda * E(A, B) from the symbolic verifier, up to the
        O(lambda^2) tail (<1% at lambda = 2**-8)."""
        result = run_error_structure_check(name)
        assert result.relative_mismatch < 0.01
        assert result.measured_norm == pytest.approx(result.predicted_norm,
                                                     rel=0.01)

    def test_mismatch_shrinks_with_lambda(self):
        """The residual is the O(lambda^2) tail: halving lambda halves
        the relative mismatch."""
        coarse = run_error_structure_check("bini322", lam=2.0**-6)
        fine = run_error_structure_check("bini322", lam=2.0**-9)
        assert fine.relative_mismatch < coarse.relative_mismatch / 4

    def test_exact_algorithm_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            run_error_structure_check("strassen222")

    def test_predicted_error_is_bilinear(self, rng):
        alg = get_algorithm("bini322")
        A1 = rng.standard_normal((6, 4))
        A2 = rng.standard_normal((6, 4))
        B = rng.standard_normal((4, 4))
        lhs = predicted_error(alg, 2.0 * A1 - A2, B)
        rhs = 2.0 * predicted_error(alg, A1, B) - predicted_error(alg, A2, B)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestProfiling:
    def test_profile_returns_result_and_hotspots(self):
        def work():
            total = 0.0
            for _ in range(50):
                total += float(np.linalg.norm(np.random.rand(64, 64)))
            return total

        result, hotspots = profile_call(work, top=5)
        assert result > 0
        assert 1 <= len(hotspots) <= 5
        assert hotspots[0].cumulative_seconds >= hotspots[-1].cumulative_seconds
        assert all(h.calls >= 1 for h in hotspots)

    def test_gemm_dominates_apa_profile(self):
        """Profile-driven sanity: in an APA product the dot/matmul kernel
        must dominate cumulative time over the combination overhead."""
        from repro.core.apa_matmul import apa_matmul

        rng = np.random.default_rng(0)
        A = rng.random((512, 512)).astype(np.float32)
        B = rng.random((512, 512)).astype(np.float32)
        alg = get_algorithm("strassen444")
        _, hotspots = profile_call(apa_matmul, A, B, alg, top=30)
        matmul_rows = [h for h in hotspots if "matmul" in h.function
                       or "apa_matmul" in h.function]
        assert matmul_rows, "expected the matmul kernel among hotspots"

    def test_validation(self):
        with pytest.raises(ValueError):
            profile_call(lambda: None, top=0)


class TestMultiStepThreaded:
    def test_two_steps_exact(self, rng):
        A = rng.random((40, 36))
        B = rng.random((36, 28))
        C = threaded_apa_matmul(A, B, get_algorithm("strassen222"),
                                threads=3, steps=2)
        assert np.allclose(C, A @ B, rtol=1e-9, atol=1e-11)

    def test_two_steps_matches_sequential_plan(self, rng):
        from repro.core.apa_matmul import apa_matmul

        A = rng.random((32, 32))
        B = rng.random((32, 32))
        alg = get_algorithm("strassen222")
        assert np.array_equal(
            threaded_apa_matmul(A, B, alg, threads=2, steps=2),
            apa_matmul(A, B, alg, steps=2),
        )

    def test_apa_two_steps_error_scale(self, rng):
        alg = get_algorithm("bini322")
        A = rng.random((54, 54)).astype(np.float32)
        B = rng.random((54, 54)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        C = threaded_apa_matmul(A, B, alg, threads=2, steps=2)
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel < 8 * alg.error_bound(d=23, steps=2)

    def test_steps_validation(self, rng):
        with pytest.raises(ValueError):
            threaded_apa_matmul(rng.random((8, 8)), rng.random((8, 8)),
                                get_algorithm("strassen222"), threads=2,
                                steps=0)
