"""Tests for surrogate execution (structured error injection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.engine import default_engine
from repro.core.lam import optimal_lambda
from repro.core.surrogate import (
    structured_error,
    surrogate_matmul,
    surrogate_relative_error,
)


class TestStructuredError:
    def test_deterministic(self, rng):
        A = rng.random((10, 8))
        B = rng.random((8, 6))
        assert np.array_equal(structured_error(A, B, "x"),
                              structured_error(A, B, "x"))

    def test_tag_changes_pattern(self, rng):
        A = rng.random((10, 8))
        B = rng.random((8, 6))
        assert not np.allclose(structured_error(A, B, "x"),
                               structured_error(A, B, "y"))

    def test_bilinear_in_inputs(self, rng):
        """E(aA1 + bA2, B) == a E(A1, B) + b E(A2, B) — matches the
        bilinearity of true APA error tensors."""
        A1, A2 = rng.random((6, 5)), rng.random((6, 5))
        B = rng.random((5, 4))
        lhs = structured_error(2.0 * A1 - 3.0 * A2, B, "t")
        rhs = 2.0 * structured_error(A1, B, "t") - 3.0 * structured_error(A2, B, "t")
        assert np.allclose(lhs, rhs)

    def test_shape(self, rng):
        E = structured_error(rng.random((7, 5)), rng.random((5, 3)), "t")
        assert E.shape == (7, 3)

    def test_not_a_reweighting_of_the_product(self, rng):
        """E is a different bilinear form from C = A @ B, not ±C entrywise:
        sign patterns on the outer indices factor out of the product and
        would leave |E| == |C|, a sign-preserving step-size jitter rather
        than an APA error.  For zero-mean operands E is also nearly
        uncorrelated with C (expected cosine ~ 1/sqrt(K))."""
        K = 128
        A = rng.standard_normal((50, K))
        B = rng.standard_normal((K, 30))
        C = A @ B
        E = structured_error(A, B, "t")
        assert not np.allclose(np.abs(E), np.abs(C))
        cosine = np.sum(E * C) / (np.linalg.norm(E) * np.linalg.norm(C))
        assert abs(cosine) < 3 / np.sqrt(K)


class TestSurrogateMatmul:
    def test_relative_error_matches_model(self, rng):
        alg = get_algorithm("smirnov444")
        A = rng.random((96, 96)).astype(np.float32)
        B = rng.random((96, 96)).astype(np.float32)
        C = surrogate_matmul(A, B, alg)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel == pytest.approx(alg.empirical_error_scale(d=23), rel=0.05)

    def test_error_ordering_follows_phi(self, rng):
        """Fig-1 ordering: larger phi class -> larger injected error."""
        A = rng.random((64, 64)).astype(np.float32)
        B = rng.random((64, 64)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)

        def rel(name):
            C = surrogate_matmul(A, B, get_algorithm(name))
            return np.linalg.norm(C - ref) / np.linalg.norm(ref)

        assert rel("alekseev422") < rel("smirnov444") < rel("smirnov333")

    def test_prefactor_exceptions_land_low(self, rng):
        """<7,2,2> (phi=5) lands below plain phi=3 algorithms thanks to
        its fractional prefactors — the paper's Fig-1 anomaly."""
        A = rng.random((64, 64)).astype(np.float32)
        B = rng.random((64, 64)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)

        def rel(name):
            C = surrogate_matmul(A, B, get_algorithm(name))
            return np.linalg.norm(C - ref) / np.linalg.norm(ref)

        assert rel("smirnov722") < get_algorithm("smirnov722").error_bound(23)
        assert rel("smirnov555") < rel("smirnov444")

    def test_inject_error_false_is_exact(self, rng):
        A = rng.random((32, 32))
        B = rng.random((32, 32))
        C = surrogate_matmul(A, B, get_algorithm("smirnov444"), inject_error=False)
        assert np.allclose(C, A @ B)

    def test_lambda_off_optimum_grows_error(self, rng):
        alg = get_algorithm("smirnov444")
        A = rng.random((64, 64)).astype(np.float32)
        B = rng.random((64, 64)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        lam_opt = 2.0 ** (-23 / (alg.sigma + alg.phi))

        def rel(lam):
            C = surrogate_matmul(A, B, alg, lam=lam)
            return np.linalg.norm(C - ref) / np.linalg.norm(ref)

        at_opt = rel(lam_opt)
        assert rel(lam_opt * 8) > at_opt      # approximation branch
        assert rel(lam_opt / 8) > at_opt      # roundoff branch

    @pytest.mark.parametrize("scale", [1.0, 64.0])
    def test_reported_error_is_the_injected_error(self, rng, scale):
        """surrogate_relative_error — what the bad-lambda study reports —
        is the error a float32 layer product through the engine carries,
        at the tuned (power-of-two) lambda and far up the valley."""
        alg = get_algorithm("smirnov444")
        lam = optimal_lambda(alg, d=23) * scale
        A = rng.standard_normal((100, 300)).astype(np.float32)
        B = rng.standard_normal((300, 300)).astype(np.float32)
        C = default_engine().backend(algorithm=alg, lam=lam).matmul(A, B)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel == pytest.approx(surrogate_relative_error(alg, lam, d=23),
                                    rel=0.05)

    def test_deterministic_across_calls(self, rng):
        alg = get_algorithm("smirnov442")
        A = rng.random((40, 40)).astype(np.float32)
        B = rng.random((40, 40)).astype(np.float32)
        assert np.array_equal(surrogate_matmul(A, B, alg),
                              surrogate_matmul(A, B, alg))

    def test_zero_inputs_pass_through(self):
        alg = get_algorithm("smirnov444")
        A = np.zeros((8, 8), dtype=np.float32)
        B = np.zeros((8, 8), dtype=np.float32)
        assert np.array_equal(surrogate_matmul(A, B, alg), np.zeros((8, 8)))

    def test_emulate_flops_preserves_result(self, rng):
        alg = get_algorithm("smirnov442")
        A = rng.random((16, 16)).astype(np.float32)
        B = rng.random((16, 16)).astype(np.float32)
        C1 = surrogate_matmul(A, B, alg)
        C2 = surrogate_matmul(A, B, alg, emulate_flops=True)
        assert np.array_equal(C1, C2)

    def test_validation(self, rng):
        alg = get_algorithm("smirnov444")
        with pytest.raises(ValueError):
            surrogate_matmul(rng.random((4, 5)), rng.random((4, 4)), alg)
        with pytest.raises(ValueError):
            surrogate_matmul(rng.random(4), rng.random((4, 4)), alg)
        with pytest.raises(ValueError):
            surrogate_matmul(rng.random((4, 4)), rng.random((4, 4)), alg, steps=0)

    def test_dtype_preserved(self, rng):
        alg = get_algorithm("smirnov444")
        A = rng.random((16, 16)).astype(np.float32)
        B = rng.random((16, 16)).astype(np.float32)
        assert surrogate_matmul(A, B, alg).dtype == np.float32
