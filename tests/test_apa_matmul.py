"""Tests for the sequential entry point and the plan evaluator's combine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.analysis import predicted_error_bound
from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.core.engine import default_engine
from repro.core.plan import combine

ENGINE = default_engine()


def _terms(coeffs):
    """A plan term list from a dense coefficient column."""
    return tuple((j, c) for j, c in enumerate(coeffs) if c != 0)


class TestLinearCombination:
    def test_single_unit_term_returns_view(self, rng):
        blocks = [rng.random((3, 3)) for _ in range(3)]
        out = combine(_terms([0.0, 1.0, 0.0]), blocks)
        assert out is blocks[1]

    def test_single_unit_term_materializes_without_view(self, rng):
        blocks = [rng.random((3, 3)) for _ in range(3)]
        buf = np.empty((3, 3))
        out = combine(_terms([0.0, 1.0, 0.0]), blocks, out=buf, view=False)
        assert out is buf and np.array_equal(buf, blocks[1])

    def test_general_combination(self, rng):
        blocks = [rng.random((3, 3)) for _ in range(3)]
        coeffs = np.array([2.0, -1.0, 0.5])
        out = combine(_terms(coeffs), blocks)
        expected = 2 * blocks[0] - blocks[1] + 0.5 * blocks[2]
        assert np.allclose(out, expected)

    def test_batched_blocks(self, rng):
        blocks = [rng.random((4, 3, 3)) for _ in range(2)]
        out = combine(_terms([0.5, -1.0]), blocks)
        assert np.allclose(out, 0.5 * blocks[0] - blocks[1])

    def test_all_zero_coefficients(self, rng):
        blocks = [rng.random((2, 2))]
        out = combine(_terms([0.0]), blocks)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_out_buffer_reused(self, rng):
        blocks = [rng.random((2, 2)), rng.random((2, 2))]
        buf = np.empty((2, 2))
        out = combine(_terms([1.0, 1.0]), blocks, out=buf)
        assert out is buf
        assert np.allclose(buf, blocks[0] + blocks[1])

    def test_out_buffer_zeroed_when_empty(self, rng):
        buf = rng.random((2, 2))
        out = combine(_terms([0.0]), [buf.copy()], out=buf)
        assert out is buf and buf.sum() == 0


class TestOperandDtypes:
    @pytest.mark.parametrize("name", ["bini322", "strassen222"])
    def test_integer_operands_compute_in_float64(self, name):
        # Evaluating lambda**-1 coefficients at an integer dtype truncates
        # them; the product must be float64 and within the error model.
        A = np.arange(16).reshape(4, 4)
        exact = A[:3] @ A
        C = apa_matmul(A[:3], A, name)
        assert C.dtype == np.float64
        rel = np.max(np.abs(C - exact)) / np.max(np.abs(exact))
        assert rel <= predicted_error_bound(name, d=52, inner_dim=4)

    def test_mixed_float_operands_promote(self, rng):
        A = rng.random((12, 10)).astype(np.float32)
        B = rng.random((10, 8))
        alg = get_algorithm("bini322")
        C = apa_matmul(A, B, alg)
        assert C.dtype == np.float64
        assert np.array_equal(C, apa_matmul(A.astype(np.float64), B, alg))


class TestExactness:
    @pytest.mark.parametrize("name", ["strassen222", "winograd222",
                                       "strassen444", "strassen422",
                                       "classical222", "classical333"])
    def test_exact_algorithms_match_numpy(self, name, rng):
        alg = get_algorithm(name)
        A = rng.random((60, 48))
        B = rng.random((48, 36))
        C = apa_matmul(A, B, alg)
        assert np.allclose(C, A @ B, rtol=1e-10, atol=1e-10)

    def test_two_steps_exact(self, rng):
        A = rng.random((32, 32))
        B = rng.random((32, 32))
        C = apa_matmul(A, B, get_algorithm("strassen222"), steps=2)
        assert np.allclose(C, A @ B, rtol=1e-9, atol=1e-10)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_shapes_via_padding(self, M, N, K):
        rng = np.random.default_rng(0)
        A = rng.random((M, N))
        B = rng.random((N, K))
        C = apa_matmul(A, B, get_algorithm("strassen222"))
        assert C.shape == (M, K)
        assert np.allclose(C, A @ B, rtol=1e-10, atol=1e-10)


class TestApaError:
    @pytest.mark.parametrize("name", ["bini322", "bini232", "bini223",
                                       "bini322xstrassen", "bini522"])
    def test_error_within_bound_times_margin(self, name, rng):
        """At the optimal lambda, float32 error lands near (within a small
        constant of) the theoretical bound."""
        alg = get_algorithm(name)
        A = rng.random((120, 120)).astype(np.float32)
        B = rng.random((120, 120)).astype(np.float32)
        C_ref = A.astype(np.float64) @ B.astype(np.float64)
        C = apa_matmul(A, B, alg)
        rel = np.linalg.norm(C - C_ref) / np.linalg.norm(C_ref)
        bound = alg.error_bound(d=23)
        assert rel < 8 * bound
        assert rel > bound / 1000  # it *is* approximate, not exact

    def test_error_decreases_with_double_precision(self, rng):
        alg = get_algorithm("bini322")
        A32 = rng.random((90, 90)).astype(np.float32)
        B32 = rng.random((90, 90)).astype(np.float32)
        ref = A32.astype(np.float64) @ B32.astype(np.float64)
        e32 = np.linalg.norm(apa_matmul(A32, B32, alg) - ref) / np.linalg.norm(ref)
        A64, B64 = A32.astype(np.float64), B32.astype(np.float64)
        e64 = np.linalg.norm(apa_matmul(A64, B64, alg) - ref) / np.linalg.norm(ref)
        assert e64 < e32 / 100  # ~sqrt(machine precision) each

    def test_exact_arithmetic_limit(self, rng):
        """In float64 with moderate lambda, shrinking lambda shrinks the
        error (the 'arbitrary precision' in APA) until roundoff bites."""
        alg = get_algorithm("bini322")
        A = rng.random((60, 60))
        B = rng.random((60, 60))
        ref = A @ B
        errs = []
        for lam in (1e-2, 1e-4, 1e-6):
            C = apa_matmul(A, B, alg, lam=lam)
            errs.append(np.linalg.norm(C - ref) / np.linalg.norm(ref))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]

    def test_tiny_lambda_roundoff_blowup(self, rng):
        alg = get_algorithm("bini322")
        A = rng.random((60, 60)).astype(np.float32)
        B = rng.random((60, 60)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)

        def err(lam):
            C = apa_matmul(A, B, alg, lam=lam)
            return np.linalg.norm(C - ref) / np.linalg.norm(ref)

        # far below the optimum (2**-11ish) roundoff dominates and grows
        assert err(2.0**-20) > err(2.0**-11)


class TestSurrogateDispatch:
    def test_surrogate_goes_through_error_model(self, rng):
        alg = get_algorithm("smirnov444")
        A = rng.random((64, 64)).astype(np.float32)
        B = rng.random((64, 64)).astype(np.float32)
        C = apa_matmul(A, B, alg)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert 0 < rel <= alg.error_bound(d=23)


class TestValidation:
    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="inner dims"):
            apa_matmul(rng.random((4, 5)), rng.random((4, 4)),
                       get_algorithm("strassen222"))

    def test_non_2d(self, rng):
        with pytest.raises(ValueError):
            apa_matmul(rng.random(4), rng.random((4, 4)),
                       get_algorithm("strassen222"))

    def test_bad_steps(self, rng):
        with pytest.raises(ValueError):
            apa_matmul(rng.random((4, 4)), rng.random((4, 4)),
                       get_algorithm("strassen222"), steps=0)

    def test_custom_gemm_injected(self, rng):
        calls = []

        def spy_gemm(X, Y):
            calls.append((X.shape, Y.shape))
            return X @ Y

        A = rng.random((8, 8))
        B = rng.random((8, 8))
        apa_matmul(A, B, get_algorithm("strassen222"), gemm=spy_gemm)
        assert len(calls) == 7
        assert all(pair == ((4, 4), (4, 4)) for pair in calls)


class TestNonStationary:
    """Paper §6: a tuple of algorithms, one per recursion level."""

    def test_exact_chain(self, rng):
        A = rng.random((24, 24))
        B = rng.random((24, 24))
        C = ENGINE.matmul(
            A, B, (get_algorithm("strassen222"), get_algorithm("strassen222"))
        )
        assert np.allclose(C, A @ B, rtol=1e-9, atol=1e-10)

    def test_mixed_chain_small_error(self, rng):
        A = rng.random((36, 24))
        B = rng.random((24, 24))
        C = ENGINE.matmul(
            A, B, (get_algorithm("bini322"), get_algorithm("strassen222"))
        )
        ref = A @ B
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel < 1e-5  # float64, phi=1 chain

    def test_empty_chain_rejected(self, rng):
        with pytest.raises(ValueError):
            ENGINE.matmul(rng.random((4, 4)), rng.random((4, 4)), ())

    def test_surrogate_rejected(self, rng):
        with pytest.raises(ValueError, match="surrogate"):
            ENGINE.matmul(
                rng.random((4, 4)), rng.random((4, 4)),
                (get_algorithm("smirnov444"),),
            )


class TestAllRealAlgorithmsProperty:
    def test_every_real_algorithm_multiplies_correctly(self, real_algorithm, rng):
        """Executor-level guarantee across the whole real catalog: the
        float64 result at the default lambda is within the documented
        error bound (times a small constant) of the true product."""
        alg = real_algorithm
        # size: a couple of blocks per dimension
        M, N, K = 4 * alg.m, 4 * alg.n, 4 * alg.k
        A = rng.random((M, N))
        B = rng.random((N, K))
        C = apa_matmul(A, B, alg)
        ref = A @ B
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        bound = alg.error_bound(d=52)
        assert rel < 50 * bound, f"{alg.name}: rel={rel:.2e} bound={bound:.2e}"
