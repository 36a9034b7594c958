"""Tests for lambda selection (paper §2.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.lam import (
    lambda_candidates,
    optimal_lambda,
    precision_bits,
    tune_lambda,
)


class TestPrecisionBits:
    def test_standard_dtypes(self):
        assert precision_bits(np.float32) == 23
        assert precision_bits(np.float64) == 52
        assert precision_bits(np.float16) == 10
        assert precision_bits("float32") == 23

    def test_complex_dtypes_use_their_component_precision(self):
        assert precision_bits(np.complex64) == 23
        assert precision_bits(np.complex128) == 52

    def test_unsupported(self):
        with pytest.raises(ValueError):
            precision_bits(np.int32)


class TestOptimalLambda:
    def test_bini_single_precision(self):
        """sigma=1, phi=1 -> lambda* = 2**round(-23/2) = 2**-12."""
        assert optimal_lambda(get_algorithm("bini322"), d=23) == 2.0**-12

    def test_bini_double_precision(self):
        assert optimal_lambda(get_algorithm("bini322"), d=52) == 2.0**-26

    def test_steps_shrink_lambda_exponent(self):
        alg = get_algorithm("bini322")
        # s=2: 2**round(-23/3) = 2**-8
        assert optimal_lambda(alg, d=23, steps=2) == 2.0**-8

    def test_exact_algorithm_returns_one(self):
        assert optimal_lambda(get_algorithm("strassen222"), d=23) == 1.0

    def test_surrogate_phi(self):
        # smirnov444: sigma=1, phi=3 -> 2**round(-23/4) = 2**-6
        assert optimal_lambda(get_algorithm("smirnov444"), d=23) == 2.0**-6

    def test_validation(self):
        alg = get_algorithm("bini322")
        with pytest.raises(ValueError):
            optimal_lambda(alg, d=0)
        with pytest.raises(ValueError):
            optimal_lambda(alg, steps=0)


class TestCandidates:
    def test_five_powers_of_two_centered(self):
        cands = lambda_candidates(get_algorithm("bini322"), d=23, count=5)
        assert len(cands) == 5
        assert 2.0**-12 in cands
        exponents = sorted(round(np.log2(c)) for c in cands)
        assert exponents == [-14, -13, -12, -11, -10]

    def test_exact_single_candidate(self):
        assert lambda_candidates(get_algorithm("strassen222")) == [1.0]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            lambda_candidates(get_algorithm("bini322"), count=0)


class TestTuneLambda:
    def test_tuned_error_at_most_bound(self):
        """The paper's Fig-1 protocol: the best of 5 candidates beats the
        theoretical bound."""
        alg = get_algorithm("bini322")
        lam, err = tune_lambda(alg, n=128, dtype=np.float32)
        assert err <= alg.error_bound(d=23)
        assert lam in lambda_candidates(alg, d=23)

    def test_tuned_beats_or_ties_every_candidate(self):
        alg = get_algorithm("bini322")
        from repro.core.apa_matmul import apa_matmul

        lam, err = tune_lambda(alg, n=96, dtype=np.float32)
        rng = np.random.default_rng(0)
        A = rng.random((96, 96)).astype(np.float32)
        B = rng.random((96, 96)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        for cand in lambda_candidates(alg, d=23):
            C = apa_matmul(A, B, alg, lam=cand)
            cand_err = np.linalg.norm(C - ref) / np.linalg.norm(ref)
            assert err <= cand_err + 1e-12

    def test_custom_matmul_injection(self):
        calls = []

        def fake_matmul(A, B, alg, lam=None, steps=1):
            calls.append(lam)
            return A.astype(np.float64) @ B.astype(np.float64)

        alg = get_algorithm("bini322")
        lam, err = tune_lambda(alg, n=16, matmul=fake_matmul)
        assert len(calls) == 5
        assert err == pytest.approx(0.0, abs=1e-12)
