"""Tests for the code generator — generated code ≡ the plan evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm, list_algorithms
from repro.codegen.cache import clear_cache, compile_algorithm
from repro.codegen.generate import coefficient_expression, generate_source
from repro.core.apa_matmul import apa_matmul
from repro.linalg.laurent import Laurent


class TestCoefficientExpression:
    @pytest.mark.parametrize("poly,expected", [
        (Laurent.one(), "1"),
        (Laurent.const(-1), "-1"),
        (Laurent.lam(), "lam"),
        (Laurent.lam(-1), "(lam**-1)"),
        (Laurent.lam(1, -1), "(-lam)"),
        (Laurent.const(0.25), "(1/4)"),
        (Laurent.zero(), "0"),
    ])
    def test_rendering(self, poly, expected):
        assert coefficient_expression(poly) == expected

    def test_multi_term(self):
        expr = coefficient_expression(Laurent({0: 1, 1: 1}))
        assert eval(expr, {"lam": 0.5}) == 1.5

    def test_expressions_evaluate_correctly(self):
        for terms in ({-1: 2}, {0: -3, 2: 1}, {-2: 1, 0: 1, 1: -1}):
            poly = Laurent(terms)
            expr = coefficient_expression(poly)
            for lam in (0.5, 0.125, 2.0):
                assert eval(expr, {"lam": lam}) == pytest.approx(poly(lam))


class TestGenerateSource:
    def test_source_is_valid_python(self):
        src = generate_source(get_algorithm("bini322"))
        compile(src, "<test>", "exec")

    def test_contains_expected_structure(self):
        src = generate_source(get_algorithm("strassen222"))
        assert "def apa_mm_strassen222(" in src
        assert src.count("gemm(") == 7  # one call per multiplication

    def test_custom_func_name(self):
        src = generate_source(get_algorithm("strassen222"), func_name="fast_mm")
        assert "def fast_mm(" in src

    def test_surrogate_rejected(self):
        with pytest.raises(ValueError, match="surrogate"):
            generate_source(get_algorithm("smirnov444"))


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", list_algorithms("real"))
    def test_generated_matches_interpreter(self, name, rng):
        """For every real algorithm, generated code and the generic plan
        evaluator agree to floating-point roundoff on awkward shapes."""
        alg = get_algorithm(name)
        fn = compile_algorithm(alg)
        A = rng.random((37, 29))
        B = rng.random((29, 23))
        lam = 2.0**-20 if alg.is_apa else 1.0
        got = fn(A, B, lam=lam)
        want = apa_matmul(A, B, alg, lam=lam)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_exactness_of_generated_exact_code(self, rng):
        fn = compile_algorithm(get_algorithm("strassen444"))
        A = rng.random((16, 16))
        B = rng.random((16, 16))
        assert np.allclose(fn(A, B), A @ B, rtol=1e-10)

    def test_cache_returns_same_object(self):
        clear_cache()
        a = compile_algorithm(get_algorithm("bini322"))
        b = compile_algorithm(get_algorithm("bini322"))
        assert a is b
        clear_cache()
        c = compile_algorithm(get_algorithm("bini322"))
        assert c is not a

    def test_source_attached(self):
        fn = compile_algorithm(get_algorithm("bini322"))
        assert "def apa_mm_bini322(" in fn.__source__

    def test_gemm_injection(self, rng):
        calls = []

        def spy(X, Y):
            calls.append(1)
            return X @ Y

        fn = compile_algorithm(get_algorithm("strassen222"))
        fn(rng.random((8, 8)), rng.random((8, 8)), gemm=spy)
        assert len(calls) == 7

    def test_bad_shapes_raise(self, rng):
        fn = compile_algorithm(get_algorithm("strassen222"))
        with pytest.raises(ValueError):
            fn(rng.random((4, 5)), rng.random((4, 4)))
