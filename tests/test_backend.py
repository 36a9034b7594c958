"""Tests for the matmul backend seam.

The classical baseline is :class:`ClassicalBackend`; an APA backend is
the engine's :class:`~repro.core.engine.EngineBackend`, built by
``default_engine().backend(algorithm=...)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.backend import ClassicalBackend, MatmulBackend
from repro.core.engine import EngineBackend, ExecutionEngine, default_engine


def apa_backend(algorithm, **knobs):
    return default_engine().backend(algorithm=algorithm, **knobs)


class TestClassicalBackend:
    def test_matches_numpy(self, rng):
        be = ClassicalBackend()
        A = rng.random((8, 6))
        B = rng.random((6, 4))
        assert np.allclose(be.matmul(A, B), A @ B)

    def test_stats_accumulate(self, rng):
        be = ClassicalBackend()
        A = rng.random((8, 6))
        B = rng.random((6, 4))
        be.matmul(A, B)
        be.matmul(A, B)
        assert be.stats.calls == 2
        assert be.stats.flops == 2 * (2 * 8 * 6 * 4)
        be.stats.reset()
        assert be.stats.calls == 0 and be.stats.flops == 0

    def test_protocol(self):
        assert isinstance(ClassicalBackend(), MatmulBackend)


class TestAPABackend:
    """``engine.backend(algorithm=...)``: one catalogued algorithm."""

    def test_exact_algorithm_matches(self, rng):
        be = apa_backend(get_algorithm("strassen222"))
        A = rng.random((12, 10))
        B = rng.random((10, 8))
        assert np.allclose(be.matmul(A, B), A @ B, rtol=1e-10)

    def test_apa_error_bounded(self, rng):
        alg = get_algorithm("bini322")
        be = apa_backend(alg)
        A = rng.random((60, 60)).astype(np.float32)
        B = rng.random((60, 60)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(be.matmul(A, B) - ref) / np.linalg.norm(ref)
        assert rel < 8 * alg.error_bound(d=23)

    def test_min_dim_fallback(self, rng):
        be = apa_backend(get_algorithm("bini322"), min_dim=100)
        A = rng.random((50, 50)).astype(np.float32)
        B = rng.random((50, 50)).astype(np.float32)
        C = be.matmul(A, B)
        assert be.calls == 1
        assert np.array_equal(C, A @ B)  # exact: it fell back to gemm

    def test_default_name(self):
        be = apa_backend(get_algorithm("bini322"))
        assert isinstance(be, EngineBackend)
        assert be.name == "apa:bini322"

    def test_fixed_lambda_used(self, rng):
        be_default = apa_backend(get_algorithm("bini322"))
        be_coarse = apa_backend(get_algorithm("bini322"), lam=0.25)
        A = rng.random((30, 30)).astype(np.float32)
        B = rng.random((30, 30)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        e_default = np.linalg.norm(be_default.matmul(A, B) - ref)
        e_coarse = np.linalg.norm(be_coarse.matmul(A, B) - ref)
        assert e_coarse > 10 * e_default

    def test_validation(self):
        with pytest.raises(ValueError):
            apa_backend(get_algorithm("bini322"), steps=0)
        with pytest.raises(ValueError):
            apa_backend(get_algorithm("bini322"), min_dim=-1)

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            apa_backend(get_algorithm("bini322"), lam=lam)

    def test_custom_gemm_seam(self, rng):
        calls = []

        def spy(X, Y):
            calls.append(1)
            return X @ Y

        be = apa_backend(get_algorithm("bini322"), gemm=spy)
        A = rng.random((30, 30)).astype(np.float32)
        be.matmul(A, A)
        assert len(calls) == get_algorithm("bini322").rank


class TestApaMatmulLambdaValidation:
    @pytest.mark.parametrize("lam", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, lam, rng):
        from repro.core.apa_matmul import apa_matmul

        A = rng.random((6, 4)).astype(np.float32)
        B = rng.random((4, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="lam"):
            apa_matmul(A, B, get_algorithm("bini322"), lam=lam)

    @pytest.mark.parametrize("lam", [0.0, float("nan")])
    def test_nonstationary_rejects_bad_lambda(self, lam, rng):
        A = rng.random((6, 4)).astype(np.float32)
        B = rng.random((4, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="lam"):
            default_engine().matmul(A, B, (get_algorithm("bini322"),),
                                    lam=lam)


class TestMakeBackend:
    """Building backends by name through ``engine.backend``."""

    def test_none_is_classical(self, rng):
        be = default_engine().backend()
        assert be.name == "classical"
        A = rng.random((8, 6))
        B = rng.random((6, 4))
        assert np.array_equal(be.matmul(A, B), A @ B)

    def test_classical_exact_match(self, rng):
        # algorithm=None is plain gemm, bitwise the ClassicalBackend
        # baseline (which DivergenceGuard recognises with isinstance).
        A = rng.random((8, 6)).astype(np.float32)
        B = rng.random((6, 4)).astype(np.float32)
        engine_be, baseline = default_engine().backend(), ClassicalBackend()
        assert engine_be.name == baseline.name == "classical"
        assert np.array_equal(engine_be.matmul(A, B), baseline.matmul(A, B))

    def test_classical_prefix_no_longer_hijacks_catalog_names(self):
        # "classical222" is a real catalog algorithm, not the baseline.
        be = apa_backend("classical222")
        assert isinstance(be, EngineBackend)
        assert be.algorithm.name == "classical222"

    def test_classical_near_miss_raises(self):
        # A typo'd near-miss must fail loudly, naming the known names.
        with pytest.raises(KeyError, match="classical222"):
            apa_backend("classical_v2")

    def test_catalog_name(self):
        be = apa_backend("bini322")
        assert isinstance(be, EngineBackend)
        assert be.algorithm is get_algorithm("bini322")

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="bini322"):
            apa_backend("nope")

    def test_guarded_wraps_and_satisfies_protocol(self, rng):
        from repro.robustness.guard import GuardedBackend

        be = ExecutionEngine().backend(algorithm="bini322", guarded=True)
        assert isinstance(be, GuardedBackend)
        assert isinstance(be, MatmulBackend)
        assert be.name == "guarded:apa:bini322"
        A = rng.random((16, 16)).astype(np.float32)
        assert np.isfinite(be.matmul(A, A)).all()

    def test_guarded_accepts_policy(self):
        from repro.robustness.policy import EscalationPolicy

        policy = EscalationPolicy(strikes_to_open=5)
        be = ExecutionEngine().backend(algorithm="bini322", guarded=True,
                                       guard_policy=policy)
        assert be.policy.strikes_to_open == 5

    def test_guarded_classical(self):
        be = ExecutionEngine().backend(guarded=True)
        assert be.name == "guarded:classical"
