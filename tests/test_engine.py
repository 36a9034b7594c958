"""Cross-path bit-identity and config semantics for the ExecutionEngine.

Every product runs through :class:`repro.core.engine.ExecutionEngine`:
``apa_matmul`` (its sequential fast lane), ``engine.matmul`` (threads,
process workers, batched 3-D operands, non-stationary level lists) and
``engine.backend``.  This suite pins that every runner returns
``np.array_equal`` results against the sequential reference (including
combos like nonstationary-with-plan-cache and threaded-inside-guarded),
the precedence rule (explicit kwarg > backend field > active context >
defaults) holds, and invalid combos raise clear errors.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.core.backend import ClassicalBackend
from repro.core.config import ExecutionConfig, execution_context
from repro.core.engine import ExecutionEngine, default_engine
from repro.core.plan import PlanCache
from repro.parallel.executor import ExecutionReport
from repro.robustness.guard import GuardedBackend
from repro.robustness.inject import FaultSpec, faulty_gemm
from tests._reference_bilinear import reference_matmul

BINI_RANK = get_algorithm("bini322").rank


def _operands(shape, dtype, seed=0):
    M, N, K = shape
    gen = np.random.default_rng(seed)
    A = gen.random((M, N)).astype(dtype)
    B = gen.random((N, K)).astype(dtype)
    return A, B


# ----------------------------------------------------------------------
# cross-path bit-identity grid
# ----------------------------------------------------------------------


GRID = [
    (name, shape, dtype, steps)
    for name in ("bini322", "strassen222")
    for shape in ((24, 20, 28), (32, 32, 32))
    for dtype in (np.float32, np.float64)
    for steps in (1, 2)
]


class TestCrossPathBitIdentity:
    @pytest.mark.parametrize("name,shape,dtype,steps", GRID)
    def test_every_path_matches_the_sequential_reference(
            self, name, shape, dtype, steps):
        alg = get_algorithm(name)
        A, B = _operands(shape, dtype)
        engine = default_engine()
        expected = reference_matmul(A, B, alg, steps=steps)
        paths = {
            "apa_matmul": apa_matmul(A, B, alg, steps=steps),
            "engine.matmul": engine.matmul(A, B, alg, steps=steps),
            "uncached plan": apa_matmul(A, B, alg, steps=steps,
                                        plan_cache=False),
            "private cache": engine.matmul(A, B, alg, steps=steps,
                                           plan_cache=PlanCache()),
            "engine threads=2": engine.matmul(A, B, alg, steps=steps,
                                              threads=2),
            "engine guarded": engine.matmul(A, B, alg, steps=steps,
                                            guarded=True),
            "guarded backend": engine.backend(
                algorithm=name, steps=steps, guarded=True).matmul(A, B),
        }
        for label, C in paths.items():
            assert np.array_equal(C, expected), label

    def test_explicit_lam_is_bit_identical_across_paths(self):
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        lam = 2.0 ** -11
        engine = default_engine()
        expected = reference_matmul(A, B, alg, lam=lam)
        assert np.array_equal(apa_matmul(A, B, alg, lam=lam), expected)
        assert np.array_equal(engine.matmul(A, B, alg, lam=lam), expected)
        assert np.array_equal(
            apa_matmul(A, B, alg, lam=lam, plan_cache=False), expected)
        assert np.array_equal(
            engine.matmul(A, B, alg, threads=2, lam=lam), expected)

    def test_string_names_resolve_everywhere(self):
        A, B = _operands((16, 12, 20), np.float32)
        expected = apa_matmul(A, B, get_algorithm("strassen222"))
        assert np.array_equal(apa_matmul(A, B, "strassen222"), expected)
        assert np.array_equal(
            default_engine().matmul(A, B, "strassen222"), expected)

    def test_classical_none_algorithm(self):
        A, B = _operands((20, 24, 16), np.float64)
        engine = default_engine()
        assert np.array_equal(engine.matmul(A, B, None), A @ B)
        assert np.array_equal(ClassicalBackend().matmul(A, B), A @ B)
        assert np.array_equal(engine.backend().matmul(A, B), A @ B)


class TestGuardedEscalationIdentity:
    def test_engine_guard_walks_the_same_ladder_as_the_legacy_guard(self):
        """Identical FaultSpec seeds → identical recovery trajectories.

        A hand-built stack (GuardedBackend over an engine backend over a
        faulty gemm) and the engine stack (guarded=True config with a
        fault spec) must produce bit-identical results call after call,
        including through escalation and recompute.
        """
        alg = get_algorithm("bini322")
        A, B = _operands((64, 64, 64), np.float32, seed=3)
        spec = FaultSpec(kind="nan", calls=(2,), period=BINI_RANK, seed=0)

        engine = ExecutionEngine()
        by_hand = GuardedBackend(
            engine.backend(algorithm=alg, gemm=faulty_gemm(spec)))
        engined = engine.backend(algorithm=alg, guarded=True, fault=spec)

        for _ in range(3):
            C_by_hand = by_hand.matmul(A, B)
            C_engine = engined.matmul(A, B)
            assert np.array_equal(C_by_hand, C_engine)
            assert np.isfinite(C_engine).all()
        assert by_hand.violations == engined.violations > 0
        assert by_hand.fallback_calls == engined.fallback_calls

    def test_guard_state_persists_across_engine_calls(self):
        spec = FaultSpec(kind="nan", calls=(2,), period=BINI_RANK, seed=0)
        engine = ExecutionEngine()
        A, B = _operands((64, 64, 64), np.float32, seed=3)
        first = engine.backend(algorithm="bini322", guarded=True, fault=spec)
        second = engine.backend(algorithm="bini322", guarded=True, fault=spec)
        assert first is second  # breaker/escalation state is shared


class TestNonstationary:
    """§6 recursion (a tuple of algorithms, one per level) with plan
    caching, threading, and guarding through the engine — all
    bit-identical."""

    def test_cross_path_identity_including_new_capabilities(self):
        algs = (get_algorithm("bini322"), get_algorithm("strassen222"))
        A, B = _operands((24, 20, 28), np.float32)
        engine = default_engine()
        expected = engine.matmul(A, B, algs)

        # catalog names resolve per level
        assert np.array_equal(
            engine.matmul(A, B, ("bini322", "strassen222")), expected)

        # the plan cache flows into every level
        cache = PlanCache()
        C = engine.matmul(A, B, algs, plan_cache=cache)
        assert np.array_equal(C, expected)
        assert cache.stats()["misses"] > 0, "plans never materialized"
        C = engine.matmul(A, B, algs, plan_cache=cache)
        assert np.array_equal(C, expected)
        assert cache.stats()["hits"] > 0

        # threaded outer level
        assert np.array_equal(
            engine.matmul(A, B, algs, threads=2), expected)

        # guarded non-stationary backend
        guarded = ExecutionEngine().backend(
            algorithm=("bini322", "strassen222"), guarded=True)
        assert guarded.name == "guarded:apa:bini322+strassen222"
        assert np.array_equal(guarded.matmul(A, B), expected)
        assert guarded.violations == 0

    def test_gemm_seam_is_consistent_between_cached_and_uncached(self):
        algs = [get_algorithm("strassen222"), get_algorithm("strassen222")]
        A, B = _operands((16, 16, 16), np.float32)
        calls = {"cached": 0, "uncached": 0}

        def counting_gemm_cached(X, Y):
            calls["cached"] += 1
            return X @ Y

        def counting_gemm_uncached(X, Y):
            calls["uncached"] += 1
            return X @ Y

        engine = default_engine()
        cached = engine.matmul(
            A, B, tuple(algs), gemm=counting_gemm_cached,
            plan_cache=PlanCache())
        uncached = engine.matmul(
            A, B, tuple(algs), gemm=counting_gemm_uncached,
            plan_cache=False)
        # Strassen twice is Strassen at two levels: the reference pins both.
        expected = reference_matmul(A, B, algs[0], steps=2, lam=1.0)
        assert np.array_equal(cached, expected)
        assert np.array_equal(uncached, expected)
        # the custom gemm reaches the base case on both paths (7*7 leaves)
        assert calls["cached"] == calls["uncached"] == 49

    def test_empty_level_list_raises(self):
        # Fails when the config is built, never inside dispatch.
        A, B = _operands((8, 8, 8), np.float32)
        for empty in ((), []):
            with pytest.raises(ValueError,
                               match="need at least one algorithm"):
                ExecutionConfig(algorithm=empty)
        with pytest.raises(ValueError, match="need at least one algorithm"):
            default_engine().matmul(A, B, ())

    def test_surrogate_level_raises_the_legacy_message(self):
        A, B = _operands((8, 8, 8), np.float32)
        surrogate = get_algorithm("smirnov433")
        with pytest.raises(ValueError, match="is a surrogate"):
            default_engine().matmul(
                A, B, (get_algorithm("bini322"), surrogate))

    def test_backend_steps_with_level_list_raises(self):
        # steps used to be silently ignored on engine.matmul: the level
        # list *is* the recursion, so the config rejects it when built.
        levels = ("bini322", "strassen222")
        A, B = _operands((8, 8, 8), np.float32)
        with pytest.raises(ValueError, match="level list is the recursion"):
            ExecutionConfig(algorithm=levels, steps=3)
        with pytest.raises(ValueError, match="level list is the recursion"):
            default_engine().matmul(A, B, levels, steps=3)
        with pytest.raises(ValueError, match="level list is the recursion"):
            default_engine().backend(algorithm=levels, steps=2)
        # steps=1 is the level list's own depth and stays accepted
        assert ExecutionConfig(algorithm=levels, steps=1).steps == 1

    def test_inherited_steps_with_level_list(self):
        # Only the merged config is checked.  An inherited steps (context
        # or engine config) meeting a level list raises too; an explicit
        # steps=1 resolves it.  A lower-layer conflict that a higher layer
        # overrides never has to stand on its own.
        levels = ("bini322", "strassen222")
        A, B = _operands((8, 8, 8), np.float32)
        expected = default_engine().matmul(A, B, levels)
        be = default_engine().backend(algorithm=levels)
        with execution_context(steps=2):
            with pytest.raises(ValueError,
                               match="level list is the recursion"):
                be.matmul(A, B)
            assert np.array_equal(
                default_engine().matmul(A, B, levels, steps=1), expected)
        stepped = ExecutionEngine(ExecutionConfig(steps=2))
        with pytest.raises(ValueError, match="level list is the recursion"):
            stepped.matmul(A, B, levels)
        with execution_context(algorithm=levels):
            C = stepped.matmul(A, B, "strassen222")
        assert np.array_equal(
            C, default_engine().matmul(A, B, "strassen222", steps=2))


class TestBatched:
    def test_shim_and_engine_agree(self):
        # Stacked (the default) and loop batches both equal the 2-D
        # product of every item.
        alg = get_algorithm("bini322")
        gen = np.random.default_rng(7)
        A = gen.random((4, 12, 10)).astype(np.float32)
        B = gen.random((4, 10, 14)).astype(np.float32)
        engine = default_engine()
        expected = np.stack([apa_matmul(A[i], B[i], alg) for i in range(4)])
        assert np.array_equal(engine.matmul(A, B, alg), expected)
        assert np.array_equal(
            engine.matmul(A, B, alg, batch_mode="stacked"), expected)
        assert np.array_equal(
            engine.matmul(A, B, alg, batch_mode="loop"), expected)

    def test_legacy_mode_message_survives(self):
        alg = get_algorithm("bini322")
        A = np.zeros((2, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="unknown batch_mode 'bogus'"):
            default_engine().matmul(A, A, alg, batch_mode="bogus")

    def test_batched_has_no_gemm_seam(self):
        alg = get_algorithm("bini322")
        A = np.zeros((2, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="no gemm seam"):
            default_engine().matmul(A, A, alg, gemm=np.matmul)


# ----------------------------------------------------------------------
# execution_context precedence
# ----------------------------------------------------------------------


class TestPrecedence:
    def test_context_fills_unset_fields(self):
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        plain = apa_matmul(A, B, alg)
        deeper = apa_matmul(A, B, alg, steps=2)
        with execution_context(steps=2):
            inside = apa_matmul(A, B, alg)
        assert np.array_equal(inside, deeper)
        assert not np.array_equal(inside, plain)

    def test_explicit_kwarg_beats_context(self):
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        plain = apa_matmul(A, B, alg, steps=1)
        with execution_context(steps=2):
            inside = apa_matmul(A, B, alg, steps=1)
        assert np.array_equal(inside, plain)

    def test_backend_field_beats_context(self):
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        backend = default_engine().backend(algorithm=alg, steps=1)
        plain = apa_matmul(A, B, alg, steps=1)
        with execution_context(steps=2):
            inside = backend.matmul(A, B)
        assert np.array_equal(inside, plain)

    def test_context_reaches_backend_unset_fields(self):
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        backend = default_engine().backend(algorithm=alg)
        deeper = apa_matmul(A, B, alg, steps=2)
        with execution_context(steps=2):
            inside = backend.matmul(A, B)
        assert np.array_equal(inside, deeper)

    def test_contexts_nest_with_inner_winning(self):
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        lam_outer, lam_inner = 2.0 ** -10, 2.0 ** -12
        with execution_context(lam=lam_outer):
            with execution_context(lam=lam_inner):
                inside = apa_matmul(A, B, alg)
            outer = apa_matmul(A, B, alg)
        assert np.array_equal(inside, apa_matmul(A, B, alg, lam=lam_inner))
        assert np.array_equal(outer, apa_matmul(A, B, alg, lam=lam_outer))

    def test_context_is_process_wide_across_threads(self):
        # Pool workers must see the same layers, so the context is a
        # module-global stack, not a contextvar.
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        deeper = apa_matmul(A, B, alg, steps=2)
        result = {}

        def worker():
            result["C"] = apa_matmul(A, B, alg)

        with execution_context(steps=2):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert np.array_equal(result["C"], deeper)

    @pytest.mark.parametrize("name", ["strassen222", "bini322"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_thread_shim_under_context_matches_no_context(
            self, name, dtype):
        # The runner rule: threads=1 with no report/retries/timeout/
        # check_finite/schedule runs the sequential plan, a report
        # selects the threaded runner; under a context or not, both
        # stay bitwise equal to apa_matmul.
        alg = get_algorithm(name)
        A, B = _operands((24, 20, 28), dtype)
        engine = default_engine()
        plain = apa_matmul(A, B, alg)
        assert np.array_equal(engine.matmul(A, B, alg, threads=1), plain)
        report = ExecutionReport()
        with execution_context(tuned=False):
            inside = engine.matmul(A, B, alg, threads=1)
            reported = engine.matmul(A, B, alg, threads=1, report=report)
        assert inside.dtype == plain.dtype
        assert np.array_equal(inside, plain)
        assert np.array_equal(reported, plain)
        assert report.jobs and not report.failed_jobs

    def test_engine_config_beats_context(self):
        alg = get_algorithm("bini322")
        A, B = _operands((24, 20, 28), np.float32)
        engine = ExecutionEngine(ExecutionConfig(steps=1))
        plain = apa_matmul(A, B, alg, steps=1)
        with execution_context(steps=2):
            inside = engine.matmul(A, B, alg)
        assert np.array_equal(inside, plain)


# ----------------------------------------------------------------------
# config validation and removed-behavior errors
# ----------------------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1.0),
        dict(lam=float("nan")),
        dict(steps=0),
        dict(threads=0),
        dict(retries=-1),
        dict(timeout=0.0),
        dict(min_dim=-1),
        dict(d=0),
        dict(batch_mode="tiled"),
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(mode="auto"),
        dict(mode="threaded"),
        dict(mode="warp"),
        dict(mode="kernel", steps=2),
        dict(mode="kernel", threads=2),
        dict(mode="interpreter", threads=2),
        dict(mode="plan", threads=2),
        dict(mode="plan", plan_cache=False),
        dict(mode="interpreter", schedule="precomputed"),
        dict(mode="kernel", retries=1),
        dict(mode="interpreter"),
        dict(mode="plan"),
        dict(mode="interpreter", executor="process"),
    ])
    def test_mode_is_an_unknown_field(self, kwargs):
        # The runner follows from executor/threads/etc.; no field
        # selects it, and a stale mode= fails loudly by name.
        with pytest.raises(TypeError, match="mode"):
            ExecutionConfig(**kwargs)
        A, B = _operands((8, 8, 8), np.float64)
        with pytest.raises(TypeError, match="mode"):
            default_engine().matmul(A, B, "strassen222", **kwargs)
        with pytest.raises(TypeError, match="mode"):
            with execution_context(**kwargs):
                pass  # pragma: no cover

    def test_merged_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="threds"):
            ExecutionConfig().merged({"threds": 2})

    def test_execution_context_validates_at_entry(self):
        with pytest.raises(ValueError):
            with execution_context(steps=0):
                pass  # pragma: no cover

    def test_overrides_returns_only_set_fields(self):
        cfg = ExecutionConfig(steps=2, threads=4)
        assert cfg.overrides() == {"steps": 2, "threads": 4}

    def test_classical_with_knobs_raises(self):
        A, B = _operands((8, 8, 8), np.float32)
        with pytest.raises(ValueError, match="classical gemm"):
            default_engine().matmul(A, B, None, threads=2)

    def test_guarded_with_report_raises(self):
        A, B = _operands((8, 8, 8), np.float32)
        with pytest.raises(ValueError, match="report"):
            default_engine().matmul(A, B, "bini322", guarded=True,
                                    report=object())

    def test_legacy_shape_validation_survives(self):
        with pytest.raises(ValueError, match="2-D operands"):
            apa_matmul(np.zeros(4, dtype=np.float32),
                       np.zeros(4, dtype=np.float32),
                       get_algorithm("bini322"))

    def test_unknown_backend_name_message_survives(self):
        # A near-miss of a catalog name fails at construction, naming
        # the known algorithms.
        with pytest.raises(KeyError, match="unknown algorithm.*bini322"):
            default_engine().backend(algorithm="classical_v2")


# ----------------------------------------------------------------------
# engine plumbing: backends, fault layer, plan stats, trainer coverage
# ----------------------------------------------------------------------


class TestEnginePlumbing:
    def test_fault_layer_wraps_the_functional_path(self):
        A, B = _operands((32, 32, 32), np.float32)
        spec = FaultSpec(kind="nan", calls=(0,), seed=0)
        C = ExecutionEngine().matmul(A, B, "bini322", fault=spec,
                                     plan_cache=False)
        assert not np.isfinite(C).all()

    def test_min_dim_falls_back_to_plain_gemm(self):
        A, B = _operands((8, 8, 8), np.float64)
        C = default_engine().matmul(A, B, "bini322", min_dim=16)
        assert np.array_equal(C, A @ B)

    def test_engine_backend_exposes_escalation_knobs(self):
        alg = get_algorithm("bini322")
        backend = default_engine().backend(algorithm=alg, steps=2)
        assert backend.algorithm is alg
        assert backend.steps == 2
        assert backend.name == "apa:bini322"
        A, B = _operands((24, 20, 28), np.float32)
        assert np.array_equal(backend.matmul(A, B),
                              apa_matmul(A, B, alg, steps=2))
        assert backend.calls == 1

    def test_engine_plan_stats_mirror_trainer_reporting(self):
        cache = PlanCache()
        engine = ExecutionEngine(ExecutionConfig(plan_cache=cache))
        A, B = _operands((24, 20, 28), np.float32)
        engine.matmul(A, B, "bini322")
        stats = engine.plan_stats()
        assert stats["plan_caches"] == [cache.stats()]
        assert cache.stats()["misses"] > 0
        assert "pool" in stats

    def test_trainer_plan_stats_cover_nonstationary_and_engine_backends(
            self):
        from repro.nn.layers import Dense, ReLU
        from repro.nn.model import Sequential
        from repro.nn.train import Trainer

        cache_ns, cache_eng = PlanCache(), PlanCache()
        gen = np.random.default_rng(0)
        model = Sequential([
            Dense(16, 16,
                  backend=default_engine().backend(
                      algorithm=("bini322", "strassen222"),
                      plan_cache=cache_ns),
                  rng=gen),
            ReLU(),
            Dense(16, 10,
                  backend=default_engine().backend(
                      algorithm="bini322", plan_cache=cache_eng),
                  rng=gen),
        ])
        x = gen.random((8, 16)).astype(np.float32)
        model.forward(x, training=False)
        stats = Trainer(model).plan_stats()
        assert len(stats["plan_caches"]) == 2
        assert cache_ns.stats()["misses"] > 0
        assert cache_eng.stats()["misses"] > 0

    def test_engine_dispatch_overhead_is_measurable(self):
        from repro.bench.hotpath import measure_engine_overhead

        overhead = measure_engine_overhead(n=24, iters=3, repeats=2)
        assert np.isfinite(overhead)
