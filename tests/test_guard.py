"""Tests for guarded execution: health checks, escalation, breaker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.analysis import predicted_error_bound
from repro.algorithms.catalog import get_algorithm
from repro.core.backend import ClassicalBackend
from repro.core.engine import EngineBackend, default_engine
from repro.core.lam import optimal_lambda
from repro.backends.guard import GuardedBackend, check_product, residual_probe
from repro.robustness.inject import FaultSpec, GemmFaultInjector
from repro.robustness.policy import CircuitBreaker, EscalationPolicy, shape_class

BINI_RANK = 10  # gemm calls per one-step bini322 product


class TestShapeClass:
    def test_buckets_round_up_to_powers_of_two(self):
        assert shape_class(1000, 1024, 1025) == "1024x1024x2048"
        assert shape_class(1, 2, 3) == "1x2x4"

    def test_same_class_for_nearby_shapes(self):
        assert shape_class(900, 900, 900) == shape_class(1024, 1024, 1024)


class TestEscalationPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bound_factor": 0.0},
            {"probe_vectors": -1},
            {"strikes_to_open": 0},
            {"cooldown_calls": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EscalationPolicy(**kwargs)


class TestCircuitBreaker:
    KEY = ("apa:bini322", "64x64x64")

    def test_opens_after_n_strikes(self):
        br = CircuitBreaker(strikes_to_open=3, cooldown_calls=4)
        assert not br.record_failure(self.KEY)
        assert not br.record_failure(self.KEY)
        assert br.record_failure(self.KEY)  # third strike newly opens
        assert br.is_open(self.KEY)
        assert br.open_keys() == [self.KEY]

    def test_success_resets_strikes(self):
        br = CircuitBreaker(strikes_to_open=2, cooldown_calls=4)
        br.record_failure(self.KEY)
        br.record_success(self.KEY)
        assert not br.record_failure(self.KEY)  # counter restarted
        assert not br.is_open(self.KEY)

    def test_denies_during_cooldown_then_half_open_probe(self):
        br = CircuitBreaker(strikes_to_open=1, cooldown_calls=2)
        br.record_failure(self.KEY)
        assert not br.allow(self.KEY)
        assert not br.allow(self.KEY)
        assert br.allow(self.KEY)  # cool-down spent: one probe allowed
        assert br.record_success(self.KEY)  # probe closes the breaker
        assert not br.is_open(self.KEY)
        assert br.allow(self.KEY)

    def test_failed_probe_restarts_cooldown(self):
        br = CircuitBreaker(strikes_to_open=1, cooldown_calls=2)
        br.record_failure(self.KEY)
        br.allow(self.KEY), br.allow(self.KEY)
        assert br.allow(self.KEY)  # probe
        assert not br.record_failure(self.KEY)  # probe failed — stay open
        assert br.is_open(self.KEY)
        assert not br.allow(self.KEY)  # back in cool-down

    def test_keys_are_independent(self):
        other = ("apa:bini322", "128x128x128")
        br = CircuitBreaker(strikes_to_open=1, cooldown_calls=2)
        br.record_failure(self.KEY)
        assert br.is_open(self.KEY) and not br.is_open(other)
        assert br.allow(other)


class TestCircuitBreakerConcurrency:
    """The serving layer hammers one breaker from N worker threads; the
    half-open protocol is only correct if the state never tears and
    exactly one of N racing ``allow`` calls wins each probe slot."""

    KEY = ("apa:strassen222", "64x64x64")

    def test_exactly_one_probe_admitted_per_cooldown_window(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        cooldown = 4
        br = CircuitBreaker(strikes_to_open=1, cooldown_calls=cooldown)
        br.record_failure(self.KEY)
        assert br.is_open(self.KEY)

        n_threads, calls_each = 8, 250
        barrier = threading.Barrier(n_threads)

        def hammer(_):
            barrier.wait()
            return sum(br.allow(self.KEY) for _ in range(calls_each))

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            admitted = sum(pool.map(hammer, range(n_threads)))

        # Every (cooldown + 1)-call window admits exactly one probe, no
        # matter how the threads interleave.
        total = n_threads * calls_each
        assert admitted == total // (cooldown + 1)
        assert br.is_open(self.KEY)  # probes never reported back

    def test_concurrent_strikes_open_exactly_once(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        br = CircuitBreaker(strikes_to_open=5, cooldown_calls=4)
        n_threads, calls_each = 8, 100
        barrier = threading.Barrier(n_threads)

        def strike(_):
            barrier.wait()
            return sum(br.record_failure(self.KEY)
                       for _ in range(calls_each))

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            opens = sum(pool.map(strike, range(n_threads)))

        assert opens == 1  # the open transition is observed exactly once
        snap = br.snapshot()["apa:strassen222|64x64x64"]
        assert snap["open"] and snap["strikes"] == 5

    def test_snapshot_is_a_consistent_copy(self):
        br = CircuitBreaker(strikes_to_open=2, cooldown_calls=4)
        br.record_failure(self.KEY)
        other = ("apa:bini322", "32x32x32")
        br.record_failure(other), br.record_failure(other)
        snap = br.snapshot()
        assert snap["apa:strassen222|64x64x64"] == {
            "open": False, "strikes": 1, "calls_since_open": 0}
        assert snap["apa:bini322|32x32x32"]["open"]
        snap["apa:bini322|32x32x32"]["open"] = False  # a copy, not a view
        assert br.is_open(other)


class TestHealthChecks:
    def test_exact_product_has_tiny_residual(self, rng):
        A = rng.random((32, 32)).astype(np.float32)
        B = rng.random((32, 32)).astype(np.float32)
        assert residual_probe(A, B, A @ B, rng) < 1e-6

    def test_corrupted_product_has_large_residual(self, rng):
        A = rng.random((32, 32)).astype(np.float32)
        B = rng.random((32, 32)).astype(np.float32)
        C = A @ B
        C[3, 4] += 100.0
        assert residual_probe(A, B, C, rng) > 1e-3

    def test_probe_handles_float32_operands(self, rng):
        A = rng.random((16, 16)).astype(np.float32)
        assert residual_probe(A, A, A @ A, rng) < 1e-5

    def test_zero_operands_and_zero_vectors(self, rng):
        Z = np.zeros((8, 8))
        assert residual_probe(Z, Z, Z, rng) == 0.0
        A = rng.random((8, 8))
        assert residual_probe(A, A, A @ A, rng, vectors=0) == 0.0

    def test_check_product_flags_nonfinite_before_probing(self, rng):
        A = rng.random((8, 8))
        C = A @ A
        C[0, 0] = np.nan
        report = check_product(A, A, C, threshold=1.0, rng=rng)
        assert not report.ok and report.reason == "nonfinite"

    def test_check_product_flags_residual(self, rng):
        A = rng.random((8, 8))
        report = check_product(A, A, A @ A + 5.0, threshold=1e-6, rng=rng)
        assert not report.ok and report.reason == "residual"


def _apa_backend(algorithm, **knobs) -> EngineBackend:
    return default_engine().backend(algorithm=algorithm, **knobs)


def _faulty_bini_backend(spec: FaultSpec, steps: int = 1) -> EngineBackend:
    """bini322 whose base-case gemm is routed through a fault injector."""
    return _apa_backend(get_algorithm("bini322"), steps=steps,
                        gemm=GemmFaultInjector(spec=spec))


class TestGuardedBackend:
    def test_clean_call_passes_through(self, rng):
        inner = _apa_backend(get_algorithm("bini322"))
        guard = GuardedBackend(inner)
        assert guard.name == "guarded:apa:bini322"
        A = rng.random((60, 64)).astype(np.float32)
        B = rng.random((64, 48)).astype(np.float32)
        C = guard.matmul(A, B)
        assert guard.calls == 1 and guard.violations == 0
        assert guard.fallback_calls == 0 and len(guard.log) == 0
        ref = A.astype(np.float64) @ B.astype(np.float64)
        bound = get_algorithm("bini322").error_bound(d=23)
        assert np.linalg.norm(C - ref) / np.linalg.norm(ref) < 64 * bound

    def test_nan_subproduct_recovers_and_opens_breaker(self, rng):
        """Acceptance: seeded NaN in one Bini<3,2,2> sub-product of every
        call -> finite result within the classical bound; breaker opens
        after ``strikes_to_open`` strikes and then denies the fast path."""
        spec = FaultSpec(kind="nan", calls=(2,), period=BINI_RANK, seed=0)
        guard = GuardedBackend(_faulty_bini_backend(spec))
        A = rng.random((64, 64)).astype(np.float32)
        B = rng.random((64, 64)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        threshold = guard.policy.bound_factor * predicted_error_bound(
            get_algorithm("bini322"), d=23, steps=1, inner_dim=64)

        strikes = guard.policy.strikes_to_open
        for call in range(strikes):
            C = guard.matmul(A, B)
            assert np.isfinite(C).all()
            rel = float(np.linalg.norm(C - ref) / np.linalg.norm(ref))
            assert rel <= threshold
            assert guard.violations == call + 1

        key = ("apa:bini322", "64x64x64")
        assert guard.breaker.is_open(key)
        assert guard.log.count("breaker-open") == 1
        assert guard.log.count("fallback") == strikes

        # while open the fast path is denied outright — no new violations
        C = guard.matmul(A, B)
        assert np.isfinite(C).all() and guard.denied_calls == 1
        assert guard.violations == strikes

    def test_breaker_probe_closes_after_fault_clears(self, rng):
        spec = FaultSpec(kind="nan", calls=(2,), period=BINI_RANK, seed=0)
        inner = _faulty_bini_backend(spec)
        policy = EscalationPolicy(strikes_to_open=1, cooldown_calls=2,
                                  retune_lambda=False)
        guard = GuardedBackend(inner, policy=policy)
        A = rng.random((48, 48)).astype(np.float32)
        B = rng.random((48, 48)).astype(np.float32)

        guard.matmul(A, B)  # strike 1 -> breaker opens
        key = ("apa:bini322", "64x64x64")
        assert guard.breaker.is_open(key)
        guard.matmul(A, B), guard.matmul(A, B)  # denied (cool-down)
        assert guard.denied_calls == 2

        inner.gemm.active = False  # the transient fault clears
        C = guard.matmul(A, B)  # half-open probe
        assert np.isfinite(C).all()
        assert not guard.breaker.is_open(key)
        assert guard.log.count("breaker-probe") == 1
        assert guard.log.count("breaker-close") == 1

    def test_retune_rung_recovers_bad_lambda(self, rng):
        alg = get_algorithm("bini322")
        lam_bad = optimal_lambda(alg, d=23) * 1e4
        inner = _apa_backend(alg, lam=lam_bad)
        guard = GuardedBackend(inner)
        A = rng.random((64, 64)).astype(np.float32)
        B = rng.random((64, 64)).astype(np.float32)
        C = guard.matmul(A, B)
        assert guard.violations == 1
        assert guard.log.count("retune") == 1
        assert inner.lam != lam_bad  # recovery persisted into the backend
        ref = A.astype(np.float64) @ B.astype(np.float64)
        bound = predicted_error_bound(alg, d=23, steps=1, inner_dim=64)
        assert np.linalg.norm(C - ref) / np.linalg.norm(ref) <= 64 * bound
        # the written-back lambda fixes subsequent calls outright
        guard.matmul(A, B)
        assert guard.violations == 1

    def test_reduce_steps_rung(self, rng):
        # A one-shot NaN (absolute call index, no period) hits the first
        # steps=2 product; the escalation recompute at steps=1 is clean,
        # so the guard lands on the reduce-steps rung and persists it.
        spec = FaultSpec(kind="nan", calls=(5,), seed=0)
        inner = _faulty_bini_backend(spec, steps=2)
        guard = GuardedBackend(inner,
                               policy=EscalationPolicy(retune_lambda=False))
        A = rng.random((36, 36)).astype(np.float32)
        B = rng.random((36, 36)).astype(np.float32)
        C = guard.matmul(A, B)
        assert np.isfinite(C).all()
        assert guard.log.count("reduce-steps") == 1
        assert inner.steps == 1

    def test_nonfinite_inputs_do_not_strike_the_backend(self, rng):
        inner = _apa_backend(get_algorithm("bini322"))
        guard = GuardedBackend(inner)
        A = rng.random((32, 32)).astype(np.float32)
        A[0, 0] = np.nan
        B = rng.random((32, 32)).astype(np.float32)
        C = guard.matmul(A, B)
        assert np.isnan(C).any()  # garbage in, garbage out — by design
        assert guard.violations == 0
        assert guard.log.count("input-nonfinite") == 1
        assert not guard.breaker.open_keys()

    def test_inner_exception_falls_back(self, rng):
        class Boom:
            name = "boom"

            def matmul(self, A, B):
                raise RuntimeError("kernel died")

        guard = GuardedBackend(Boom())
        A, B = rng.random((8, 8)), rng.random((8, 8))
        C = guard.matmul(A, B)
        np.testing.assert_allclose(C, A @ B)
        assert guard.violations == 1
        assert guard.log.count("exception") == 1
        assert guard.log.count("fallback") == 1

    def test_shared_event_log(self, rng):
        from repro.robustness.events import EventLog

        log = EventLog()
        g1 = GuardedBackend(ClassicalBackend(), log=log)
        g2 = GuardedBackend(ClassicalBackend(), log=log)
        assert g1.log is log and g2.log is log


class TestGuardOverhead:
    def test_overhead_within_ten_percent_at_1024(self):
        """Acceptance: guard checks cost <= 10% wall-clock on a
        1024x1024 guarded APA product (timing-noise tolerant: best of
        three independent measurements)."""
        from repro.bench.guard_overhead import measure_guard_overhead

        overheads = []
        for attempt in range(3):
            result = measure_guard_overhead("bini322", n=1024, repeats=3,
                                            seed=attempt)
            overheads.append(result.overhead)
            if result.overhead <= 0.10:
                break
        assert min(overheads) <= 0.10, f"guard overheads: {overheads}"


class TestRecoveryStudy:
    def test_guarded_run_recovers_unguarded_collapses(self):
        """Acceptance: mid-training NaN fault — the guarded run rolls
        back and finishes within 2 points of the clean run while the
        unguarded run collapses to chance."""
        from repro.experiments.robustness import run_guarded_recovery_study

        result = run_guarded_recovery_study(fault_epoch=1, epochs=6, seed=0)
        assert result.rollbacks >= 1
        assert "rollback" in result.guard_events
        assert "downgrade" in result.guard_events
        assert result.guarded_gap <= 0.02
        assert result.unguarded_gap > 0.3  # chance-level collapse
