"""The plan-and-arena execution engine (core.plan + parallel.pool)."""

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.core.engine import default_engine
from repro.core.plan import (
    PlanCache,
    configure_plan_cache,
    default_plan_cache,
    resolve_plan_cache,
)
from repro.parallel.executor import ExecutionReport
from repro.parallel.pool import get_pool, pool_stats, shutdown_pool
from repro.robustness.events import EventLog
from repro.robustness.guard import GuardedBackend
from tests._reference_bilinear import reference_matmul

ENGINE = default_engine()


def _operands(shape, dtype=np.float64, seed=7):
    rng = np.random.default_rng(seed)
    M, N, K = shape
    A = rng.standard_normal((M, N)).astype(dtype)
    B = rng.standard_normal((N, K)).astype(dtype)
    return A, B


# ----------------------------------------------------------------------
# bit-identity: every path against the independent reference recursion
# ----------------------------------------------------------------------


ORACLE_GRID = [
    (name, dtype, steps, shape)
    for name in ("strassen222", "bini322", "laderman333", "dps222")
    for dtype in (np.float32, np.float64)
    for steps in (1, 2)
    # divisible by every rule's dims at both depths, and ragged
    for shape in ((36, 36, 36), (17, 13, 11))
]


@pytest.mark.parametrize("name,dtype,steps,shape", ORACLE_GRID)
def test_every_path_matches_the_reference_bitwise(name, dtype, steps, shape):
    alg = get_algorithm(name)
    A, B = _operands(shape, dtype=dtype)
    expected = reference_matmul(A, B, alg, steps=steps)
    cache = PlanCache()
    paths = {
        "cached": apa_matmul(A, B, alg, steps=steps, plan_cache=cache),
        "cached again": apa_matmul(A, B, alg, steps=steps, plan_cache=cache),
        "uncached": apa_matmul(A, B, alg, steps=steps, plan_cache=False),
        "process": ENGINE.matmul(A, B, alg, executor="process", threads=2,
                                 steps=steps),
        # a report selects the scheduled runner even on one thread
        "threads=1 scheduled": ENGINE.matmul(
            A, B, alg, threads=1, steps=steps, plan_cache=cache,
            report=ExecutionReport()),
    }
    for threads in (1, 2, 3):
        paths[f"threads={threads}"] = ENGINE.matmul(
            A, B, alg, threads=threads, steps=steps, plan_cache=cache)
    if steps == 1:
        # Stacked batched mode is single-step; each item is the 2-D product.
        stacked = ENGINE.matmul(np.stack([A, 2 * A]), np.stack([B, B]),
                                alg, plan_cache=cache)
        paths["batched item 0"] = stacked[0]
        assert np.array_equal(stacked[1],
                              reference_matmul(2 * A, B, alg, steps=1))
    for label, C in paths.items():
        assert C.dtype == expected.dtype, label
        assert np.array_equal(C, expected), label


@pytest.mark.parametrize("name", ["strassen222", "bini322"])
@pytest.mark.parametrize("shape", [(32, 32, 32), (17, 13, 11)])
@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_plan_matches_reference_bitwise(name, shape, steps, dtype):
    alg = get_algorithm(name)
    A, B = _operands(shape, dtype=dtype)
    expected = reference_matmul(A, B, alg, steps=steps)
    cold = apa_matmul(A, B, alg, steps=steps, plan_cache=False)
    cache = PlanCache()
    warm1 = apa_matmul(A, B, alg, steps=steps, plan_cache=cache)
    warm2 = apa_matmul(A, B, alg, steps=steps, plan_cache=cache)
    assert np.array_equal(cold, expected)
    assert np.array_equal(warm1, expected)
    assert np.array_equal(warm1, warm2)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_plan_reuse_is_bit_identical_across_many_calls():
    alg = get_algorithm("bini322")
    A, B = _operands((24, 16, 20), dtype=np.float32)
    cache = PlanCache()
    reference = reference_matmul(A, B, alg)
    results = [apa_matmul(A, B, alg, plan_cache=cache) for _ in range(5)]
    for C in results:
        assert np.array_equal(C, reference)
    assert cache.stats() == {
        "size": 1, "maxsize": 64, "hits": 4, "misses": 1, "evictions": 0,
    }


def test_plan_result_does_not_alias_the_arena():
    # The arena's C buffer is reused; the returned array must be a copy.
    alg = get_algorithm("strassen222")
    A, B = _operands((16, 16, 16))
    cache = PlanCache()
    C1 = apa_matmul(A, B, alg, plan_cache=cache)
    snapshot = C1.copy()
    apa_matmul(2 * A, B, alg, plan_cache=cache)
    assert np.array_equal(C1, snapshot)
    assert C1.base is None


def test_guarded_backend_plan_reuse_bit_identical():
    alg = get_algorithm("strassen222")
    A, B = _operands((32, 32, 32), dtype=np.float64, seed=3)

    reference = reference_matmul(A, B, alg)
    cache = PlanCache()
    guarded = GuardedBackend(
        ENGINE.backend(algorithm=alg, plan_cache=cache))
    out1 = guarded.matmul(A, B)
    out2 = guarded.matmul(A, B)
    assert np.array_equal(out1, reference)
    assert np.array_equal(out2, reference)
    assert guarded.violations == 0
    assert cache.stats()["hits"] >= 1


def test_threaded_plan_matches_sequential_bitwise():
    alg = get_algorithm("bini322")
    A, B = _operands((17, 14, 10), dtype=np.float32, seed=11)
    sequential = reference_matmul(A, B, alg)
    cache = PlanCache()
    t1 = ENGINE.matmul(A, B, alg, threads=3, plan_cache=cache)
    t2 = ENGINE.matmul(A, B, alg, threads=3, plan_cache=cache)
    assert np.array_equal(t1, sequential)
    assert np.array_equal(t2, sequential)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


# ----------------------------------------------------------------------
# batched stacked mode on ragged shapes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(5, 7, 9), (3, 5, 4), (7, 3, 5)])
def test_batched_stacked_ragged_shapes(shape):
    # None of these dims divide bini322's (3,2,2) — every axis pads.
    alg = get_algorithm("bini322")
    rng = np.random.default_rng(0)
    batch = 4
    M, N, K = shape
    A = rng.standard_normal((batch, M, N))
    B = rng.standard_normal((batch, N, K))

    stacked = ENGINE.matmul(A, B, alg, batch_mode="stacked")
    assert stacked.shape == (batch, M, K)
    looped = ENGINE.matmul(A, B, alg, batch_mode="loop")
    np.testing.assert_allclose(stacked, looped, rtol=1e-9, atol=1e-9)

    exact = np.matmul(A, B)
    assert np.max(np.abs(stacked - exact)) / np.max(np.abs(exact)) < 1e-5


def test_batched_stacked_plan_reuse_bit_identical():
    alg = get_algorithm("strassen222")
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 9, 7)).astype(np.float32)
    B = rng.standard_normal((3, 7, 5)).astype(np.float32)

    cold = ENGINE.matmul(A, B, alg, plan_cache=False)
    cache = PlanCache()
    warm1 = ENGINE.matmul(A, B, alg, plan_cache=cache)
    warm2 = ENGINE.matmul(A, B, alg, plan_cache=cache)
    for i in range(A.shape[0]):
        assert np.array_equal(cold[i], reference_matmul(A[i], B[i], alg))
    assert np.array_equal(cold, warm1)
    assert np.array_equal(warm1, warm2)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


# ----------------------------------------------------------------------
# the cache itself
# ----------------------------------------------------------------------


def test_plan_cache_lru_eviction_and_counters():
    alg = get_algorithm("strassen222")
    cache = PlanCache(maxsize=2)
    shapes = [(8, 8, 8), (16, 16, 16), (32, 32, 32)]
    for M, N, K in shapes:
        cache.plan_for(alg, M, N, K, np.float64, lam=1.0)
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["misses"] == 3
    assert stats["evictions"] == 1
    # The oldest entry was evicted; asking again rebuilds it.
    cache.plan_for(alg, 8, 8, 8, np.float64, lam=1.0)
    assert cache.stats()["misses"] == 4
    # The newest two were retained.
    cache.plan_for(alg, 32, 32, 32, np.float64, lam=1.0)
    assert cache.stats()["hits"] == 1


def test_plan_cache_event_log_instrumentation():
    alg = get_algorithm("strassen222")
    log = EventLog()
    cache = PlanCache(maxsize=1, log=log)
    cache.plan_for(alg, 8, 8, 8, np.float64, lam=1.0)
    cache.plan_for(alg, 16, 16, 16, np.float64, lam=1.0)
    assert log.count("plan-miss") == 2
    assert log.count("plan-evict") == 1


def test_plan_cache_clear_keeps_lifetime_counters():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    cache.plan_for(alg, 8, 8, 8, np.float64, lam=1.0)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["misses"] == 1


def test_plan_cache_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_resolve_plan_cache_semantics():
    assert resolve_plan_cache(None) is default_plan_cache()
    assert resolve_plan_cache(False) is None
    mine = PlanCache()
    assert resolve_plan_cache(mine) is mine
    with pytest.raises(TypeError):
        resolve_plan_cache("yes please")


def test_configure_plan_cache_replaces_default():
    before = default_plan_cache()
    try:
        cache = configure_plan_cache(maxsize=3)
        assert default_plan_cache() is cache
        assert cache.maxsize == 3
    finally:
        configure_plan_cache()  # restore a fresh default-sized cache


# ----------------------------------------------------------------------
# the plan object
# ----------------------------------------------------------------------


def test_workspace_pooling_reuses_one_arena():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    A, B = _operands((16, 16, 16))
    plan = cache.plan_for(alg, 16, 16, 16, A.dtype, lam=1.0)
    plan.execute(A, B)
    plan.execute(A, B)
    plan.execute(A, B)
    assert plan.executions == 3
    assert plan.workspaces_built == 1


def test_plan_estimate_prices_the_arena():
    alg = get_algorithm("bini322")
    cache = PlanCache()
    plan = cache.plan_for(alg, 24, 16, 20, np.float32, lam=1.0, steps=2)
    est = plan.estimate
    assert est.total > 0


def test_plan_execute_validates_shapes():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    plan = cache.plan_for(alg, 16, 16, 16, np.float64, lam=1.0)
    A, B = _operands((8, 8, 8))
    with pytest.raises(ValueError):
        plan.execute(A, B)


def test_batched_plan_has_no_arena():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    plan = cache.plan_for(alg, 9, 7, 5, np.float64, lam=1.0, mode="batched")
    with pytest.raises(ValueError):
        plan.checkout()


def test_evaluate_memoization_returns_same_arrays():
    alg = get_algorithm("bini322")
    alg.clear_evaluation_cache()
    first = alg.evaluate(0.01, dtype=np.float32)
    second = alg.evaluate(0.01, dtype=np.float32)
    assert all(a is b for a, b in zip(first, second))
    assert not first[0].flags.writeable
    other = alg.evaluate(0.02, dtype=np.float32)
    assert other[0] is not first[0]
    alg.clear_evaluation_cache()
    assert alg.evaluate(0.01, dtype=np.float32)[0] is not first[0]


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------


def test_pool_is_persistent_and_resizes_on_change():
    shutdown_pool()
    base = pool_stats()
    p2 = get_pool(2)
    assert get_pool(2) is p2
    stats = pool_stats()
    assert stats["threads"] == 2
    assert stats["creates"] == base["creates"] + 1
    p3 = get_pool(3)
    assert p3 is not p2
    stats = pool_stats()
    assert stats["threads"] == 3
    assert stats["resizes"] == base["resizes"] + 1
    shutdown_pool()
    assert pool_stats()["threads"] == 0


def test_pool_rejects_bad_thread_count():
    with pytest.raises(ValueError):
        get_pool(0)
