"""The backend-stack subsystem: composition, identity, and the stages.

Pins the refactor's load-bearing contracts:

- an empty stack and every identity-stage ordering are bit-identical to
  the bare sequential path (the shim guarantee);
- the randomized stage is exact in exact arithmetic, deterministic
  under a fixed seed, and composes with the guard;
- stage selection (sugar knobs vs ``stages=``), canonical ordering, and
  the plan-key / error-bound aggregation;
- the DPS accuracy-optimal Strassen variant's exact growth pin.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.backends import (
    BackendStack,
    BackendStage,
    GuardedBackend,
    active_stage_names,
    apply_signed_permutation,
    build_stages,
    get_stage,
    signed_permutation,
)
from repro.core.config import ExecutionConfig
from repro.core.engine import ExecutionEngine


@pytest.fixture()
def operands():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((48, 48)).astype(np.float32)
    B = rng.standard_normal((48, 48)).astype(np.float32)
    return A, B


# ----------------------------------------------------------------------
# bit-identity: disabled / identity stage orderings == bare sequential path
# ----------------------------------------------------------------------


IDENTITY_CONFIGS = [
    dict(),                                  # no stages at all
    dict(stages=()),                         # explicitly empty
    dict(guarded=True),                      # sugar knob
    dict(stages=("guard",)),                 # named stage
    dict(stages=("trace",)),                 # pure-observer stage
    dict(stages=("guard", "trace")),         # both, canonical order
    dict(guarded=True, stages=("trace",)),   # sugar + named mixed
]


@pytest.mark.parametrize("algorithm", ["strassen222", "bini322"])
@pytest.mark.parametrize("knobs", IDENTITY_CONFIGS,
                         ids=[str(sorted(k.items())) for k in IDENTITY_CONFIGS])
def test_identity_stacks_bit_identical_to_bare(operands, algorithm, knobs):
    """Guard (healthy call) and trace (no tracer) change no bits."""
    A, B = operands
    bare = ExecutionEngine().matmul(A, B, algorithm=algorithm)
    staged = ExecutionEngine().matmul(A, B, algorithm=algorithm, **knobs)
    np.testing.assert_array_equal(staged, bare)


def test_empty_stack_is_the_target():
    class Target:
        name = "t"

        def matmul(self, A, B):
            return A @ B

    target = Target()
    stack = BackendStack((), target)
    assert stack.name == "t"
    A = np.eye(3)
    np.testing.assert_array_equal(stack.matmul(A, A), A)
    # no stages -> the composed callable IS the target's bound method
    assert stack._fn.__self__ is target


def test_identity_base_stages_pass_through(operands):
    """A stack of default BackendStage instances is a no-op wrapper."""
    A, B = operands

    class S1(BackendStage):
        name = "s1"

    class S2(BackendStage):
        name = "s2"

    class Target:
        name = "t"

        def matmul(self, X, Y):
            return X @ Y

    stack = BackendStack((S1(), S2()), Target())
    np.testing.assert_array_equal(stack.matmul(A, B), A @ B)
    assert stack.name == "stack:s1+s2:t"
    assert stack.plan_key() == ("s1", "s2")
    assert stack.error_bound(0.5) == 0.5


# ----------------------------------------------------------------------
# stage selection and ordering
# ----------------------------------------------------------------------


def test_active_stage_names_canonical_order():
    assert active_stage_names(ExecutionConfig()) == ()
    assert active_stage_names(ExecutionConfig(guarded=True)) == ("guard",)
    # randomized auto-adds trace, and guard stays outermost however
    # the knobs are spelled
    assert active_stage_names(
        ExecutionConfig(randomized=True)) == ("randomized", "trace")
    assert active_stage_names(
        ExecutionConfig(randomized=True, guarded=True)
    ) == ("guard", "randomized", "trace")
    assert active_stage_names(
        ExecutionConfig(stages=("trace", "guard"))) == ("guard", "trace")
    # inject is never selected onto the product seam (gemm-seam only)
    from repro.robustness.inject import FaultSpec

    cfg = ExecutionConfig(fault=FaultSpec(kind="perturb"))
    assert "inject" not in active_stage_names(cfg)


def test_build_stages_matches_names():
    cfg = ExecutionConfig(guarded=True, randomized=True)
    stages = build_stages(cfg)
    assert [s.name for s in stages] == ["guard", "randomized", "trace"]


def test_unknown_stage_rejected():
    with pytest.raises(KeyError, match="unknown stage"):
        get_stage("quantize")
    with pytest.raises(ValueError, match="unknown stage"):
        ExecutionConfig(stages=("quantize",))


def test_stage_knob_conflicts_rejected():
    with pytest.raises(ValueError):
        ExecutionConfig(stages=("guard",), guarded=False)
    with pytest.raises(ValueError):
        ExecutionConfig(stages=("randomized",), randomized=False)
    with pytest.raises(TypeError):
        ExecutionConfig(stages="guard")  # a bare string is a footgun


def test_config_stage_names_in_sync():
    from repro.backends.registry import STAGE_ORDER, _check_stage_names_in_sync
    from repro.core.config import STAGE_NAMES

    assert tuple(STAGE_NAMES) == tuple(STAGE_ORDER)
    _check_stage_names_in_sync()


# ----------------------------------------------------------------------
# the randomized stage
# ----------------------------------------------------------------------


def test_signed_permutation_exact_on_integers():
    rng = np.random.default_rng(0)
    A = rng.integers(-8, 8, size=(40, 40)).astype(np.float64)
    B = rng.integers(-8, 8, size=(40, 40)).astype(np.float64)
    A2, B2 = apply_signed_permutation(A, B, seed=5, draw=3)
    np.testing.assert_array_equal(A2 @ B2, A @ B)


def test_signed_permutation_preserves_dtype(operands):
    A, B = operands
    A2, B2 = apply_signed_permutation(A, B, seed=1)
    assert A2.dtype == np.float32 and B2.dtype == np.float32


def test_signed_permutation_seeded_stream():
    p1, s1 = signed_permutation(64, seed=9, draw=0)
    p2, s2 = signed_permutation(64, seed=9, draw=0)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(s1, s2)
    p3, _ = signed_permutation(64, seed=9, draw=1)
    assert not np.array_equal(p1, p3)  # fresh transform per draw
    assert sorted(p1) == list(range(64))
    assert set(np.unique(s1)) <= {-1, 1}


def test_randomized_deterministic_across_engines(operands):
    A, B = operands
    kwargs = dict(algorithm="strassen222", randomized=True, rand_seed=7)
    C1 = ExecutionEngine().matmul(A, B, **kwargs)
    C2 = ExecutionEngine().matmul(A, B, **kwargs)
    np.testing.assert_array_equal(C1, C2)


def test_randomized_guarded_deterministic_and_close(operands):
    A, B = operands
    kwargs = dict(algorithm="strassen222", randomized=True, rand_seed=3,
                  guarded=True)
    C1 = ExecutionEngine().matmul(A, B, **kwargs)
    C2 = ExecutionEngine().matmul(A, B, **kwargs)
    np.testing.assert_array_equal(C1, C2)
    ref = A.astype(np.float64) @ B.astype(np.float64)
    rel = np.max(np.abs(C1 - ref)) / np.max(np.abs(ref))
    assert rel < 1e-4  # still an accurate strassen product


def test_randomized_draws_advance_within_engine(operands):
    """One engine re-draws per call (same config) — different bits,
    both valid products."""
    A, B = operands
    engine = ExecutionEngine()
    kwargs = dict(algorithm="bini322", randomized=True, rand_seed=0)
    C1 = engine.matmul(A, B, **kwargs)
    C2 = engine.matmul(A, B, **kwargs)
    assert not np.array_equal(C1, C2)
    ref = A.astype(np.float64) @ B.astype(np.float64)
    for C in (C1, C2):
        assert np.max(np.abs(C - ref)) / np.max(np.abs(ref)) < 1e-2


def test_randomized_rejects_batched():
    engine = ExecutionEngine()
    A = np.zeros((2, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="2-D"):
        engine.matmul(A, A, algorithm="strassen222", randomized=True)


def test_randomized_shard_conflict():
    with pytest.raises(ValueError):
        ExecutionConfig(randomized=True, shard=128)


# ----------------------------------------------------------------------
# the guarded stack through the engine
# ----------------------------------------------------------------------


def test_guarded_backend_identity_and_reuse(operands):
    A, B = operands
    engine = ExecutionEngine()
    b1 = engine.backend(algorithm="strassen222", guarded=True)
    b2 = engine.backend(algorithm="strassen222", guarded=True)
    assert b1 is b2  # cached stack; escalation state persists
    assert isinstance(b1, GuardedBackend)
    np.testing.assert_array_equal(
        b1.matmul(A, B),
        ExecutionEngine().matmul(A, B, algorithm="strassen222"))


def test_stack_plan_key_distinguishes_configs():
    cfg_a = ExecutionConfig(algorithm="strassen222", randomized=True,
                            rand_seed=1)
    cfg_b = ExecutionConfig(algorithm="strassen222", randomized=True,
                            rand_seed=2)
    k_a = BackendStack.from_config(cfg_a).plan_key()
    k_b = BackendStack.from_config(cfg_b).plan_key()
    assert k_a != k_b
    assert k_a[:1] == ("randomized",)


def test_stack_error_bound_folds_through():
    cfg = ExecutionConfig(algorithm="strassen222", guarded=True,
                          randomized=True)
    stack = BackendStack.from_config(cfg)
    # guard/randomized/trace all declare "no effect on the bound"
    assert stack.error_bound(1.25e-7) == 1.25e-7
    from repro.robustness.inject import FaultSpec
    from repro.backends.stages import InjectStage

    stage = InjectStage(FaultSpec(kind="perturb", magnitude=1e-3))
    assert stage.error_bound(1e-7) == pytest.approx(1e-3 + 1e-7)
    assert InjectStage(FaultSpec(kind="nan")).error_bound(1e-7) == float("inf")


# ----------------------------------------------------------------------
# DPS accuracy-optimal Strassen variant (arXiv 2402.05630)
# ----------------------------------------------------------------------


def test_dps222_growth_pin():
    from repro.algorithms.analysis import (frobenius_growth,
                                           growth_product_squared)

    g_dps = growth_product_squared("dps222")
    g_str = growth_product_squared("strassen222")
    assert g_dps == Fraction(531441, 512)
    assert g_str == Fraction(1728)
    assert g_dps < g_str
    assert frobenius_growth("dps222") == pytest.approx(
        float(Fraction(531441, 512)) ** 0.5)


def test_dps222_exact_and_more_accurate_than_strassen():
    from repro.algorithms.catalog import get_algorithm
    from repro.algorithms.verify import verify_algorithm
    from repro.core.apa_matmul import apa_matmul

    alg = get_algorithm("dps222")
    report = verify_algorithm(alg)
    assert report.valid and report.is_exact
    assert alg.rank == 7 and alg.dims == (2, 2, 2)

    rng = np.random.default_rng(1)
    A = rng.standard_normal((64, 64)).astype(np.float32)
    B = rng.standard_normal((64, 64)).astype(np.float32)
    ref = A.astype(np.float64) @ B.astype(np.float64)
    err_dps = np.max(np.abs(apa_matmul(A, B, alg, steps=3) - ref))
    err_str = np.max(np.abs(
        apa_matmul(A, B, get_algorithm("strassen222"), steps=3) - ref))
    # the lower-growth coefficients buy a measurably smaller error
    assert err_dps < err_str


def test_sandwich_preserves_exactness_and_rank():
    from repro.algorithms.catalog import get_algorithm
    from repro.algorithms.transforms import sandwich
    from repro.algorithms.verify import verify_algorithm

    X = ((1, Fraction(1, 3)), (0, 1))
    Y = ((Fraction(2), 0), (Fraction(1, 2), Fraction(1, 2)))
    Z = ((1, 0), (Fraction(-1, 4), 1))
    out = sandwich(get_algorithm("strassen222"), X, Y, Z, name="orbit")
    report = verify_algorithm(out)
    assert report.valid and report.is_exact
    assert out.rank == 7

    with pytest.raises(ValueError, match="singular"):
        sandwich(get_algorithm("strassen222"),
                 ((1, 1), (1, 1)), Y, Z)


# ----------------------------------------------------------------------
# legacy shims stay honest
# ----------------------------------------------------------------------


def test_legacy_wrappers_are_reexports():
    from repro.backends.guard import GuardedBackend as new_guard
    from repro.robustness.guard import GuardedBackend as old_guard

    assert old_guard is new_guard


def test_faulty_backend_routes_through_inject_stage(operands):
    from repro.core.backend import make_backend
    from repro.robustness.inject import FaultSpec, FaultyBackend, \
        GemmFaultInjector

    A, B = operands
    fb = FaultyBackend(make_backend(None),
                       FaultSpec(kind="perturb", magnitude=1e-3, calls=(0,)))
    assert isinstance(fb.injector, GemmFaultInjector)
    C = fb.matmul(A, B)
    assert fb.injector.faults_fired == 1
    assert not np.array_equal(C, A @ B)
