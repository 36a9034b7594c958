"""The backend stack: the fixed guard-over-randomized composition.

Pins the stack's load-bearing contracts:

- a stack with no active layer, and a guard on a healthy call, are
  bit-identical to the bare sequential path;
- ``from_config`` composes the guard over the randomized transform,
  and the engine caches one stack per config (per ``rand_seed``);
- the randomized transform is exact in exact arithmetic, deterministic
  under a fixed seed, and composes with the guard;
- the error bound counts ``fault=``, and the ``stages=`` knob is gone;
- the DPS accuracy-optimal Strassen variant's exact growth pin.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest

from repro.backends import (
    BackendStack,
    GuardedBackend,
    apply_signed_permutation,
    signed_permutation,
)
from repro.core.config import ExecutionConfig, execution_context
from repro.core.engine import EngineBackend, ExecutionEngine, default_engine
from repro.obs.tracer import Tracer, use_tracer
from repro.robustness.inject import FaultSpec


@pytest.fixture()
def operands():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((48, 48)).astype(np.float32)
    B = rng.standard_normal((48, 48)).astype(np.float32)
    return A, B


# ----------------------------------------------------------------------
# bit-identity: inactive / identity layers == bare sequential path
# ----------------------------------------------------------------------


#: Keyed by the retired ``stages=`` spellings; each runs as its
#: CHANGELOG successor (see ``_successor``).
IDENTITY_CONFIGS = [
    dict(),                                  # no layers at all
    dict(stages=()),                         # explicitly empty
    dict(guarded=True),                      # the guard knob
    dict(stages=("guard",)),                 # -> guarded=True
    dict(stages=("trace",)),                 # -> an installed tracer
    dict(stages=("guard", "trace")),         # -> both
    dict(guarded=True, stages=("trace",)),   # -> both
]


def _successor(knobs):
    """``(config kwargs, traced)`` for one retired ``stages=`` spelling:
    ``"guard"`` → ``guarded=True``, ``"trace"`` → install a tracer."""
    knobs = dict(knobs)
    stages = knobs.pop("stages", ())
    if "guard" in stages:
        knobs["guarded"] = True
    return knobs, "trace" in stages


@pytest.mark.parametrize("algorithm", ["strassen222", "bini322"])
@pytest.mark.parametrize("knobs", IDENTITY_CONFIGS,
                         ids=[str(sorted(k.items())) for k in IDENTITY_CONFIGS])
def test_identity_stacks_bit_identical_to_bare(operands, algorithm, knobs):
    """Guard (healthy call) and tracing change no bits."""
    A, B = operands
    bare = ExecutionEngine().matmul(A, B, algorithm=algorithm)
    kwargs, traced = _successor(knobs)
    with use_tracer(Tracer()) if traced else nullcontext():
        staged = ExecutionEngine().matmul(A, B, algorithm=algorithm, **kwargs)
    np.testing.assert_array_equal(staged, bare)


def test_empty_stack_is_the_target():
    stack = BackendStack.from_config(ExecutionConfig(algorithm="strassen222"))
    assert isinstance(stack.target, EngineBackend)
    assert stack.name == stack.target.name == "apa:strassen222"
    assert stack.guard is None
    # no layers -> the composed callable IS the target's bound method
    assert stack._fn.__self__ is stack.target
    A = np.eye(4)
    np.testing.assert_array_equal(stack.matmul(A, A), A)


# ----------------------------------------------------------------------
# the fixed composition
# ----------------------------------------------------------------------


def test_active_stage_names_canonical_order(operands):
    """``from_config`` composes the guard over the randomized transform:
    the guard's inner callable is the randomized one, so the guard's
    residual probe checks the randomized product."""
    A, B = operands
    cfg = ExecutionConfig(algorithm="strassen222", guarded=True,
                          randomized=True, rand_seed=4)
    stack = BackendStack.from_config(cfg)
    assert isinstance(stack.guard, GuardedBackend)
    assert stack._fn == stack.guard.matmul  # guard outermost
    below_guard = stack.guard.inner.matmul(A, B)
    assert stack.draws == 1  # the guard's inner layer drew
    A2, B2 = apply_signed_permutation(A, B, seed=4, draw=0)
    np.testing.assert_array_equal(below_guard, stack.target.matmul(A2, B2))
    # the guard passes a healthy randomized product through unchanged
    C = stack.matmul(A, B)
    A2, B2 = apply_signed_permutation(A, B, seed=4, draw=1)
    np.testing.assert_array_equal(C, stack.target.matmul(A2, B2))
    assert stack.draws == 2


def test_build_stages_matches_names():
    """The stack builds exactly the layers its knobs name; ``fault=``
    is not a layer (it wraps the terminal backend's gemm)."""
    def built(**knobs):
        return BackendStack.from_config(
            ExecutionConfig(algorithm="strassen222", **knobs))

    assert built(guarded=True).name == "stack:guard:apa:strassen222"
    assert built(randomized=True).name == (
        "stack:randomized+trace:apa:strassen222")
    both = built(guarded=True, randomized=True)
    assert both.name == "stack:guard+randomized+trace:apa:strassen222"
    assert built(randomized=True).guard is None
    faulty = built(guarded=True, fault=FaultSpec(kind="perturb"))
    assert faulty.name == "stack:guard:apa:strassen222"


def _assert_unknown_field(kwargs):
    """``stages=`` fails loudly by name on every entry path."""
    with pytest.raises(TypeError, match="stages"):
        ExecutionConfig(**kwargs)
    A = np.eye(8)
    with pytest.raises(TypeError, match="stages"):
        default_engine().matmul(A, A, "strassen222", **kwargs)
    with pytest.raises(TypeError, match="stages"):
        with execution_context(**kwargs):
            pass  # pragma: no cover


def test_unknown_stage_rejected():
    """``stages=`` is no longer a field; ``guarded=``/``randomized=``
    replace it."""
    for kwargs in (dict(stages=("quantize",)), dict(stages=("guard",))):
        _assert_unknown_field(kwargs)


def test_stage_knob_conflicts_rejected():
    """What used to be a stages/knob conflict is now an unknown field."""
    for kwargs in (dict(stages=("guard",), guarded=False),
                   dict(stages=("randomized",), randomized=False),
                   dict(stages="guard")):
        _assert_unknown_field(kwargs)


@pytest.mark.parametrize("knobs, layers", [
    (dict(randomized=True), "randomized+trace"),
    (dict(guarded=True, randomized=True), "guard+randomized+trace"),
    (dict(guarded=True), None),
])
def test_traced_call_emits_one_backend_stack_span(operands, knobs, layers):
    """A traced randomized call opens exactly one ``backend-stack``
    span; a guarded-only call opens none (its ``apa_matmul`` span
    already covers the call)."""
    A, B = operands
    tracer = Tracer()
    with use_tracer(tracer):
        ExecutionEngine().matmul(A, B, algorithm="strassen222", **knobs)
    spans = [s for s in tracer.spans if s.name == "backend-stack"]
    assert [s.name for s in tracer.spans].count("apa_matmul") == 1
    if layers is None:
        assert spans == []
        return
    assert len(spans) == 1
    assert spans[0].cat == "backends"
    assert spans[0].args == {"stages": layers, "target": "apa:strassen222",
                             "shape": "(48, 48)@(48, 48)"}


# ----------------------------------------------------------------------
# the randomized layer
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


def test_stack_plan_key_distinguishes_configs(operands):
    """The engine caches one stack per ``rand_seed``: distinct seeds
    never share a draw stream, equal seeds always do."""
    A, B = operands
    engine = ExecutionEngine()
    kwargs = dict(algorithm="strassen222", randomized=True)
    s1 = engine.backend(rand_seed=1, **kwargs)
    s2 = engine.backend(rand_seed=2, **kwargs)
    assert s1 is not s2
    assert engine.backend(rand_seed=1, **kwargs) is s1
    assert not np.array_equal(s1.matmul(A, B), s2.matmul(A, B))
    assert (s1.draws, s2.draws) == (1, 1)


def test_stack_error_bound_folds_through():
    cfg = ExecutionConfig(algorithm="strassen222", guarded=True,
                          randomized=True)
    stack = BackendStack.from_config(cfg)
    # the guard enforces the bound and the signed permutation is exact
    assert stack.error_bound(1.25e-7) == 1.25e-7
    faulty = BackendStack.from_config(cfg.replace(
        fault=FaultSpec(kind="perturb", magnitude=1e-3)))
    assert faulty.error_bound(1e-7) == pytest.approx(1e-3 + 1e-7)


@pytest.mark.parametrize("kind, bound", [
    ("nan", float("inf")),
    ("inf", float("inf")),
    ("raise", float("inf")),
    ("perturb", 1e-3 + 2.0 ** -23),
    ("stall", 2.0 ** -23),
])
def test_stack_error_bound_counts_the_fault(kind, bound):
    """``error_bound()`` with no argument states the bound a caller may
    assume, so an injected fault must show in it."""
    cfg = ExecutionConfig(algorithm="strassen222", guarded=True)
    assert BackendStack.from_config(cfg).error_bound() == 2.0 ** -23
    spec = FaultSpec(kind=kind, magnitude=1e-3, stall_seconds=0.0)
    stack = BackendStack.from_config(cfg.replace(fault=spec))
    assert stack.error_bound() == pytest.approx(bound)


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
# re-exports and the fault seam
# ----------------------------------------------------------------------


def test_legacy_wrappers_are_reexports():
    """``repro.robustness`` re-exports the guard; the second import path
    (``repro.robustness.guard``) is gone."""
    import importlib.util

    from repro.backends.guard import GuardedBackend as new_guard
    from repro.robustness import GuardedBackend as package_guard

    assert package_guard is new_guard
    assert importlib.util.find_spec("repro.robustness.guard") is None


def test_faulty_backend_routes_through_inject_stage(operands):
    """``fault=`` wraps the terminal backend's gemm in one persistent
    :class:`GemmFaultInjector`."""
    from repro.robustness.inject import GemmFaultInjector

    A, B = operands
    fb = default_engine().backend(
        fault=FaultSpec(kind="perturb", magnitude=1e-3, calls=(0,)))
    assert isinstance(fb.gemm, GemmFaultInjector)
    C = fb.matmul(A, B)
    assert fb.gemm.faults_fired == 1
    assert not np.array_equal(C, A @ B)
