"""Execution configuration: one frozen record of *what* to run.

The repo's matmul entry points (``apa_matmul``, ``engine.matmul``,
``engine.backend`` and ``shard_matmul``) share one dispatch point —
:mod:`repro.core.engine` — and one evaluator, the cached
:class:`~repro.core.plan.ExecutionPlan`.  This module holds the value
object those layers share:

- :class:`ExecutionConfig` — a frozen dataclass capturing everything
  that selects an execution: the algorithm (or per-level algorithm
  tuple for non-stationary recursion), ``lam``, ``steps``, precision
  policy ``d``, base-case ``gemm``, threading (``threads`` /
  ``strategy`` / ``schedule``), ``plan_cache``, guard policy, fault
  spec, per-job ``retries`` / ``timeout``, the worker ``executor``
  and out-of-core ``shard`` geometry, and the ``tuned`` opt-in to the
  learned dispatch table (:mod:`repro.tune`).  No field names the
  runner: the engine derives sequential vs threaded vs process
  execution from these knobs.
- :func:`execution_context` — a process-wide context manager layering
  config overrides under every call that does not set them explicitly.
- :func:`active_overrides` — the merged override mapping currently in
  effect (``None`` when no context is active; the engine's fast path
  is a single read of this).

Every field defaults to ``None`` meaning **unset** — "inherit from the
next layer down".  Resolution follows the precedence rule (highest
wins)::

    explicit kwarg  >  backend/engine field  >  active context  >  defaults

so a config never has to restate defaults, and two configs merge by
"non-``None`` wins".  Note the corollary: for the few knobs where
``None`` is itself meaningful at run time (``lam=None`` = theory
optimum, ``gemm=None`` = ``np.matmul``, ``plan_cache=None`` = process
default), "leave it at the runtime default" and "unset" coincide —
pass the explicit sentinel (e.g. ``plan_cache=False``) to *pin* a
non-default choice against outer layers.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.types import GemmFn

__all__ = [
    "BATCH_MODES",
    "EXECUTORS",
    "STAGE_NAMES",
    "ExecutionConfig",
    "active_overrides",
    "execution_context",
]

#: Batched execution modes (``engine.matmul`` on 3-D operands).
BATCH_MODES = ("stacked", "loop")

#: Schedule executors: worker threads (the default — gemms release the
#: GIL) or worker processes over shared memory (the combinations scale
#: too; see :mod:`repro.parallel.procpool`).
EXECUTORS = ("thread", "process")

#: Backend-stack stage names in canonical composition order (outermost
#: first).  A literal copy of
#: :data:`repro.backends.registry.STAGE_ORDER` — config cannot import
#: the registry (the registry's stages need config-resolved knobs), so
#: the registry asserts the two stay in sync at import time.
STAGE_NAMES = ("guard", "randomized", "trace", "inject")

#: Stage names accepted in ``ExecutionConfig.stages``.  ``inject`` is
#: excluded: fault injection acts on the gemm seam inside the terminal
#: backend and is requested with the ``fault=`` knob — naming it on the
#: product seam as well would double-inject.
SETTABLE_STAGES = ("guard", "randomized", "trace")


def _validate_shard(shard: Any) -> None:
    """Shard geometry: a positive tile edge, a ``(tile_m, tile_n,
    tile_k)`` triple, or any object with those attributes (duck-typed so
    config does not import :mod:`repro.shard`)."""
    if isinstance(shard, bool):
        raise TypeError(f"shard must be a tile size, triple, or "
                        f"ShardSpec, got {shard!r}")
    if isinstance(shard, int):
        if shard < 1:
            raise ValueError(f"shard tile size must be >= 1, got {shard}")
        return
    if isinstance(shard, (tuple, list)):
        if len(shard) != 3 or not all(
                isinstance(t, int) and not isinstance(t, bool) and t >= 1
                for t in shard):
            raise ValueError(
                f"shard triple must be three ints >= 1, got {shard!r}")
        return
    tiles = (getattr(shard, "tile_m", None), getattr(shard, "tile_n", None),
             getattr(shard, "tile_k", None))
    if not all(isinstance(t, int) and t >= 1 for t in tiles):
        raise TypeError(
            f"shard must be a tile size, a (tile_m, tile_n, tile_k) "
            f"triple, or a ShardSpec-like object, got {shard!r}")


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything that selects one matmul execution.

    All fields default to ``None`` = unset; see the module docstring
    for merge semantics.  Validation runs on construction and checks
    only the fields that are set, plus cross-field combinations that
    can never execute (those raise immediately with a clear message
    rather than failing deep inside a backend).
    """

    #: Algorithm: an ``AlgorithmLike``, a catalog name, a *sequence* of
    #: either (non-stationary: one per recursion level), or ``None``
    #: for classical ``gemm`` (still composable with guard/fault/trace).
    algorithm: Any = None
    lam: float | None = None
    steps: int | None = None
    #: Precision bits for the default-``lam`` formula.
    d: int | None = None
    #: Base-case multiply (resolved default ``np.matmul``).
    gemm: GemmFn | None = None
    threads: int | None = None
    #: §3.2 schedule strategy (resolved default ``"hybrid"``).
    strategy: str | None = None
    #: Pre-built :class:`repro.parallel.strategy.Schedule` override.
    schedule: Any = None
    #: ``None`` = process default cache, ``False`` = uncached plans
    #: built per call, or a private :class:`repro.core.plan.PlanCache`.
    plan_cache: Any = None
    #: One of :data:`BATCH_MODES` for 3-D operands.
    batch_mode: str | None = None
    guarded: bool | None = None
    #: :class:`repro.robustness.guard.GuardPolicy` override.
    guard_policy: Any = None
    #: :class:`repro.robustness.inject.FaultSpec` wrapped around gemm.
    fault: Any = None
    retries: int | None = None
    timeout: float | None = None
    check_finite: bool | None = None
    #: Products with ``min(M, N, K)`` below this fall back to ``A @ B``.
    min_dim: int | None = None
    #: One of :data:`EXECUTORS` (resolved default ``"thread"``):
    #: which worker kind runs the §3.2 schedule.
    executor: str | None = None
    #: Out-of-core tile geometry: an int edge, ``(tile_m, tile_n,
    #: tile_k)``, or a :class:`repro.shard.ShardSpec`.  Setting it
    #: routes 2-D products through the sharded path.
    shard: Any = None
    #: Consult the installed :class:`repro.tune.DispatchTable` for 2-D
    #: products whose ``algorithm``/``executor`` are still unset after
    #: all higher layers merged (precedence: below explicit kwargs and
    #: the active context, above built-in defaults).  Uncovered cells
    #: fall back to the static defaults (classical gemm).
    tuned: bool | None = None
    #: Seeded signed-permutation operand transform before the product
    #: (Malik & Becker, arXiv 1905.07439): debiases APA error, shrinking
    #: its variance at the same lambda.  Composable with ``guarded`` —
    #: the guard is stacked outside, so its residual probe checks the
    #: randomized product.
    randomized: bool | None = None
    #: Seed of the randomized stage's transform stream (resolved
    #: default 0; each call draws fresh from the seeded stream).
    rand_seed: int | None = None
    #: Explicit backend-stack stage names, a subset of
    #: :data:`SETTABLE_STAGES`.  Sugar equivalences: ``"guard"`` ≡
    #: ``guarded=True``, ``"randomized"`` ≡ ``randomized=True``;
    #: ``"trace"`` adds the per-call ``backend-stack`` span on its own.
    #: Order is irrelevant — composition always follows
    #: :data:`STAGE_NAMES`.
    stages: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.tuned is not None and not isinstance(self.tuned, bool):
            raise TypeError(
                f"tuned must be a bool, got {self.tuned!r}")
        if self.lam is not None and (
            not math.isfinite(self.lam) or self.lam <= 0
        ):
            raise ValueError(
                f"lam must be finite and > 0, got {self.lam!r}")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps!r}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads!r}")
        if self.retries is not None and self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout!r}")
        if self.min_dim is not None and self.min_dim < 0:
            raise ValueError(f"min_dim must be >= 0, got {self.min_dim!r}")
        if self.d is not None and self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d!r}")
        if self.batch_mode is not None and self.batch_mode not in BATCH_MODES:
            raise ValueError(
                f"unknown batch_mode {self.batch_mode!r}; expected one of "
                f"{BATCH_MODES}")
        if self.executor is not None and self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTORS}")
        if self.shard is not None:
            _validate_shard(self.shard)
        if self.randomized is not None and not isinstance(
                self.randomized, bool):
            raise TypeError(
                f"randomized must be a bool, got {self.randomized!r}")
        if self.rand_seed is not None and (
                isinstance(self.rand_seed, bool)
                or not isinstance(self.rand_seed, int)):
            raise TypeError(
                f"rand_seed must be an int, got {self.rand_seed!r}")
        if self.stages is not None:
            if isinstance(self.stages, str) or not isinstance(
                    self.stages, (tuple, list)):
                raise TypeError(
                    f"stages must be a tuple of stage names, got "
                    f"{self.stages!r}")
            object.__setattr__(self, "stages", tuple(self.stages))
            unknown = [s for s in self.stages if s not in SETTABLE_STAGES]
            if unknown:
                raise ValueError(
                    f"unknown stage name(s) {unknown!r}; expected a subset "
                    f"of {SETTABLE_STAGES} (fault injection is requested "
                    f"with the fault= knob)")
            if len(set(self.stages)) != len(self.stages):
                raise ValueError(
                    f"duplicate stage names in {self.stages!r}")
        self._check_combinations()

    def _check_combinations(self) -> None:
        """Reject combinations that no backend can execute."""
        if isinstance(self.algorithm, (tuple, list)):
            if not self.algorithm:
                raise ValueError("need at least one algorithm")
            if self.steps is not None and self.steps != 1:
                raise ValueError(
                    "steps does not apply to a non-stationary algorithm "
                    "list — the level list is the recursion")
        if self.executor == "process" and (
                self.gemm is not None or self.fault is not None):
            raise ValueError(
                "executor='process' runs gemms in worker processes; "
                "the gemm/fault seams are thread-executor only")
        if self.randomized and self.shard is not None:
            raise ValueError(
                "randomized=True transforms in-memory operands; the "
                "sharded out-of-core path cannot compose with it")
        if self.stages:
            if "guard" in self.stages and self.guarded is False:
                raise ValueError(
                    "stages names 'guard' but guarded=False; drop one "
                    "(they are two spellings of the same stage)")
            if "randomized" in self.stages and self.randomized is False:
                raise ValueError(
                    "stages names 'randomized' but randomized=False; drop "
                    "one (they are two spellings of the same stage)")
            if "randomized" in self.stages and self.shard is not None:
                raise ValueError(
                    "randomized stage transforms in-memory operands; the "
                    "sharded out-of-core path cannot compose with it")

    # -- merge helpers -------------------------------------------------

    def overrides(self) -> dict[str, Any]:
        """The set (non-``None``) fields as a kwargs mapping."""
        out: dict[str, Any] = {}
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def merged(self, overrides: Mapping[str, Any]) -> "ExecutionConfig":
        """A new config with ``overrides``' non-``None`` entries applied.

        ``overrides`` wins over ``self`` — callers compose layers by
        chaining ``low.merged(high)`` from lowest to highest precedence.
        Unknown keys raise ``TypeError``.
        """
        unknown = set(overrides) - _FIELD_SET
        if unknown:
            raise TypeError(
                f"unknown ExecutionConfig field(s): {sorted(unknown)}")
        merged = self.overrides()
        merged.update(
            {k: v for k, v in overrides.items() if v is not None})
        return ExecutionConfig(**merged)

    def replace(self, **changes: Any) -> "ExecutionConfig":
        """``dataclasses.replace`` shorthand (revalidates)."""
        return dataclasses.replace(self, **changes)


_FIELD_NAMES: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ExecutionConfig))
_FIELD_SET = frozenset(_FIELD_NAMES)


# -- process-wide execution context -----------------------------------
#
# A stack of override mappings shared by the whole process (not a
# contextvar: worker threads spawned by the pool must see the same
# layers the submitting thread saw, and the engine's fast path must be
# one global read).  All mutation happens under _CTX_LOCK; _ACTIVE is
# the merged view, rebuilt on entry/exit and None when the stack is
# empty.

_CTX_LOCK = threading.Lock()
_CTX_STACK: list[dict[str, Any]] = []
_ACTIVE: dict[str, Any] | None = None


def active_overrides() -> Mapping[str, Any] | None:
    """Merged overrides of every active :func:`execution_context`.

    ``None`` when no context is active — the engine's dispatch fast
    path reduces to this single read.
    """
    return _ACTIVE


def _rebuild_active() -> None:
    global _ACTIVE
    if not _CTX_STACK:
        _ACTIVE = None
        return
    merged: dict[str, Any] = {}
    for layer in _CTX_STACK:
        merged.update(layer)
    _ACTIVE = merged


@contextmanager
def execution_context(**overrides: Any) -> Iterator[ExecutionConfig]:
    """Layer execution overrides under every call in the ``with`` body.

    Process-wide: calls on *any* thread see the overrides while the
    context is active (the guard/threaded layers hand work to pool
    threads, which must resolve identically).  Contexts nest — inner
    layers win — and explicit kwargs or backend fields always beat the
    context per the precedence rule.

    ``None`` values are dropped (they mean "unset"); unknown field
    names raise ``TypeError``; field values are validated on entry so
    a bad override fails at the ``with`` statement, not at first use.
    Yields the validated :class:`ExecutionConfig` of this layer alone.
    """
    layer = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(layer) - _FIELD_SET
    if unknown:
        raise TypeError(
            f"unknown ExecutionConfig field(s): {sorted(unknown)}")
    cfg = ExecutionConfig(**layer)  # validates values and combinations
    with _CTX_LOCK:
        _CTX_STACK.append(layer)
        _rebuild_active()
    try:
        yield cfg
    finally:
        with _CTX_LOCK:
            # Remove by identity: robust even if contexts exit out of
            # LIFO order (e.g. interleaved threads).
            for i in range(len(_CTX_STACK) - 1, -1, -1):
                if _CTX_STACK[i] is layer:
                    del _CTX_STACK[i]
                    break
            _rebuild_active()
