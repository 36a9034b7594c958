"""The execution engine: one dispatch point for every matmul path.

Every ⟨U,V,W⟩ product evaluates through one artifact, the cached
:class:`~repro.core.plan.ExecutionPlan` (the paper's §3 write-once
linear combinations → r gemms → output combinations).  There are four
entry points: :func:`repro.core.apa_matmul.apa_matmul` (the paper's
call), :meth:`ExecutionEngine.matmul`, :meth:`ExecutionEngine.backend`
(a reusable :class:`~repro.core.backend.MatmulBackend` for network
layers) and :func:`repro.shard.shard_matmul`.  All of them go through
one :class:`ExecutionEngine` that resolves an
:class:`~repro.core.config.ExecutionConfig` into a layered stack::

    stack    cached BackendStack: GuardedBackend over the seeded
             signed-permutation transform  (config.guarded / .randomized)
      ↓
    inject   wrap gemm in a seeded GemmFaultInjector   (config.fault)
      ↓
    dispatch → plan | threaded | process | shard | batched
               | non-stationary | surrogate | classical gemm
               (``tuned=True`` first fills unset algorithm/steps/executor
               from the learned dispatch table — :mod:`repro.tune`;
               the sequential plan opens one "apa_matmul" span when a
               tracer is on)

The private implementations (``_apa_matmul_impl``, ``_threaded_matmul_impl``,
``_batched_matmul_impl``, ``_process_matmul_impl``,
``_shard_matmul_impl``) may only be called from this module — the
staticcheck rule ENG001 machine-enforces that, so new execution paths
plug in here once instead of into every caller.  The runner follows
from the config alone: ``executor='process'`` picks worker processes;
``threads > 1``, ``retries``, ``timeout``, ``check_finite``,
``schedule``, or a ``report`` pick the threaded executor; everything
else runs the sequential plan.

Dispatch overhead matters: ``apa_matmul`` sits on the hot path the
plan cache optimized, so its no-context fast lane below adds only a
global read and a function call before reaching the plan
(``bench/hotpath.py`` gates the paired-median overhead).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable

import numpy as np

from repro.core.config import ExecutionConfig, active_overrides
from repro.obs import tracer as _obs_tracer
from repro.types import GemmFn

__all__ = ["EngineBackend", "ExecutionEngine", "default_engine"]

_CFG_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ExecutionConfig))

# ---------------------------------------------------------------------
# Lazily bound private implementations.  engine.py deliberately does
# not import the impl modules at module scope (they import *this*
# module to reach the default engine); the first dispatch binds them
# once under a lock.
# ---------------------------------------------------------------------

_IMPL_LOCK = threading.Lock()
_seq_impl: Callable[..., np.ndarray] | None = None
_IMPLS: dict[str, Callable[..., np.ndarray]] = {}


def _load_impls() -> Callable[..., np.ndarray]:
    """Bind every impl once; returns the sequential one."""
    global _seq_impl
    with _IMPL_LOCK:
        if _seq_impl is None:
            from repro.core.apa_matmul import _apa_matmul_impl
            from repro.core.batched import _batched_matmul_impl
            from repro.parallel.executor import _threaded_matmul_impl
            from repro.parallel.procpool import _process_matmul_impl
            from repro.shard.sharded import _shard_matmul_impl

            _IMPLS.update(batched=_batched_matmul_impl,
                          threaded=_threaded_matmul_impl,
                          process=_process_matmul_impl,
                          shard=_shard_matmul_impl)
            # Bound last: its non-None-ness is the "all loaded" flag read
            # without the lock by the dispatch paths.
            _seq_impl = _apa_matmul_impl
        return _seq_impl


def _impl(name: str) -> Callable[..., np.ndarray]:
    """The private implementation ``name``, binding all of them first."""
    if _seq_impl is None:
        _load_impls()
    return _IMPLS[name]


def _resolve_algorithm(algorithm: Any) -> Any:
    """Catalog name → ``BilinearAlgorithm``; anything else passes through.

    The str check stays inline (this sits on the fast lane; non-string
    algorithms must not pay an import).  A bad name raises the catalog's
    ``KeyError`` listing the known algorithms.
    """
    if isinstance(algorithm, str):
        from repro.algorithms.catalog import get_algorithm

        return get_algorithm(algorithm)
    return algorithm


def _run_sequential(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: Any,
    lam: float | None,
    steps: int,
    gemm: GemmFn | None,
    d: int | None,
    plan_cache: Any,
) -> np.ndarray:
    """Trace layer + sequential dispatch to a (cached or uncached) plan.

    This is the body of ``apa_matmul``: when a tracer is
    active the whole call becomes one span (the plan's execute span
    nests inside); when it is not, this branch is the entire cost.
    """
    impl = _seq_impl or _load_impls()
    tracer = _obs_tracer.ACTIVE
    if tracer is None:
        return impl(A, B, algorithm, lam, steps, gemm, d, plan_cache)
    with tracer.span(
        "apa_matmul", cat="core",
        algorithm=getattr(algorithm, "name", str(algorithm)),
        shape=f"{tuple(A.shape)}@{tuple(B.shape)}", steps=steps,
    ):
        return impl(A, B, algorithm, lam, steps, gemm, d, plan_cache)


class EngineBackend:
    """A :class:`~repro.core.backend.MatmulBackend` over one resolved config.

    Built by :meth:`ExecutionEngine.backend`.  The escalation knobs the
    guard layer writes back on recovery (``lam``, ``steps``, ``gemm``,
    ``algorithm``) are plain attributes; call-time changes are folded
    into the config before dispatch.  Fields left unset in the config
    still inherit from any :func:`~repro.core.config.execution_context`
    active at *call* time (backend fields beat the context, per the
    precedence rule); ``guarded`` is the exception — a backend built
    unguarded stays unguarded, wrap it explicitly instead.
    """

    def __init__(self, engine: "ExecutionEngine",
                 config: ExecutionConfig) -> None:
        # Strip every stack-owned knob: this is the stack's *terminal*
        # backend, so the guard and randomized layers are applied above
        # it and must not be re-applied inside.
        cfg = config.replace(guarded=None, guard_policy=None,
                             randomized=None, rand_seed=None)
        alg = cfg.algorithm
        if isinstance(alg, (tuple, list)):
            alg = tuple(_resolve_algorithm(a) for a in alg)
        else:
            alg = _resolve_algorithm(alg)
        cfg = cfg.replace(algorithm=alg)
        if cfg.fault is not None:
            # Materialize the injector once: persistent across calls
            # (its call counter and ``active`` switch live on
            # ``self.gemm``), and visible to the guard's recompute via
            # the gemm attribute.
            from repro.robustness.inject import GemmFaultInjector

            cfg = cfg.replace(
                fault=None,
                gemm=GemmFaultInjector(gemm=cfg.gemm, spec=cfg.fault))
        self._engine = engine
        self._cfg = cfg
        #: The resolved algorithm — a tuple for non-stationary configs
        #: (the guard maps tuples to its classical-only escalation and
        #: aggregates their combined error bound).
        self.algorithm = alg
        self.lam = cfg.lam
        self.steps = 1 if cfg.steps is None else cfg.steps
        self.gemm = cfg.gemm
        self.plan_cache = cfg.plan_cache
        if isinstance(alg, tuple):
            self.name = "apa:" + "+".join(a.name for a in alg)
        elif alg is None:
            self.name = "classical"
        else:
            self.name = f"apa:{alg.name}"
        self.calls = 0

    @property
    def config(self) -> ExecutionConfig:
        """The resolved (construction-time) config of this backend."""
        return self._cfg

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        self.calls += 1
        base = self._cfg
        cfg = base
        if active_overrides() is not None:
            cfg = self._engine.resolve(base).replace(
                guarded=None, guard_policy=None,
                randomized=None, rand_seed=None)
        changes: dict[str, Any] = {}
        if self.lam is not None and self.lam != base.lam:
            changes["lam"] = self.lam
        if self.steps != (1 if base.steps is None else base.steps):
            changes["steps"] = self.steps
        if self.gemm is not base.gemm:
            changes["gemm"] = self.gemm
        if (not isinstance(base.algorithm, tuple)
                and self.algorithm is not base.algorithm):
            changes["algorithm"] = self.algorithm
        if changes:
            cfg = cfg.replace(**changes)
        return self._engine._execute(A, B, cfg)


def _guard_key(cfg: ExecutionConfig) -> tuple[Any, ...]:
    """Hashable identity key for one config's backend-stack instance.

    ``BilinearAlgorithm`` is a dataclass over coefficient arrays, so
    dataclass equality on configs would compare arrays (ambiguous
    truth value); non-scalar fields are keyed by ``id`` instead — the
    cached guard keeps them alive, so ids stay stable.
    """
    parts: list[Any] = []
    for name in _CFG_FIELDS:
        v = getattr(cfg, name)
        if v is None or isinstance(v, (bool, int, float, str)):
            parts.append(v)
        elif isinstance(v, (tuple, list)):
            parts.append(tuple(
                x if isinstance(x, str) else id(x) for x in v))
        else:
            parts.append(id(v))
    return tuple(parts)


#: Backend stacks cached per config (circuit-breaker, escalation, and
#: randomized-draw state must persist across calls with the same
#: config).  Bounded so per-call closures in a config (e.g. lambda
#: gemms) cannot grow the cache without limit; eviction drops that
#: config's breaker history and draw counter.
_STACK_CACHE_MAX = 32


#: Resolved configs memoized per engine; bounded for the same reason.
_RESOLVE_MEMO_MAX = 256

_SCALARS = (bool, int, float, str)
_MUTABLE = object()


def _value_key(v: Any) -> Any:
    """A scalar by type and value, a tuple by its items, anything else
    by ``id``; ``_MUTABLE`` for a list, dict or set, whose contents can
    change under a stable id."""
    if v is None or isinstance(v, _SCALARS):
        return (type(v), v)
    if isinstance(v, tuple):
        items = tuple(_value_key(x) for x in v)
        return _MUTABLE if any(x is _MUTABLE for x in items) else items
    if isinstance(v, (list, dict, set)):
        return _MUTABLE
    return id(v)


def _memo_key(ctx: Any, config: ExecutionConfig | None,
              overrides: dict[str, Any]) -> tuple[Any, ...] | None:
    """The :meth:`ExecutionEngine.resolve` memo key, or ``None`` to bypass.

    Keyed by the contents of the context, of ``config`` and of the
    overrides, so a context entered afresh or a config rebuilt per
    request (a serving class's) hits.  Inputs holding a mutable
    container bypass the memo.
    """
    parts: list[Any] = []
    for layer in (ctx, config.overrides() if config is not None else None,
                  overrides):
        if layer:
            for name, v in layer.items():
                vk = _value_key(v)
                if vk is _MUTABLE:
                    return None
                parts.append((name, vk))
        parts.append(None)
    return tuple(parts)


class ExecutionEngine:
    """Resolve configs into the layered stack and run them.

    One process-wide instance (:func:`default_engine`) serves
    ``apa_matmul`` and most callers; construct private engines to pin a
    base config, or to get guard/breaker state of your own::

        engine = ExecutionEngine(ExecutionConfig(threads=4, guarded=True))

    Precedence when resolving a call (highest wins): explicit kwarg >
    backend/engine field > active :func:`execution_context` > defaults.
    """

    def __init__(self, config: ExecutionConfig | None = None) -> None:
        self.config = config if config is not None else ExecutionConfig()
        self._overrides = self.config.overrides()
        self._configured = bool(self._overrides)
        self._stack_lock = threading.Lock()
        self._stacks: dict[tuple[Any, ...], Any] = {}
        self._resolved_lock = threading.Lock()
        self._resolved: dict[tuple[Any, ...], tuple[Any, ...]] = {}

    # -- config resolution ---------------------------------------------

    def resolve(self, config: ExecutionConfig | None = None, /,
                **overrides: Any) -> ExecutionConfig:
        """Merge all layers into one validated config (highest wins last).

        Only the merged result is validated: a combination that a
        higher layer overrides (say a context level list under an
        explicit single algorithm) never has to stand on its own.
        Results are memoized per (active context, ``config``, overrides)
        contents; see :func:`_memo_key`.
        """
        ctx = active_overrides()
        key = _memo_key(ctx, config, overrides)
        if key is not None:
            hit = self._resolved.get(key)
            if hit is not None:
                return hit[0]
        merged: dict[str, Any] = {}
        if ctx is not None:
            merged.update(ctx)
        if self._configured:
            merged.update(self._overrides)
        if config is not None:
            merged.update(config.overrides())
        if overrides:
            merged.update(
                {k: v for k, v in overrides.items() if v is not None})
        cfg = ExecutionConfig().merged(merged)
        if key is not None:
            with self._resolved_lock:
                if len(self._resolved) >= _RESOLVE_MEMO_MAX:
                    self._resolved.pop(next(iter(self._resolved)))
                # The inputs ride along so the ids in the key stay theirs.
                self._resolved[key] = (cfg, ctx, config, overrides)
        return cfg

    # -- public API ----------------------------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray, algorithm: Any = None,
               *, config: ExecutionConfig | None = None, report: Any = None,
               **overrides: Any) -> np.ndarray:
        """Resolve and run one product through the full layer stack.

        ``algorithm`` / keyword overrides are the explicit layer;
        ``config`` sits between them and the engine's own config.
        ``report`` captures an
        :class:`~repro.parallel.executor.ExecutionReport` on the
        threaded path (and forces that runner).
        """
        if algorithm is not None:
            overrides.setdefault("algorithm", algorithm)
        cfg = self.resolve(config, **overrides)
        return self._run(A, B, cfg, report)

    def backend(self, config: ExecutionConfig | None = None, /,
                **overrides: Any) -> Any:
        """A reusable :class:`MatmulBackend` for the resolved config.

        Guarded or randomized configs return the engine's cached
        stack — escalation, breaker, and randomized-draw state persist
        across calls.  Guarded stacks hand back the
        :class:`~repro.backends.guard.GuardedBackend` itself (the guard
        is outermost, so its ``matmul`` *is* the composed stack) to keep
        the familiar ``violations``/``fallback_calls`` surface; a
        randomized-only config gets the
        :class:`~repro.backends.stack.BackendStack`, and any other
        config a fresh :class:`EngineBackend`.
        """
        cfg = self.resolve(config, **overrides)
        if cfg.guarded or cfg.randomized:
            stack = self._stack_for(cfg)
            guard = stack.guard
            return guard if guard is not None else stack
        return EngineBackend(self, cfg)

    def execute(self, A: np.ndarray, B: np.ndarray,
                config: ExecutionConfig) -> np.ndarray:
        """Run one *already-resolved* config, no re-layering.

        The serving layer's submission hook (:mod:`repro.serve`): a
        request's QoS class is resolved into an :class:`ExecutionConfig`
        once at admission time, and every subsequent retry, coalesced
        batch, or degradation rung of that request must execute exactly
        what was admitted — even if an :func:`~repro.core.config.
        execution_context` is entered elsewhere in the process while the
        request is in flight.  ``config`` therefore enters the stack
        below :meth:`resolve` (guard → inject → dispatch), unlike
        :meth:`matmul` which re-merges all layers per call.
        """
        return self._run(A, B, config)

    def plan_stats(self) -> dict[str, Any]:
        """Plan-cache + pool statistics for this engine's execution state.

        Mirrors ``Trainer.plan_stats()``: the resolved cache of the
        engine config (the process default when unset) plus any caches
        held by cached guarded backends, deduplicated by identity.
        """
        from repro.core.plan import resolve_plan_cache
        from repro.parallel.pool import pool_stats
        from repro.parallel.procpool import process_pool_stats
        from repro.parallel.shm import shm_stats

        caches: list[dict[str, Any]] = []
        seen: set[int] = set()

        def add(candidate: Any) -> None:
            cache = resolve_plan_cache(candidate)
            if cache is not None and id(cache) not in seen:
                seen.add(id(cache))
                caches.append(cache.stats())

        add(self.config.plan_cache)
        with self._stack_lock:
            stacks = list(self._stacks.values())
        for stack in stacks:
            target = getattr(stack, "target", stack)
            add(getattr(target, "plan_cache", None))
        return {"plan_caches": caches, "pool": pool_stats(),
                "process_pool": process_pool_stats(), "shm": shm_stats()}

    # -- the apa_matmul fast lane --------------------------------------
    #
    # apa_matmul has a fixed capability set, so when no
    # execution_context is active and this engine carries no config,
    # dispatch reduces to one global read before the sequential plan.

    def sequential(self, A: np.ndarray, B: np.ndarray, algorithm: Any,
                   lam: float | None = None, steps: int | None = None,
                   gemm: GemmFn | None = None, d: int | None = None,
                   plan_cache: Any = None) -> np.ndarray:
        """``apa_matmul`` entry: sequential plan dispatch."""
        if active_overrides() is None and not self._configured:
            return _run_sequential(
                A, B, _resolve_algorithm(algorithm), lam,
                1 if steps is None else steps, gemm, d, plan_cache)
        return self.matmul(A, B, algorithm, lam=lam, steps=steps,
                           gemm=gemm, d=d, plan_cache=plan_cache)

    # -- the layer stack -----------------------------------------------

    def _run(self, A: np.ndarray, B: np.ndarray, cfg: ExecutionConfig,
             report: Any = None) -> np.ndarray:
        """Stack layer: route guarded/randomized configs through their
        cached stack."""
        if cfg.guarded or cfg.randomized:
            if report is not None:
                if cfg.guarded:
                    raise ValueError(
                        "report capture is not supported through the "
                        "guarded path; guard events land in the backend's "
                        "EventLog")
                raise ValueError(
                    "report capture is not supported through the "
                    "randomized path; drop randomized or capture spans "
                    "via the tracer")
            if getattr(A, "ndim", 2) != 2 or getattr(B, "ndim", 2) != 2:
                if cfg.guarded:
                    raise ValueError(
                        "guarded execution supports 2-D products only")
                raise ValueError(
                    "randomized execution supports 2-D products only")
            stack = self._stack_for(cfg)
            return stack.matmul(A, B)  # type: ignore[no-any-return]
        return self._execute(A, B, cfg, report)

    def _execute(self, A: np.ndarray, B: np.ndarray, cfg: ExecutionConfig,
                 report: Any = None) -> np.ndarray:
        """Inject layer: resolve the algorithm, wrap gemm in the fault spec."""
        if (cfg.tuned and cfg.algorithm is None and cfg.shard is None
                and getattr(A, "ndim", 2) == 2
                and getattr(B, "ndim", 2) == 2):
            # Learned dispatch: fill still-unset fields from the
            # installed table.  Sits here — after every explicit layer
            # merged, before dispatch — so kwargs/engine/context beat
            # the table and the table beats the built-in defaults;
            # uncovered cells leave cfg untouched (classical fallback).
            from repro.tune.dispatch import consult

            cfg = consult(A, B, cfg)
        alg = cfg.algorithm
        if isinstance(alg, (tuple, list)):
            alg = tuple(_resolve_algorithm(a) for a in alg)
        else:
            alg = _resolve_algorithm(alg)
        gemm = cfg.gemm
        if cfg.fault is not None:
            # Faults act on the gemm seam: a fresh injector per call.
            from repro.robustness.inject import GemmFaultInjector

            gemm = GemmFaultInjector(gemm=gemm, spec=cfg.fault)
        return self._dispatch(A, B, cfg, alg, gemm, report)

    def _dispatch(self, A: np.ndarray, B: np.ndarray, cfg: ExecutionConfig,
                  alg: Any, gemm: GemmFn | None,
                  report: Any = None) -> np.ndarray:
        """The single dispatch point — every execution path branches here."""
        if getattr(A, "ndim", 2) == 3 or getattr(B, "ndim", 2) == 3:
            return self._dispatch_batched(A, B, cfg, alg)
        if cfg.shard is not None:
            return _impl("shard")(A, B, alg, cfg, self, gemm, report)
        if (cfg.min_dim and A.ndim == 2 and B.ndim == 2
                and A.shape[1] == B.shape[0]
                and min(A.shape[0], A.shape[1], B.shape[1]) < cfg.min_dim):
            return A @ B
        if isinstance(alg, tuple):
            return self._run_nonstationary(A, B, alg, cfg, gemm)
        if alg is None:
            return self._run_classical(A, B, cfg, gemm)
        threads = 1 if cfg.threads is None else cfg.threads
        steps = 1 if cfg.steps is None else cfg.steps
        if (cfg.executor or "thread") == "process":
            # Config validation already rejects gemm/fault *fields* on
            # process configs; this backstop catches a gemm grafted on
            # later (a guard escalation writing backend.gemm).
            if gemm is not None:
                raise ValueError(
                    "executor='process' runs gemms in worker processes; "
                    "the gemm/fault seams are thread-executor only")
            return self._scheduled("process", A, B, alg, cfg, cfg.lam,
                                   steps, report)
        if (threads > 1 or bool(cfg.retries) or cfg.timeout is not None
                or bool(cfg.check_finite) or cfg.schedule is not None
                or report is not None):
            return self._scheduled("threaded", A, B, alg, cfg, cfg.lam,
                                   steps, report, gemm=gemm)
        return _run_sequential(A, B, alg, cfg.lam, steps, gemm, cfg.d,
                               cfg.plan_cache)

    def _scheduled(self, runner: str, A: np.ndarray, B: np.ndarray,
                   alg: Any, cfg: ExecutionConfig, lam: float | None,
                   steps: int, report: Any, **gemm: Any) -> np.ndarray:
        """Run the outer level on the thread or process schedule runner."""
        return _impl(runner)(  # type: ignore[no-any-return]
            A, B, alg, cfg.threads or 1, lam=lam, d=cfg.d,
            strategy=cfg.strategy or "hybrid", schedule=cfg.schedule,
            steps=steps, retries=cfg.retries or 0, timeout=cfg.timeout,
            check_finite=bool(cfg.check_finite), report=report,
            plan_cache=cfg.plan_cache, **gemm)

    # -- dispatch targets ----------------------------------------------

    def _dispatch_batched(self, A: np.ndarray, B: np.ndarray,
                          cfg: ExecutionConfig, alg: Any) -> np.ndarray:
        if cfg.guarded:
            raise ValueError("guarded execution supports 2-D products only")
        if cfg.fault is not None or cfg.gemm is not None:
            raise ValueError(
                "batched execution has no gemm seam; drop gemm/fault or "
                "loop over 2-D products")
        if isinstance(alg, (tuple, list)):
            raise ValueError(
                "batched execution takes a single algorithm, not a "
                "non-stationary level list")
        if cfg.shard is not None:
            raise ValueError(
                "sharded execution is 2-D only; loop over batch items "
                "to shard each product")
        wants_scheduled = (
            (cfg.threads or 1) > 1 or (cfg.steps or 1) > 1
            or (cfg.executor or "thread") == "process")
        if wants_scheduled and (cfg.batch_mode or "stacked") == "loop":
            # Loop mode has no cross-item arithmetic to fuse, so each
            # item can take the full scheduled path (threads, steps,
            # executor='process') independently; stacked mode stays
            # sequential-only below.
            if A.ndim != 3 or B.ndim != 3:
                raise ValueError(
                    "batched operands must be 3-D (batch, rows, cols)")
            if A.shape[0] != B.shape[0]:
                raise ValueError(
                    f"batch sizes differ: {A.shape[0]} vs {B.shape[0]}")
            if A.shape[0] == 0:
                dtype = np.result_type(A.dtype, B.dtype)
                return np.zeros((0, A.shape[1], B.shape[2]), dtype=dtype)
            item_cfg = cfg.replace(batch_mode=None)
            return np.stack([
                self._dispatch(A[i], B[i], item_cfg, alg, None, None)
                for i in range(A.shape[0])])
        if wants_scheduled:
            raise ValueError(
                "batched execution supports only the sequential "
                "single-step path (threads/steps/executor are 2-D "
                "knobs; batch_mode='loop' additionally accepts the "
                "scheduled knobs per item)")
        return _impl("batched")(A, B, alg, cfg.lam,
                                cfg.batch_mode or "stacked", cfg.d,
                                cfg.plan_cache)

    def _run_classical(self, A: np.ndarray, B: np.ndarray,
                       cfg: ExecutionConfig,
                       gemm: GemmFn | None) -> np.ndarray:
        if (cfg.threads or 1) > 1 or (cfg.steps or 1) > 1:
            raise ValueError(
                "algorithm=None selects classical gemm, which has no "
                "threads/steps knobs")
        if gemm is None:
            return np.matmul(A, B)
        return gemm(A, B)

    def _run_nonstationary(self, A: np.ndarray, B: np.ndarray,
                           algs: tuple[Any, ...], cfg: ExecutionConfig,
                           gemm: GemmFn | None) -> np.ndarray:
        """Paper §6 non-stationary recursion, one algorithm per level.

        Every level routes back through the engine's sequential
        dispatch, so plan caching applies per level with one cache, and
        the outer level runs on the threaded executor when
        ``threads > 1``.  Config validation has already rejected an
        empty level list and ``steps`` with a level list.
        """
        for alg in algs:
            if alg.is_surrogate:
                raise ValueError(
                    f"{alg.name!r} is a surrogate; non-stationary "
                    "execution requires full coefficients")
        if (cfg.executor or "thread") == "process":
            raise ValueError(
                "non-stationary execution threads a per-level gemm "
                "closure through the schedule; executor='process' "
                "cannot ship closures to workers — use the thread "
                "executor")
        lam = cfg.lam
        if lam is None:
            from repro.core.lam import default_lambda

            lam = default_lambda(algs, np.result_type(A.dtype, B.dtype),
                                 cfg.d)
        base_gemm: GemmFn = np.matmul if gemm is None else gemm
        threads = 1 if cfg.threads is None else cfg.threads
        n_levels = len(algs)

        def level(Ab: np.ndarray, Bb: np.ndarray, depth: int) -> np.ndarray:
            if depth == n_levels:
                return base_gemm(Ab, Bb)

            def inner(X: np.ndarray, Y: np.ndarray,
                      _d: int = depth + 1) -> np.ndarray:
                return level(X, Y, _d)

            if depth == 0 and threads > 1:
                return self._scheduled("threaded", Ab, Bb, algs[0], cfg,
                                       lam, 1, None, gemm=inner)
            return _run_sequential(Ab, Bb, algs[depth], lam, 1, inner,
                                   cfg.d, cfg.plan_cache)

        return level(A, B, 0)

    # -- backend-stack instance cache ----------------------------------

    def _stack_for(self, cfg: ExecutionConfig) -> Any:
        """The cached :class:`BackendStack` for one guarded or
        randomized config."""
        key = _guard_key(cfg)
        with self._stack_lock:
            stack = self._stacks.get(key)
            if stack is None:
                from repro.backends.stack import BackendStack

                stack = BackendStack.from_config(cfg, engine=self)
                if len(self._stacks) >= _STACK_CACHE_MAX:
                    self._stacks.pop(next(iter(self._stacks)))
                self._stacks[key] = stack
            return stack


_DEFAULT_ENGINE = ExecutionEngine()


def default_engine() -> ExecutionEngine:
    """The process-wide engine ``apa_matmul`` and most callers use."""
    return _DEFAULT_ENGINE
