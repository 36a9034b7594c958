"""The bilinear evaluator: cached execution plans and pooled arenas.

This module is the only code that does ``<U, V, W>`` arithmetic.  One
recursive step of a rule evaluated at a concrete ``lambda`` computes
(paper §3.2)::

    S_i = sum_p U[p, i] * A_p        (combine)
    T_i = sum_s V[s, i] * B_s        (combine)
    M_i = S_i @ T_i                  (gemm, or the next level)
    C_q = sum_i W[q, i] * M_i        (accumulate)

with the "write-once" strategy the paper found most memory-efficient:
each ``S_i``/``T_i`` is materialized exactly once (the first term
initializes the buffer, later terms accumulate in place), output blocks
accumulate in place, and a single-block combination with coefficient 1
is passed on as a *view*.  :func:`combine` and :func:`accumulate` work
on 2-D blocks and on 3-D batched blocks (a leading batch axis passes
through every operation).

An :class:`ExecutionPlan` precomputes everything that depends only on
``(algorithm, shape, dtype, lambda, steps)``:

- the block partition and padded dims (ragged operands are zero-padded
  to the next multiple of the rule dims per level, the result cropped);
- the numeric ``(Un, Vn, Wn)`` (via the spec's memoized ``evaluate``)
  and per-multiplication nonzero term lists;
- a pooled workspace *arena* — padded operand copies, per-level
  ``S_i``/``T_i`` combination buffers, the gemm output slot, scalar
  scratch, and the padded ``C`` — matching the footprint priced by
  :func:`repro.core.memory.workspace_bytes`.

Workspaces are checked out per call from a small free list, so one plan
serves concurrent callers (the threaded executor's workers recurse into
sequential plans) without aliasing.  Plans are acquired through a
bounded, thread-safe LRU :class:`PlanCache`; :func:`acquire_plan` builds
a one-off uncached plan when caching is off (``plan_cache=False``).  The
sequential, threaded, process and batched-stacked runners only schedule
a plan's combinations and products; none of them repeats the arithmetic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.algorithms.spec import AlgorithmLike
from repro.core.memory import WorkspaceEstimate, workspace_bytes
from repro.linalg.blocking import BlockPartition
from repro.obs import tracer as _obs_tracer
from repro.robustness.events import EventLog
from repro.types import GemmFn

__all__ = [
    "PlanKey",
    "ExecutionPlan",
    "PlanCache",
    "default_plan_cache",
    "configure_plan_cache",
    "resolve_plan_cache",
    "term_lists",
    "block_views",
    "combine",
    "accumulate",
    "plan_dtype",
    "plannable",
    "acquire_plan",
]

#: Execution modes a plan can be built for.
PLAN_MODES = ("sequential", "threaded", "batched")


@dataclass(frozen=True)
class PlanKey:
    """Everything that determines a plan's precomputed state.

    ``alg_id`` is the ``id()`` of the algorithm object: catalog entries
    are singletons (``get_algorithm`` memoizes), and including the
    identity means two distinct objects that happen to share a name can
    never alias each other's coefficient tables.
    """

    algorithm: str
    alg_id: int
    rows_a: int
    cols_a: int
    cols_b: int
    dtype: str
    lam: float
    steps: int
    mode: str
    strategy: str
    threads: int


def term_lists(
    Un: np.ndarray, Vn: np.ndarray, Wn: np.ndarray
) -> tuple[tuple, tuple, tuple]:
    """Nonzero ``(index, coeff)`` lists per multiplication.

    ``s_terms[i]``/``t_terms[i]`` hold the nonzero ``(block, coeff)``
    pairs of column ``i`` of ``Un``/``Vn``; ``w_terms[i]`` the nonzero
    ``(output_block, coeff)`` pairs of column ``i`` of ``Wn``.
    Coefficients stay numpy scalars of the evaluated dtype, so the
    combination arithmetic is bitwise identical to indexing the columns.
    """
    r = Un.shape[1]
    s_terms = tuple(
        tuple((p, Un[p, i]) for p in range(Un.shape[0]) if Un[p, i] != 0)
        for i in range(r)
    )
    t_terms = tuple(
        tuple((p, Vn[p, i]) for p in range(Vn.shape[0]) if Vn[p, i] != 0)
        for i in range(r)
    )
    w_terms = tuple(
        tuple((q, Wn[q, i]) for q in range(Wn.shape[0]) if Wn[q, i] != 0)
        for i in range(r)
    )
    return s_terms, t_terms, w_terms


def block_views(X: np.ndarray, rows: int, cols: int) -> list[np.ndarray]:
    """Row-major ``rows x cols`` grid of views over ``X``'s last two axes.

    A leading batch axis passes through, so the same term lists index
    2-D blocks and 3-D batched blocks alike.
    """
    br, bc = X.shape[-2] // rows, X.shape[-1] // cols
    return [X[..., i * br:(i + 1) * br, j * bc:(j + 1) * bc]
            for i in range(rows) for j in range(cols)]


def _scratch(out: np.ndarray, scratch) -> np.ndarray:
    if scratch is None:
        return np.empty_like(out)
    return scratch(out.shape, out.dtype)


def combine(terms, blocks: list[np.ndarray], out: np.ndarray | None = None,
            scratch=None, view: bool = True) -> np.ndarray:
    """Write-once linear combination ``sum c * blocks[idx]`` of a term list.

    ``terms`` is one entry of a plan's ``s_terms``/``t_terms``.  With
    ``out=None`` the result is freshly allocated; otherwise it is
    written into ``out``.  A single coefficient-1 term returns the block
    itself (a view — treat it as read-only) unless ``view=False``, which
    inner recursion levels pass because the next level's precomputed
    block views alias ``out``.  ``scratch(shape, dtype)`` supplies the
    buffer for non-unit coefficients past the first (allocated once per
    call when ``None``).
    """
    if not terms:
        if out is None:
            return np.zeros_like(blocks[0])
        out[...] = 0
        return out
    idx0, c0 = terms[0]
    if view and len(terms) == 1 and c0 == 1:
        return blocks[idx0]
    if out is None:
        out = np.empty_like(blocks[idx0])
    if c0 == 1:
        np.copyto(out, blocks[idx0])
    else:
        np.multiply(blocks[idx0], c0, out=out)
    buf = None
    for idx, c in terms[1:]:
        if c == 1:
            out += blocks[idx]
        elif c == -1:
            out -= blocks[idx]
        else:
            if buf is None:
                buf = _scratch(out, scratch)
            np.multiply(blocks[idx], c, out=buf)
            out += buf
    return out


def accumulate(w_terms, products, c_blocks: list[np.ndarray],
               scratch=None) -> None:
    """Fold the products into output blocks: ``C_q = sum_i W[q, i] * M_i``.

    ``products`` yields ``M_0 .. M_{r-1}`` in order; it may be a
    generator, so a sequential runner can compute each product into one
    reused buffer just before it is folded.  Each block is written once
    by its first product and accumulated in place after that; blocks no
    product reaches (padded partitions of degenerate rules) are
    zero-filled, since the output buffer may hold stale arena data.
    """
    initialized = [False] * len(c_blocks)
    buf = None
    for terms, M in zip(w_terms, products):
        for q, w in terms:
            target = c_blocks[q]
            if not initialized[q]:
                if w == 1:
                    np.copyto(target, M)
                else:
                    np.multiply(M, w, out=target)
                initialized[q] = True
            elif w == 1:
                target += M
            elif w == -1:
                target -= M
            else:
                if buf is None:
                    buf = _scratch(target, scratch)
                np.multiply(M, w, out=buf)
                target += buf
    for q, done in enumerate(initialized):
        if not done:
            c_blocks[q][...] = 0


def plan_dtype(a: np.dtype, b: np.dtype) -> np.dtype:
    """The one dtype a plan runs at for operands of dtypes ``a``, ``b``.

    Mixed inexact dtypes promote to ``np.result_type``; integer and
    boolean operands compute in float64 (coefficients such as
    ``lambda**-1`` would otherwise be truncated to the operand dtype).
    """
    dtype = np.result_type(a, b)
    if dtype.kind not in "fc":
        return np.dtype(np.float64)
    return dtype


def plannable(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cast the operands to :func:`plan_dtype`.

    Matching inexact operands pass through uncopied.
    """
    dtype = A.dtype
    if dtype == B.dtype and dtype.kind == "f":
        return A, B
    dtype = plan_dtype(A.dtype, B.dtype)
    return A.astype(dtype, copy=False), B.astype(dtype, copy=False)


class _Workspace:
    """One call's worth of arena buffers for a plan.

    Checked out of the plan's free list for the duration of a call, so
    concurrent executions of the same plan never share a buffer.
    """

    __slots__ = ("Ap", "Bp", "C", "S", "T", "P",
                 "a_blocks", "b_blocks", "c_blocks", "_scratch")

    def __init__(self, plan: ExecutionPlan) -> None:
        part = plan.partition
        dtype = plan.dtype
        m, n, k = part.m, part.n, part.k
        Mp, Np, Kp = (part.padded_rows_a, part.padded_cols_a,
                      part.padded_cols_b)
        # Padded staging copies exist only when shapes are ragged; the
        # zero margins are written once here and never touched again.
        self.Ap = np.zeros((Mp, Np), dtype=dtype) if plan.pads_a else None
        self.Bp = np.zeros((Np, Kp), dtype=dtype) if plan.pads_b else None
        self._scratch: dict[tuple[int, int], np.ndarray] = {}

        if plan.mode == "threaded":
            # The threaded executor keeps all r products alive and only
            # needs the staged operands plus the padded output here.
            self.C = [np.empty((Mp, Kp), dtype=dtype)]
            self.S = self.T = []
            self.P = None
            self.a_blocks = [
                block_views(self.Ap, m, n) if self.Ap is not None else None]
            self.b_blocks = [
                block_views(self.Bp, n, k) if self.Bp is not None else None]
            self.c_blocks = [block_views(self.C[0], m, k)]
            return

        steps = plan.key.steps
        self.C = []
        self.S = []
        self.T = []
        bm, bn, bk = Mp, Np, Kp
        for _ in range(steps):
            self.C.append(np.empty((bm, bk), dtype=dtype))
            bm, bn, bk = bm // m, bn // n, bk // k
            self.S.append(np.empty((bm, bn), dtype=dtype))
            self.T.append(np.empty((bn, bk), dtype=dtype))
        self.P = np.empty((bm, bk), dtype=dtype)
        # Block views are precomputable wherever the underlying buffer
        # is arena-owned: level 0 over the staged operands (when they
        # exist), level l >= 1 over the previous level's S/T buffers.
        self.a_blocks = [None] * steps
        self.b_blocks = [None] * steps
        if self.Ap is not None:
            self.a_blocks[0] = block_views(self.Ap, m, n)
        if self.Bp is not None:
            self.b_blocks[0] = block_views(self.Bp, n, k)
        for lvl in range(1, steps):
            self.a_blocks[lvl] = block_views(self.S[lvl - 1], m, n)
            self.b_blocks[lvl] = block_views(self.T[lvl - 1], n, k)
        self.c_blocks = [block_views(C, m, k) for C in self.C]

    def scratch(self, shape: tuple[int, int], dtype) -> np.ndarray:
        """A reusable scalar-scratch buffer of the given shape."""
        buf = self._scratch.get(shape)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[shape] = buf
        return buf


class ExecutionPlan:
    """Precomputed state + pooled arenas for one matmul configuration.

    Build through :meth:`PlanCache.plan_for` (or the module default via
    :func:`default_plan_cache`), not directly — the cache is what makes
    the precomputation pay off.
    """

    def __init__(self, algorithm: AlgorithmLike, key: PlanKey) -> None:
        if key.mode not in PLAN_MODES:
            raise ValueError(f"unknown plan mode {key.mode!r}")
        self.key = key
        self.algorithm = algorithm
        self.dtype = np.dtype(key.dtype)
        self.partition = BlockPartition(
            algorithm.m, algorithm.n, algorithm.k,
            rows_a=key.rows_a, cols_a=key.cols_a, cols_b=key.cols_b,
            steps=key.steps if key.mode != "batched" else 1,
        )
        self.pads_a = (self.partition.padded_rows_a != key.rows_a
                       or self.partition.padded_cols_a != key.cols_a)
        self.pads_b = (self.partition.padded_cols_a != key.cols_a
                       or self.partition.padded_cols_b != key.cols_b)
        self.rank = algorithm.rank
        self.s_terms, self.t_terms, self.w_terms = term_lists(
            *algorithm.evaluate(key.lam, dtype=self.dtype))
        self.schedule = None
        if key.mode == "threaded":
            from repro.parallel.strategy import build_schedule

            self.schedule = build_schedule(self.rank, key.threads,
                                           key.strategy)
        self._free: list[_Workspace] = []
        self._lock = threading.Lock()
        self.workspaces_built = 0
        self.executions = 0

    @property
    def mode(self) -> str:
        return self.key.mode

    @property
    def estimate(self) -> WorkspaceEstimate:
        """The arena footprint priced by the §3.3 workspace model."""
        return workspace_bytes(
            self.algorithm, self.key.rows_a, self.key.cols_a,
            self.key.cols_b, steps=self.key.steps,
            dtype_bytes=self.dtype.itemsize,
            parallel=self.key.mode == "threaded",
        )

    # ------------------------------------------------------------------
    # workspace pool
    # ------------------------------------------------------------------

    def checkout(self) -> _Workspace:
        """Acquire a workspace (reused when free, built when not)."""
        if self.key.mode == "batched":
            raise ValueError("batched plans carry no workspace arena "
                             "(the batch dimension is not part of the key)")
        with self._lock:
            self.executions += 1
            if self._free:
                return self._free.pop()
            self.workspaces_built += 1
        return _Workspace(self)

    def release(self, ws: _Workspace) -> None:
        with self._lock:
            self._free.append(ws)

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------

    def stage(self, ws: _Workspace, A: np.ndarray,
              B: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Level-0 block views of the operands.

        Ragged operands are copied into the padded arena first; aligned
        ones are split in place, with no copy.
        """
        m, n, k = self.partition.m, self.partition.n, self.partition.k
        if ws.Ap is None:
            a_blocks = block_views(A, m, n)
        else:
            ws.Ap[: self.key.rows_a, : self.key.cols_a] = A
            a_blocks = ws.a_blocks[0]
        if ws.Bp is None:
            b_blocks = block_views(B, n, k)
        else:
            ws.Bp[: self.key.cols_a, : self.key.cols_b] = B
            b_blocks = ws.b_blocks[0]
        return a_blocks, b_blocks

    # ------------------------------------------------------------------
    # sequential execution
    # ------------------------------------------------------------------

    def execute(self, A: np.ndarray, B: np.ndarray,
                gemm: GemmFn | None = None) -> np.ndarray:
        """Run the plan on concrete operands (sequential mode).

        ``gemm`` overrides the base-case multiply exactly as in
        :func:`~repro.core.apa_matmul.apa_matmul` (the fault-injection
        seam); the default routes through ``np.matmul`` writing straight
        into the arena's product slot.

        With no tracer installed this method is a single extra branch
        over :meth:`_execute` (the un-instrumented body —
        ``bench/obs_overhead.py`` times the two against each other).
        """
        tracer = _obs_tracer.ACTIVE
        if tracer is None:
            return self._execute(A, B, gemm)
        with tracer.span(
            "plan.execute", cat="core", algorithm=self.key.algorithm,
            shape=f"({self.key.rows_a},{self.key.cols_a})"
                  f"@({self.key.cols_a},{self.key.cols_b})",
            steps=self.key.steps,
        ):
            return self._execute(A, B, gemm)

    def _execute(self, A: np.ndarray, B: np.ndarray,
                 gemm: GemmFn | None = None) -> np.ndarray:
        if self.key.mode != "sequential":
            raise ValueError(f"execute() is for sequential plans, "
                             f"this one is {self.key.mode!r}")
        if A.shape != (self.key.rows_a, self.key.cols_a) \
                or B.shape != (self.key.cols_a, self.key.cols_b):
            raise ValueError(
                f"operands {A.shape} @ {B.shape} do not match plan key "
                f"({self.key.rows_a},{self.key.cols_a})"
                f"@({self.key.cols_a},{self.key.cols_b})")
        ws = self.checkout()
        try:
            a_blocks, b_blocks = self.stage(ws, A, B)
            C = self._run_level(ws, 0, a_blocks, b_blocks, gemm)
            # Always hand back a fresh array: the arena C is reused by
            # the next call through this plan.
            return np.array(C[: self.key.rows_a, : self.key.cols_b])
        finally:
            self.release(ws)

    def _run_level(self, ws: _Workspace, level: int, a_blocks, b_blocks,
                   gemm: GemmFn | None) -> np.ndarray:
        accumulate(self.w_terms, self._products(ws, level, a_blocks,
                                                b_blocks, gemm),
                   ws.c_blocks[level], ws.scratch)
        return ws.C[level]

    def _products(self, ws: _Workspace, level: int, a_blocks, b_blocks,
                  gemm: GemmFn | None):
        """Yield ``M_0 .. M_{r-1}`` of one level, each into a reused slot.

        The base level keeps the single-block zero-copy view; inner
        levels materialize into the arena because the next level's
        precomputed block views alias ``S``/``T``.
        """
        base = level == self.key.steps - 1
        S_buf, T_buf = ws.S[level], ws.T[level]
        for s_terms, t_terms in zip(self.s_terms, self.t_terms):
            S = combine(s_terms, a_blocks, S_buf, ws.scratch, view=base)
            T = combine(t_terms, b_blocks, T_buf, ws.scratch, view=base)
            if not base:
                yield self._run_level(ws, level + 1, ws.a_blocks[level + 1],
                                      ws.b_blocks[level + 1], gemm)
            elif gemm is None:
                yield np.matmul(S, T, out=ws.P)
            else:
                yield gemm(S, T)


def _plan_key(algorithm: AlgorithmLike, rows_a: int, cols_a: int,
              cols_b: int, dtype, lam: float, steps: int = 1,
              mode: str = "sequential", strategy: str = "none",
              threads: int = 1) -> PlanKey:
    return PlanKey(
        algorithm=algorithm.name, alg_id=id(algorithm),
        rows_a=rows_a, cols_a=cols_a, cols_b=cols_b,
        dtype=np.dtype(dtype).str, lam=float(lam), steps=steps,
        mode=mode, strategy=strategy, threads=threads,
    )


class PlanCache:
    """Bounded, thread-safe LRU cache of :class:`ExecutionPlan` objects.

    Hit/miss/evict counters are kept for the bench harness; pass an
    :class:`~repro.robustness.events.EventLog` to additionally emit a
    ``plan-miss``/``plan-evict`` event per cache action (the same sink
    the guard rails use).
    """

    def __init__(self, maxsize: int = 64, log: EventLog | None = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.log = log
        self._lock = threading.Lock()
        self._plans: OrderedDict[PlanKey, ExecutionPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def plan_for(
        self,
        algorithm: AlgorithmLike,
        rows_a: int,
        cols_a: int,
        cols_b: int,
        dtype,
        lam: float,
        steps: int = 1,
        mode: str = "sequential",
        strategy: str = "none",
        threads: int = 1,
    ) -> ExecutionPlan:
        """Get-or-build the plan for a fully resolved configuration."""
        key = _plan_key(algorithm, rows_a, cols_a, cols_b, dtype, lam,
                        steps, mode, strategy, threads)
        tracer = _obs_tracer.ACTIVE
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
        if plan is not None:
            if tracer is not None:
                tracer.instant("plan-hit", cat="plan",
                               algorithm=key.algorithm,
                               shape=f"{key.rows_a}x{key.cols_a}x"
                                     f"{key.cols_b}")
            return plan
        # Build outside the lock: plan construction evaluates
        # coefficients and allocates nothing shared, so a rare duplicate
        # build is cheaper than serializing every miss.
        built = ExecutionPlan(algorithm, key)
        evicted: list[PlanKey] = []
        missed = False
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                missed = True
                self._plans[key] = plan = built
                if self.log is not None:
                    self.log.emit("plan-miss", f"plan:{key.algorithm}",
                                  f"built {key.rows_a}x{key.cols_a}x"
                                  f"{key.cols_b} {key.mode} plan")
                while len(self._plans) > self.maxsize:
                    old_key, _ = self._plans.popitem(last=False)
                    self.evictions += 1
                    evicted.append(old_key)
                    if self.log is not None:
                        self.log.emit("plan-evict",
                                      f"plan:{old_key.algorithm}",
                                      f"evicted {old_key.rows_a}x"
                                      f"{old_key.cols_a}x{old_key.cols_b}")
            else:
                self.hits += 1
                self._plans.move_to_end(key)
        if tracer is not None:
            if not missed:
                tracer.instant("plan-hit", cat="plan",
                               algorithm=key.algorithm,
                               shape=f"{key.rows_a}x{key.cols_a}x"
                                     f"{key.cols_b}", mode=key.mode)
            elif self.log is None:
                # With a log attached, EventLog.emit already forwarded
                # the miss/evict to the tracer — don't double-record.
                tracer.instant("plan-miss", cat="plan",
                               algorithm=key.algorithm,
                               shape=f"{key.rows_a}x{key.cols_a}x"
                                     f"{key.cols_b}", mode=key.mode)
                for old_key in evicted:
                    tracer.instant("plan-evict", cat="plan",
                                   algorithm=old_key.algorithm,
                                   shape=f"{old_key.rows_a}x"
                                         f"{old_key.cols_a}x"
                                         f"{old_key.cols_b}")
        return plan

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._plans),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop every plan (counters are kept — they are lifetime stats)."""
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


# ----------------------------------------------------------------------
# the process-wide default cache
# ----------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_CACHE: PlanCache | None = None


def default_plan_cache() -> PlanCache:
    """The lazily created process-wide cache the hot paths share."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = PlanCache()
        return _DEFAULT_CACHE


def configure_plan_cache(maxsize: int = 64,
                         log: EventLog | None = None) -> PlanCache:
    """Replace the default cache (sizing knob + event instrumentation)."""
    global _DEFAULT_CACHE
    cache = PlanCache(maxsize=maxsize, log=log)
    with _DEFAULT_LOCK:
        _DEFAULT_CACHE = cache
    return cache


def resolve_plan_cache(plan_cache) -> PlanCache | None:
    """Normalize the ``plan_cache`` argument the hot paths accept.

    ``None`` means the process default, ``False`` means no cache (each
    call builds a one-off plan, see :func:`acquire_plan`), and a
    :class:`PlanCache` instance is used as-is.
    """
    if plan_cache is None:
        return default_plan_cache()
    if plan_cache is False:
        return None
    if isinstance(plan_cache, PlanCache):
        return plan_cache
    raise TypeError(
        f"plan_cache must be None, False, or a PlanCache, "
        f"got {type(plan_cache).__name__}")


def acquire_plan(plan_cache, algorithm: AlgorithmLike, *args,
                 **kwargs) -> ExecutionPlan:
    """The plan for a resolved configuration, honoring ``plan_cache``.

    Arguments after ``plan_cache`` are those of :meth:`PlanCache.plan_for`.
    The plan comes from the cache :func:`resolve_plan_cache` names, or is
    built uncached for this call alone when ``plan_cache=False``.
    """
    cache = resolve_plan_cache(plan_cache)
    if cache is not None:
        return cache.plan_for(algorithm, *args, **kwargs)
    return ExecutionPlan(algorithm, _plan_key(algorithm, *args, **kwargs))
