"""The bilinear evaluator: compiled op programs, cached plans, arenas.

This module is the only code that does ``<U, V, W>`` arithmetic.  One
recursive step of a rule evaluated at a concrete ``lambda`` computes
(paper §3.2)::

    S_i = sum_p U[p, i] * A_p        (combine)
    T_i = sum_s V[s, i] * B_s        (combine)
    M_i = S_i @ T_i                  (gemm, or the next level)
    C_q = sum_i W[q, i] * M_i        (accumulate)

with the "write-once" strategy the paper found most memory-efficient:
each ``S_i``/``T_i`` and each output block is written by its first term
and accumulated in place after that.  As in the code generator the
paper builds on (Benson & Ballard), every decision about those sums is
taken once: :class:`Program` compiles an algorithm's term lists at one
``(dtype, lambda)`` into flat lists of ``(ufunc, in, in, out)`` ops over
numbered slots.  The compiler

- fuses a sum's first two unit terms into one ``np.add``/``np.subtract``;
- passes a lone coefficient-1 term on as a view of its block;
- writes a product straight into the first C block it starts with
  ``w = 1`` (``matmul(out=C_q)``), and starts a block with one fused add
  of its first two products while the first is still intact in its slot;
- marks every other term as an in-place ``+=``/``-=`` or a scale into
  scratch plus an add.

Fused or not, each sum adds the same terms in the same order, so every
result is bitwise the plain left-to-right evaluation.  Programs are
memoized beside the algorithm's coefficient evaluations
(:meth:`~repro.algorithms.spec.BilinearAlgorithm.compiled`), so every
plan of one ``(algorithm, dtype, lambda)`` shares one.

An :class:`ExecutionPlan` adds what depends on the shape: the block
partition and padded dims (ragged operands are zero-padded to the next
multiple of the rule dims per level, the result cropped), and a pooled
workspace *arena* — padded operand copies, per-level ``S_i``/``T_i``
buffers, the gemm output slot, scale scratch and the padded ``C``,
matching the footprint priced by :func:`repro.core.memory.workspace_bytes`
— with each level's slot list built once per workspace.  The top
level's ``C`` is kept as contiguous blocks, so no C-side op pays for a
strided view; the exit copy reassembles the result.

Workspaces are checked out per call from a small free list, so one plan
serves concurrent callers (the threaded executor's workers recurse into
sequential plans) without aliasing.  Plans are acquired through a
bounded, thread-safe LRU :class:`PlanCache`; :func:`acquire_plan` builds
a one-off uncached plan when caching is off (``plan_cache=False``).  The
threaded, process and batched-stacked runners only schedule a program's
combinations and products; all of them execute its ops through
:func:`_run`.
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
    "Program",
    "Combination",
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

    A leading batch axis passes through, so the same programs run on
    2-D blocks and 3-D batched blocks alike.
    """
    br, bc = X.shape[-2] // rows, X.shape[-1] // cols
    return [X[..., i * br:(i + 1) * br, j * bc:(j + 1) * bc]
            for i in range(rows) for j in range(cols)]


def _assemble(c_blocks: list[np.ndarray], cols: int, height: int,
              width: int) -> np.ndarray:
    """The ``height x width`` top-left corner of the matrix whose
    row-major grid of blocks (``cols`` per row) is ``c_blocks``."""
    br, bc = c_blocks[0].shape
    out = np.empty((height, width), dtype=c_blocks[0].dtype)
    for q, block in enumerate(c_blocks):
        r0, c0 = (q // cols) * br, (q % cols) * bc
        if r0 < height and c0 < width:
            out[r0:r0 + br, c0:c0 + bc] = block[:height - r0, :width - c0]
    return out


# ----------------------------------------------------------------------
# the compiler
# ----------------------------------------------------------------------


def _pool() -> tuple:
    """``(const, values)``: ``const(c)`` is the slot of constant ``c``,
    counted from the end (``-1``, ``-2``, ...) so that every slot layout
    can end with the same ``values[::-1]``."""
    values: list = []

    def const(c) -> int:
        for j, v in enumerate(values):
            if type(v) is type(c) and v == c:
                return -1 - j
        values.append(c)
        return -len(values)

    return const, values


def _emit_rmw(ops: list, out: int, x: int, c, scr: int, const) -> None:
    """``out += c * x`` in place (``c = ±1`` needs no scratch)."""
    if c == 1:
        ops.append((np.add, out, x, out))
    elif c == -1:
        ops.append((np.subtract, out, x, out))
    else:
        ops.append((np.multiply, x, const(c), scr))
        ops.append((np.add, out, scr, out))


def _emit_start(ops: list, a: int, ca, b: int | None, cb, out: int,
                scr: int, const) -> None:
    """``out = ca * a + cb * b`` (``out = ca * a`` when ``b`` is None),
    one fused ``np.add``/``np.subtract`` when ``ca, cb`` are ``±1`` and
    not both ``-1``."""
    if b is not None and ca == 1 and (cb == 1 or cb == -1):
        ops.append((np.add if cb == 1 else np.subtract, a, b, out))
    elif b is not None and ca == -1 and cb == 1:
        ops.append((np.subtract, b, a, out))
    else:
        ops.append((np.multiply, a, const(ca), out))
        if b is not None:
            _emit_rmw(ops, out, b, cb, scr, const)


def _emit_sum(ops: list, terms, src, out: int, scr: int, const) -> None:
    """``out = sum c * src(p)`` over ``terms``, left to right."""
    if not terms:
        ops.append((np.multiply, const(0.0), const(0.0), out))
        return
    (p0, c0), (p1, c1) = terms[0], terms[1] if len(terms) > 1 else (None, 0)
    _emit_start(ops, src(p0), c0, None if p1 is None else src(p1), c1,
                out, scr, const)
    for p, c in terms[2:]:
        _emit_rmw(ops, out, src(p), c, scr, const)


def _emit_fold(ops: list, w_terms, n_c: int, c_slot, scr: int, const,
               place) -> None:
    """``C_q = sum_i W[q, i] * M_i`` for every block, in product order.

    ``place(i, free, flush)`` emits what leaves ``M_i`` in a slot and
    returns that slot.  ``free`` lists the blocks ``M_i`` may be written
    straight into (unstarted, reached with ``w = 1``); ``flush(slot)``
    must be emitted before anything overwrites ``slot``.  A block's
    first ``±1`` term waits in ``pending`` until its second arrives, so
    the two start the block as one fused op.
    """
    started: set[int] = set()
    pending: dict[int, tuple] = {}

    def flush(slot: int) -> None:
        for q in [q for q, (_, s) in pending.items() if s == slot]:
            w, s = pending.pop(q)
            ops.append((np.multiply, s, const(w), c_slot(q)))
            started.add(q)

    for i, terms in enumerate(w_terms):
        M = place(i, [q for q, w in terms if w == 1 and q not in started
                      and q not in pending], flush)
        for q, w in terms:
            out = c_slot(q)
            if out == M:
                started.add(q)
            elif q in pending:
                wa, s = pending.pop(q)
                started.add(q)
                _emit_start(ops, s, wa, M, w, out, scr, const)
            elif q not in started:
                if w == 1 or w == -1:
                    pending[q] = (w, M)
                else:
                    ops.append((np.multiply, M, const(w), out))
                    started.add(q)
            else:
                flush(out)
                _emit_rmw(ops, out, M, w, scr, const)
    for slot in {s for _, s in pending.values()}:
        flush(slot)
    for q in range(n_c):
        if q not in started:
            # Padded partitions of degenerate rules: the arena may hold
            # stale data.
            ops.append((np.multiply, const(0.0), const(0.0), c_slot(q)))


def _compile_level(s_terms, t_terms, w_terms, n_a: int, n_b: int,
                   n_c: int, const, inner: bool) -> tuple:
    """One recursion level over :meth:`Program.slots`' layout.

    Product ops carry ``None`` for the ufunc.  The base level passes
    lone unit terms on as views and writes products into C blocks; an
    inner level materializes every operand (the next level's blocks are
    views of ``S``/``T``) and receives each product in slot ``P``.
    """
    S = n_a + n_b
    T, P, C0 = S + 1, S + 2, S + 3
    ops: list = []

    def operand(terms, first: int, buf: int, scr: int) -> int:
        if not inner and len(terms) == 1 and terms[0][1] == 1:
            return first + terms[0][0]
        _emit_sum(ops, terms, lambda p: first + p, buf, scr, const)
        return buf

    def place(i: int, free: list, flush) -> int:
        x = operand(s_terms[i], 0, S, C0 + n_c)
        y = operand(t_terms[i], n_a, T, C0 + n_c + 1)
        dst = P if inner or not free else C0 + free[0]
        if dst == P:
            flush(P)
        ops.append((None, x, y, dst))
        return dst

    _emit_fold(ops, w_terms, n_c, lambda q: C0 + q, C0 + n_c + 2, const,
               place)
    return tuple(ops)


def _touched(ops: tuple) -> set[int]:
    return {slot for op in ops for slot in op[1:]}


class Combination:
    """One S or T sum compiled for :func:`combine`: ``ops`` over the
    slots ``[out, scratch, *blocks, *consts]``; ``view`` is the block of
    a lone coefficient-1 term."""

    __slots__ = ("view", "ops", "consts", "scratch")

    def __init__(self, terms) -> None:
        const, values = _pool()
        ops: list = []
        _emit_sum(ops, terms, lambda p: 2 + p, 0, 1, const)
        self.view = (terms[0][0] if len(terms) == 1 and terms[0][1] == 1
                     else None)
        self.ops = tuple(ops)
        self.consts = tuple(values[::-1])
        self.scratch = 1 in _touched(self.ops)


class Program:
    """An algorithm's term lists compiled once at one ``(dtype, lambda)``,
    shared by every plan of that triple.

    Ops are ``(ufunc, x, y, out)`` slot indices run as
    ``ufunc(slots[x], slots[y], slots[out])``; product ops carry ``None``.
    ``base``/``inner`` run one recursion level over :meth:`slots`,
    ``fold`` is :func:`accumulate`'s W side over ``[scratch, *products,
    *C blocks, *consts]`` and ``s[i]``/``t[i]`` are product ``i``'s
    :class:`Combination` for :func:`combine`; ``coeffs`` is the evaluated
    ``(Un, Vn, Wn)`` it was compiled from.
    """

    def __init__(self, Un: np.ndarray, Vn: np.ndarray,
                 Wn: np.ndarray) -> None:
        self.coeffs = (Un, Vn, Wn)
        self.s_terms, self.t_terms, self.w_terms = term_lists(Un, Vn, Wn)
        r = self.rank = Un.shape[1]
        n_a, n_b, n_c = Un.shape[0], Vn.shape[0], Wn.shape[0]
        const, values = _pool()
        lists = (self.s_terms, self.t_terms, self.w_terms, n_a, n_b, n_c,
                 const)
        self.base = _compile_level(*lists, inner=False)
        self.inner = _compile_level(*lists, inner=True)
        fold: list = []
        _emit_fold(fold, self.w_terms, n_c, lambda q: 1 + r + q, 0, const,
                   lambda i, free, flush: 1 + i)
        self.fold = tuple(fold)
        self.fold_scratch = 0 in _touched(self.fold)
        self.consts = tuple(values[::-1])
        self.s = tuple(Combination(t) for t in self.s_terms)
        self.t = tuple(Combination(t) for t in self.t_terms)
        self.P = n_a + n_b + 2
        scr = self.P + 1 + n_c
        self._scratch = {
            inner: [slot in _touched(ops) for slot in range(scr, scr + 3)]
            for inner, ops in ((False, self.base), (True, self.inner))}

    def slots(self, a_blocks, b_blocks, S: np.ndarray, T: np.ndarray,
              P: np.ndarray, c_blocks, scratch, inner: bool = False) -> list:
        """One level's slots: ``[*A blocks, *B blocks, S, T, P, *C blocks,
        S, T and C-block scratch, *consts]``; ``scratch(shape, dtype)``
        builds the scale buffers the level's ops use."""
        bufs = [scratch(like.shape, like.dtype) if used else None
                for used, like in zip(self._scratch[inner],
                                      (S, T, c_blocks[0]))]
        return [*a_blocks, *b_blocks, S, T, P, *c_blocks, *bufs,
                *self.consts]


def _run(ops: tuple, slots: list, gemm: GemmFn | None = None,
         P: int = -1, recurse=None) -> None:
    """Execute compiled ops over ``slots`` — the one evaluator loop.

    A product op runs ``recurse()`` (an inner level, which leaves its
    result in slot ``P``), ``matmul(x, y, out)``, or the ``gemm`` seam,
    whose result is copied into a C block or takes slot ``P``'s place.
    """
    matmul = np.matmul
    for fn, x, y, o in ops:
        if fn is not None:
            fn(slots[x], slots[y], slots[o])
        elif recurse is not None:
            recurse()
        elif gemm is None:
            matmul(slots[x], slots[y], slots[o])
        elif o == P:
            slots[o] = gemm(slots[x], slots[y])
        else:
            np.copyto(slots[o], gemm(slots[x], slots[y]))


def _scratch(out: np.ndarray, scratch) -> np.ndarray:
    if scratch is None:
        return np.empty_like(out)
    return scratch(out.shape, out.dtype)


def combine(terms, blocks: list[np.ndarray], out: np.ndarray | None = None,
            scratch=None, view: bool = True) -> np.ndarray:
    """Write-once linear combination ``sum c * blocks[idx]``.

    ``terms`` is a :class:`Combination` (a program's ``s[i]``/``t[i]``)
    or a raw ``(index, coeff)`` term list, compiled on the spot.  With
    ``out=None`` the result is freshly allocated; otherwise it is
    written into ``out``.  A single coefficient-1 term returns the block
    itself (a view — treat it as read-only) unless ``view=False``.
    ``scratch(shape, dtype)`` supplies the buffer for non-unit
    coefficients past the first (allocated per call when ``None``).
    """
    combo = terms if isinstance(terms, Combination) else Combination(terms)
    if view and combo.view is not None:
        return blocks[combo.view]
    if out is None:
        out = np.empty_like(blocks[0])
    _run(combo.ops, [out, _scratch(out, scratch) if combo.scratch else None,
                     *blocks, *combo.consts])
    return out


def accumulate(program: Program, products, c_blocks: list[np.ndarray],
               scratch=None) -> None:
    """Fold all ``r`` products into the output blocks of C.

    ``C_q = sum_i W[q, i] * M_i`` by the program's ``fold`` ops: each
    block starts with its first product (or a fused add of its first
    two) and accumulates in place after that; blocks no product reaches
    are zero-filled, since the output buffer may hold stale arena data.
    """
    buf = _scratch(c_blocks[0], scratch) if program.fold_scratch else None
    _run(program.fold, [buf, *products, *c_blocks, *program.consts])


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

    __slots__ = ("Ap", "Bp", "C", "c_blocks", "slots", "_scratch")

    def __init__(self, plan: ExecutionPlan) -> None:
        part, dtype, program = plan.partition, plan.dtype, plan.program
        m, n, k = part.m, part.n, part.k
        Mp, Np, Kp = (part.padded_rows_a, part.padded_cols_a,
                      part.padded_cols_b)
        # Padded staging copies exist only when shapes are ragged; the
        # zero margins are written once here and never touched again.
        self.Ap = np.zeros((Mp, Np), dtype=dtype) if plan.pads_a else None
        self.Bp = np.zeros((Np, Kp), dtype=dtype) if plan.pads_b else None
        self._scratch: dict[tuple[int, int], np.ndarray] = {}
        self.C: list[np.ndarray] = []
        self.c_blocks: list[list[np.ndarray]] = []
        self.slots: list[list] = []
        if plan.mode == "threaded":
            # The threaded executor keeps all r products alive and only
            # needs the staged operands plus the padded output here.
            self.C.append(np.empty((Mp, Kp), dtype=dtype))
            self.c_blocks.append(block_views(self.C[0], m, k))
            return
        # One slot list per level.  Level l >= 1 splits the previous
        # level's S/T and hands its products up through C[l]; level 0's
        # operand blocks are filled in per call.
        a_blocks, b_blocks = [None] * (m * n), [None] * (n * k)
        bm, bn, bk = Mp, Np, Kp
        for lvl in range(plan.key.steps):
            bm, bn, bk = bm // m, bn // n, bk // k
            if lvl == 0:
                # Contiguous blocks: every C-side op of the level runs
                # on them; the exit copy reassembles the matrix.
                C = np.empty((m * k, bm, bk), dtype=dtype)
                c_blocks = list(C)
            else:
                C = np.empty((bm * m, bk * k), dtype=dtype)
                c_blocks = block_views(C, m, k)
                self.slots[-1][program.P] = C
            S = np.empty((bm, bn), dtype=dtype)
            T = np.empty((bn, bk), dtype=dtype)
            self.slots.append(program.slots(
                a_blocks, b_blocks, S, T, None, c_blocks, self.scratch,
                inner=lvl < plan.key.steps - 1))
            self.C.append(C)
            self.c_blocks.append(c_blocks)
            a_blocks, b_blocks = block_views(S, m, n), block_views(T, n, k)
        self.slots[-1][program.P] = np.empty((bm, bk), dtype=dtype)

    def scratch(self, shape: tuple[int, int], dtype) -> np.ndarray:
        """A reusable scalar-scratch buffer of the given shape."""
        buf = self._scratch.get(shape)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[shape] = buf
        return buf


class ExecutionPlan:
    """A shared :class:`Program` plus the per-shape partition and arenas.

    Build through :meth:`PlanCache.plan_for` (or the module default via
    :func:`default_plan_cache`), not directly — the cache is what makes
    the arenas pay off.
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
        self.program = algorithm.compiled(key.lam, self.dtype)
        self.s_terms = self.program.s_terms
        self.t_terms = self.program.t_terms
        self.w_terms = self.program.w_terms
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
        """Level-0 blocks of the operands.

        Ragged operands are copied into the padded arena first; aligned
        ones are split in place, with no copy.
        """
        m, n, k = self.partition.m, self.partition.n, self.partition.k
        if ws.Ap is not None:
            ws.Ap[: self.key.rows_a, : self.key.cols_a] = A
            A = ws.Ap
        if ws.Bp is not None:
            ws.Bp[: self.key.cols_a, : self.key.cols_b] = B
            B = ws.Bp
        return block_views(A, m, n), block_views(B, n, k)

    # ------------------------------------------------------------------
    # sequential execution
    # ------------------------------------------------------------------

    def execute(self, A: np.ndarray, B: np.ndarray,
                gemm: GemmFn | None = None) -> np.ndarray:
        """Run the plan on concrete operands (sequential mode).

        ``gemm`` overrides the base-case multiply exactly as in
        :func:`~repro.core.apa_matmul.apa_matmul` (the fault-injection
        seam); the default routes through ``np.matmul`` writing straight
        into the arena.

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
        key = self.key
        if key.mode != "sequential":
            raise ValueError(f"execute() is for sequential plans, "
                             f"this one is {key.mode!r}")
        if A.shape != (key.rows_a, key.cols_a) \
                or B.shape != (key.cols_a, key.cols_b):
            raise ValueError(
                f"operands {A.shape} @ {B.shape} do not match plan key "
                f"({key.rows_a},{key.cols_a})@({key.cols_a},{key.cols_b})")
        ws = self.checkout()
        try:
            a_blocks, b_blocks = self.stage(ws, A, B)
            slots = ws.slots[0].copy()
            slots[:len(a_blocks)] = a_blocks
            slots[len(a_blocks):len(a_blocks) + len(b_blocks)] = b_blocks
            self._run_level(ws, 0, slots, gemm)
            # Always hand back a fresh array: the arena C is reused by
            # the next call through this plan.
            return _assemble(ws.c_blocks[0], self.partition.k, key.rows_a,
                             key.cols_b)
        finally:
            self.release(ws)

    def _run_level(self, ws: _Workspace, level: int, slots: list,
                   gemm: GemmFn | None) -> None:
        """Run one level's ops; its result is left in ``ws.C[level]``.

        An inner level recurses into the next for each product; the next
        level's slot list is private to this call only when a ``gemm``
        seam may replace its product slot.
        """
        program = self.program
        if level == self.key.steps - 1:
            _run(program.base, slots, gemm, program.P)
            return
        nxt = ws.slots[level + 1]

        def recurse() -> None:
            self._run_level(ws, level + 1,
                            nxt if gemm is None else nxt.copy(), gemm)

        _run(program.inner, slots, recurse=recurse)

    def run_batched(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """One base level over 3-D ``(batch, rows, cols)`` operands.

        The stacked batched runner's body: row-major padded copies of
        the operands, fresh ``S``/``T``/``P`` buffers and one batched
        gemm per product.
        """
        key, part = self.key, self.partition
        m, n, k = part.m, part.n, part.k
        batch = A.shape[0]
        Ap = np.zeros((batch, part.padded_rows_a, part.padded_cols_a),
                      dtype=self.dtype)
        Ap[:, :key.rows_a, :key.cols_a] = A
        Bp = np.zeros((batch, part.padded_cols_a, part.padded_cols_b),
                      dtype=self.dtype)
        Bp[:, :key.cols_a, :key.cols_b] = B
        C = np.empty((batch, part.padded_rows_a, part.padded_cols_b),
                     dtype=self.dtype)
        a_blocks, b_blocks = block_views(Ap, m, n), block_views(Bp, n, k)
        c_blocks = block_views(C, m, k)
        slots = self.program.slots(
            a_blocks, b_blocks, np.empty_like(a_blocks[0]),
            np.empty_like(b_blocks[0]), np.empty_like(c_blocks[0]),
            c_blocks, lambda shape, dtype: np.empty(shape, dtype))
        _run(self.program.base, slots, P=self.program.P)
        return np.ascontiguousarray(C[:, :key.rows_a, :key.cols_b])


def _shape(key: PlanKey) -> str:
    return f"{key.rows_a}x{key.cols_a}x{key.cols_b}"


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
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
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
        # Keyed by the algorithm's identity: a cached plan holds its
        # algorithm, so the id cannot be reused while the entry lives.
        ident = (id(algorithm), rows_a, cols_a, cols_b, np.dtype(dtype).str,
                 float(lam), steps, mode, strategy, threads)
        with self._lock:
            plan = self._plans.get(ident)
            if plan is not None:
                self._plans.move_to_end(ident)
                self.hits += 1
        evicted: list[PlanKey] = []
        if plan is None:
            # Build outside the lock: plan construction allocates
            # nothing shared, so a rare duplicate build is cheaper than
            # serializing every miss.
            built = ExecutionPlan(algorithm, _plan_key(
                algorithm, rows_a, cols_a, cols_b, dtype, lam, steps, mode,
                strategy, threads))
            with self._lock:
                plan = self._plans.get(ident)
                if plan is not None:
                    self.hits += 1
                    self._plans.move_to_end(ident)
                else:
                    self.misses += 1
                    self._plans[ident] = plan = built
                    while len(self._plans) > self.maxsize:
                        self.evictions += 1
                        evicted.append(self._plans.popitem(last=False)[1].key)
            if plan is built:
                self._record("plan-miss", built.key, evicted)
                return plan
        tracer = _obs_tracer.ACTIVE
        if tracer is not None:
            tracer.instant("plan-hit", cat="plan",
                           algorithm=plan.key.algorithm,
                           shape=_shape(plan.key), mode=mode)
        return plan

    def _record(self, kind: str, key: PlanKey,
                evicted: list[PlanKey]) -> None:
        """A miss and its evictions, on the log (which forwards them to
        the tracer) or else straight on the tracer."""
        for name, k in ((kind, key), *(("plan-evict", e) for e in evicted)):
            if self.log is not None:
                detail = (f"built {_shape(k)} {k.mode} plan"
                          if name == kind else f"evicted {_shape(k)}")
                self.log.emit(name, f"plan:{k.algorithm}", detail)
            elif _obs_tracer.ACTIVE is not None:
                _obs_tracer.ACTIVE.instant(name, cat="plan",
                                           algorithm=k.algorithm,
                                           shape=_shape(k), mode=k.mode)

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
