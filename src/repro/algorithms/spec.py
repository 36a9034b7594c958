"""The :class:`BilinearAlgorithm` container and its derived properties.

An algorithm for dims ``<m, n, k>`` with rank ``r`` is stored as three
object arrays of :class:`~repro.linalg.laurent.Laurent` coefficients:

- ``U`` of shape ``(m*n, r)`` — linear combinations of the entries of ``A``;
- ``V`` of shape ``(n*k, r)`` — linear combinations of the entries of ``B``;
- ``W`` of shape ``(m*k, r)`` — contributions of each product to ``C``.

Column ``i`` of the three matrices is the *triplet* encoding multiplication
``M_i`` (paper eq. (2)).  All indices are row-major.

Derived quantities follow the paper's §2.3/§2.5 definitions exactly:

``phi``
    the largest sum (over the three matrices of a triplet) of the largest
    negative lambda-exponent appearing in that matrix's column;
``sigma``
    smallest positive exponent of the error polynomial (computed by the
    verifier; stored here once known);
``speedup``
    ``(m*n*k / r - 1) * 100`` percent for one recursive step;
``error bound``
    ``2**(-d * sigma / (sigma + s * phi))`` for ``s`` recursive steps in a
    format with ``d`` fractional bits.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np
import numpy.typing as npt

from repro.linalg.laurent import Laurent

__all__ = ["AlgorithmLike", "BilinearAlgorithm", "coeff_matrix"]

#: Guards :meth:`BilinearAlgorithm.compiled`'s memo (plans are built
#: concurrently, and every plan of one key must share one program).
_COMPILED_LOCK = threading.Lock()


def coeff_matrix(
    rows: int,
    cols: int,
    entries: Mapping[tuple[int, int], Laurent | int | float] | None = None,
) -> np.ndarray:
    """Allocate a Laurent-valued coefficient matrix initialized to zero.

    ``entries`` may be a ``{(row, col): Laurent | int | float}`` mapping of
    the nonzeros.
    """
    M = np.empty((rows, cols), dtype=object)
    M[...] = Laurent.zero()
    if entries:
        for (i, j), value in entries.items():
            M[i, j] = value if isinstance(value, Laurent) else Laurent.const(value)
    return M


@runtime_checkable
class AlgorithmLike(Protocol):
    """Common interface shared by true bilinear algorithms and surrogates.

    Everything the execution engine, cost model, and experiment drivers need
    from "an algorithm": its dims, rank, error parameters, and sparsity
    statistics.  :class:`BilinearAlgorithm` satisfies it with real
    coefficients; :class:`repro.core.surrogate.SurrogateAlgorithm`
    satisfies it with paper metadata.
    """

    name: str
    m: int
    n: int
    k: int

    @property
    def rank(self) -> int: ...

    @property
    def sigma(self) -> int: ...

    @property
    def phi(self) -> int: ...

    @property
    def is_exact(self) -> bool: ...

    @property
    def is_surrogate(self) -> bool: ...

    def nnz(self) -> tuple[int, int, int]: ...


def _column_negative_degree(col: Iterable[Laurent]) -> int:
    """Largest negative-exponent magnitude in a coefficient column."""
    worst = 0
    for entry in col:
        if entry:
            worst = max(worst, entry.negative_degree())
    return worst


def _count_nnz(M: np.ndarray) -> int:
    return int(sum(1 for entry in M.flat if entry))


@dataclass
class BilinearAlgorithm:
    """A (possibly approximate) bilinear rule for ``<m, n, k>`` products.

    Instances should be treated as immutable; the factory functions in the
    construction modules are the supported way to build them.

    Attributes
    ----------
    name:
        Catalog key, e.g. ``'bini322'``.
    m, n, k:
        Rule dims (``A`` is ``m x n``, ``B`` is ``n x k``).
    U, V, W:
        Laurent coefficient matrices of shapes ``(m*n, r)``, ``(n*k, r)``,
        ``(m*k, r)``.
    source:
        Bibliographic note (paper reference or construction recipe).
    """

    name: str
    m: int
    n: int
    k: int
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    source: str = ""
    _sigma: int | None = field(default=None, repr=False)
    _exact: bool | None = field(default=None, repr=False)
    _phi: int | None = field(default=None, repr=False, compare=False)
    _eval_cache: dict | None = field(default=None, repr=False, compare=False)
    _compiled_cache: dict | None = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        m, n, k = self.m, self.n, self.k
        if min(m, n, k) < 1:
            raise ValueError(f"dims must be positive, got <{m},{n},{k}>")
        r = self.U.shape[1]
        expected = {
            "U": (m * n, r),
            "V": (n * k, r),
            "W": (m * k, r),
        }
        for attr, shape in expected.items():
            M = getattr(self, attr)
            if M.shape != shape:
                raise ValueError(f"{attr} has shape {M.shape}, expected {shape}")
            if M.dtype != object:
                raise TypeError(f"{attr} must be an object array of Laurent")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.k)

    @property
    def rank(self) -> int:
        """Number of multiplications (columns of the triplet matrices)."""
        return int(self.U.shape[1])

    @property
    def classical_rank(self) -> int:
        return self.m * self.n * self.k

    @property
    def speedup_percent(self) -> float:
        """Ideal single-step speedup ``(mnk/r - 1) * 100`` (paper §2.5)."""
        return (self.classical_rank / self.rank - 1.0) * 100.0

    @property
    def phi(self) -> int:
        """Roundoff exponent: max over triplets of summed negative degrees.

        Paper §2.3: for each triplet, take the largest negative exponent in
        each of the three coefficient matrices and sum the three values;
        ``phi`` is the maximum over triplets.  The value depends only on
        the stored coefficients, so it is computed once and cached.
        """
        if self._phi is not None:
            return self._phi
        worst = 0
        for i in range(self.rank):
            total = (
                _column_negative_degree(self.U[:, i])
                + _column_negative_degree(self.V[:, i])
                + _column_negative_degree(self.W[:, i])
            )
            worst = max(worst, total)
        self._phi = worst
        return worst

    @property
    def sigma(self) -> int:
        """Approximation order (paper §2.3).

        Populated by verification; exact algorithms report a conventional
        ``sigma`` of 0 here meaning "no approximation error" (the paper's
        Table 1 lists sigma=1 for classical but also phi=0, giving error
        bound ``2**-d`` — plain working precision — so the distinction is
        cosmetic; we expose :meth:`error_bound` that handles both).
        """
        if self._sigma is None:
            # Deferred import to avoid a cycle at module import time.
            from repro.algorithms.verify import verify_algorithm

            report = verify_algorithm(self)
            self._sigma = report.sigma
            self._exact = report.is_exact
        return self._sigma

    @property
    def is_exact(self) -> bool:
        """True when the decomposition equals the matmul tensor exactly."""
        if self._exact is None:
            self.sigma  # triggers verification, fills both caches
        return bool(self._exact)

    @property
    def is_apa(self) -> bool:
        return not self.is_exact

    @property
    def is_surrogate(self) -> bool:
        return False

    # ------------------------------------------------------------------
    # sparsity / addition-cost statistics
    # ------------------------------------------------------------------

    def nnz(self) -> tuple[int, int, int]:
        """Nonzero counts of ``(U, V, W)`` — the addition-cost drivers."""
        return (_count_nnz(self.U), _count_nnz(self.V), _count_nnz(self.W))

    def addition_counts(self) -> tuple[int, int, int]:
        """Matrix additions needed by the write-once strategy.

        Forming ``S_i`` needs ``nnz(U[:, i]) - 1`` block additions (a column
        with a single nonzero is a relabel/scale, not an add); similarly for
        ``T_i``.  Each output entry ``C_q`` needs ``nnz(W[q, :]) - 1`` adds.
        """
        adds_u = sum(
            max(0, sum(1 for e in self.U[:, i] if e) - 1) for i in range(self.rank)
        )
        adds_v = sum(
            max(0, sum(1 for e in self.V[:, i] if e) - 1) for i in range(self.rank)
        )
        adds_w = sum(
            max(0, sum(1 for e in self.W[q, :] if e) - 1)
            for q in range(self.m * self.k)
        )
        return (adds_u, adds_v, adds_w)

    # ------------------------------------------------------------------
    # error model
    # ------------------------------------------------------------------

    def error_bound(self, d: int = 23, steps: int = 1) -> float:
        """Minimum achievable relative error ``2**(-d*sigma/(sigma+s*phi))``.

        ``d`` is the number of fractional bits of the working precision
        (23 for single, 52 for double).  Exact algorithms return ``2**-d``.
        """
        if d <= 0:
            raise ValueError("precision bits d must be positive")
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if self.is_exact or self.phi == 0:
            return 2.0**-d
        sigma = max(self.sigma, 1)
        return 2.0 ** (-d * sigma / (sigma + steps * self.phi))

    # ------------------------------------------------------------------
    # numeric evaluation
    # ------------------------------------------------------------------

    #: How many distinct ``(lam, dtype)`` evaluations each algorithm keeps.
    #: Tuning sweeps iterate over many candidate lambdas; bounding the
    #: cache keeps them from pinning every candidate's arrays forever.
    EVAL_CACHE_SIZE = 8

    def evaluate(
        self, lam: float, dtype: npt.DTypeLike = np.float64
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate the Laurent coefficients at a concrete ``lambda``.

        Returns float arrays ``(Un, Vn, Wn)`` with the same shapes as
        ``(U, V, W)``.  Exact algorithms may be evaluated with any ``lam``
        (their coefficients are lambda-free); APA algorithms require
        ``0 < lam``.

        Results are memoized per ``(lam, dtype)`` — a training loop
        evaluates the same point thousands of times — and the returned
        arrays are marked read-only because they are shared between
        callers.  Copy before mutating (no in-repo caller does).
        """
        if self.is_apa and not lam > 0:
            raise ValueError(f"APA algorithm {self.name!r} needs lambda > 0")

        key = (float(lam), np.dtype(dtype).str)
        if self._eval_cache is None:
            self._eval_cache = {}
        cached = self._eval_cache.get(key)
        if cached is not None:
            return cached

        def _eval(M: np.ndarray) -> np.ndarray:
            out = np.zeros(M.shape, dtype=dtype)
            for idx, entry in np.ndenumerate(M):
                if entry:
                    out[idx] = entry(lam)
            out.flags.writeable = False
            return out

        result = (_eval(self.U), _eval(self.V), _eval(self.W))
        while len(self._eval_cache) >= self.EVAL_CACHE_SIZE:
            self._eval_cache.pop(next(iter(self._eval_cache)))
        self._eval_cache[key] = result
        return result

    def compiled(self, lam: float, dtype: npt.DTypeLike = np.float64):
        """The execution plans' op program for :meth:`evaluate`'s result
        (:class:`repro.core.plan.Program`), memoized beside it the same
        way, so every plan of one ``(lam, dtype)`` shares one."""
        from repro.core.plan import Program

        key = (float(lam), np.dtype(dtype).str)
        with _COMPILED_LOCK:
            if self._compiled_cache is None:
                self._compiled_cache = {}
            cached = self._compiled_cache.get(key)
            if cached is None:
                cached = Program(*self.evaluate(lam, dtype))
                while len(self._compiled_cache) >= self.EVAL_CACHE_SIZE:
                    self._compiled_cache.pop(next(iter(self._compiled_cache)))
                self._compiled_cache[key] = cached
        return cached

    def clear_evaluation_cache(self) -> None:
        """Drop memoized ``evaluate`` and ``compiled`` results
        (benchmarks' cold path)."""
        for cache in (self._eval_cache, self._compiled_cache):
            if cache is not None:
                cache.clear()

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def signature(self) -> str:
        """Human-readable tag like ``<3,2,2>:10``."""
        return f"<{self.m},{self.n},{self.k}>:{self.rank}"

    def __repr__(self) -> str:
        return f"BilinearAlgorithm({self.name!r}, {self.signature()})"
