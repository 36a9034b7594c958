"""Workspace accounting for fast matmul (memory is the other cost).

Fast algorithms trade flops for temporaries: one recursive step
materializes the ``S_i``/``T_i`` linear combinations and the ``M_i``
products.  This module prices the peak extra workspace of the executor's
write-once strategy so users can predict footprint before running —
padding included — and compare algorithms on memory as well as time.

Model of :func:`repro.core.apa_matmul.apa_matmul` (sequential, per
recursion level):

- padded copies of ``A`` and ``B`` when shapes are ragged;
- per multiplication, at most one ``S`` buffer, one ``T`` buffer and the
  ``M_i`` product live at once (plus a scalar-scratch buffer), since the
  sequential plan streams multiplications one at a time;
- the padded output ``C``.

The threaded executor keeps all ``r`` products alive (they are combined
after the pool drains), which :func:`workspace_bytes` reports under
``parallel=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.spec import AlgorithmLike
from repro.linalg.blocking import required_padding

__all__ = ["WorkspaceEstimate", "workspace_bytes"]


@dataclass(frozen=True)
class WorkspaceEstimate:
    """Peak extra bytes beyond the inputs and the cropped output."""

    padded_inputs: int
    combination_buffers: int
    product_buffers: int
    padded_output: int

    @property
    def total(self) -> int:
        return (self.padded_inputs + self.combination_buffers
                + self.product_buffers + self.padded_output)

    def overhead_vs_classical(self, M: int, N: int, K: int,
                              dtype_bytes: int = 4) -> float:
        """Extra workspace as a multiple of the classical footprint
        (inputs + output)."""
        classical = (M * N + N * K + M * K) * dtype_bytes
        return self.total / classical


def workspace_bytes(
    algorithm: AlgorithmLike,
    M: int,
    N: int,
    K: int,
    steps: int = 1,
    dtype_bytes: int = 4,
    parallel: bool = False,
) -> WorkspaceEstimate:
    """Peak workspace of one fast multiplication.

    ``parallel=True`` models the threaded executor (all ``r`` products
    held simultaneously); otherwise the streaming sequential plan.
    Multi-step recursion adds the geometric tail of per-level buffers
    (dominated by the first level).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    r = algorithm.rank

    Mp = required_padding(M, m, steps)
    Np = required_padding(N, n, steps)
    Kp = required_padding(K, k, steps)
    padded_inputs = 0
    if (Mp, Np) != (M, N):
        padded_inputs += Mp * Np * dtype_bytes
    if (Np, Kp) != (N, K):
        padded_inputs += Np * Kp * dtype_bytes

    combo = 0
    products = 0
    bm, bn, bk = Mp, Np, Kp
    for level in range(steps):
        bm, bn, bk = bm // m, bn // n, bk // k
        s_buf = bm * bn * dtype_bytes
        t_buf = bn * bk * dtype_bytes
        p_buf = bm * bk * dtype_bytes
        if level == 0 and parallel:
            # the pool holds every product until output combination
            combo += (s_buf + t_buf)  # one in-flight pair per worker is a
            # lower bound; the dominant term is the r live products:
            products += r * p_buf
        else:
            combo += s_buf + t_buf + p_buf  # streaming: one of each live
            products += p_buf               # plus the scalar scratch buffer

    padded_output = Mp * Kp * dtype_bytes if (Mp, Kp) != (M, K) else 0
    return WorkspaceEstimate(
        padded_inputs=padded_inputs,
        combination_buffers=combo,
        product_buffers=products,
        padded_output=padded_output,
    )
