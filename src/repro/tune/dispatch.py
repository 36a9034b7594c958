"""Runtime consultation: how ``tuned=True`` reaches the engine.

One process-wide installed table (like the process-wide
:func:`~repro.core.config.execution_context` stack, and for the same
reason: pool worker threads must resolve identically to the submitting
thread).  The engine calls :func:`consult` from its dispatch path when
a resolved config has ``tuned=True``; the table may only fill fields
that are still **unset** after every higher-precedence layer merged —
that is what places it below explicit kwargs / engine fields / the
active context and above the built-in defaults.  Because the filled
config is indistinguishable from one the caller wrote by hand, tuned
dispatch is bit-identical to explicitly requesting the cell's choice.

Failure ladder (the tuning artifact must never break a correct
program): a missing, corrupt, version-mismatched, or
catalog-fingerprint-mismatched table produces **one**
:class:`~repro.tune.table.DispatchTableWarning` and static-default
behavior; a cell the table does not cover falls back silently (the
static default for an unset algorithm is classical gemm).
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Union

from repro.tune.table import (
    DispatchTable,
    DispatchTableError,
    DispatchTableWarning,
    load_dispatch_table,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ExecutionConfig

__all__ = [
    "ENV_TABLE_PATH",
    "active_dispatch_table",
    "consult",
    "explain",
    "install_dispatch_table",
]

#: Environment variable naming a table file to auto-install on first use.
ENV_TABLE_PATH = "REPRO_DISPATCH_TABLE"

_TableSource = Union[DispatchTable, str, Path, None]

# All mutation under _LOCK; _RESOLVED is the memoized outcome of
# resolving _SOURCE (None = no usable table), _ATTEMPTED makes both the
# resolution and its warning one-shot until the next install.
_LOCK = threading.Lock()
_SOURCE: _TableSource = None
_RESOLVED: DispatchTable | None = None
_ATTEMPTED = False


def install_dispatch_table(table: _TableSource) -> None:
    """Install (or with ``None``: clear) the process-wide table.

    Accepts a loaded :class:`DispatchTable` or a path, resolved lazily
    on first consultation so installation itself never raises for a
    bad file — the failure surfaces once, as a warning, where tuned
    dispatch would first have applied.
    """
    global _SOURCE, _RESOLVED, _ATTEMPTED
    if table is not None and not isinstance(table, (DispatchTable, str,
                                                    Path)):
        raise TypeError(
            f"expected a DispatchTable, path, or None, got {table!r}")
    with _LOCK:
        _SOURCE = table
        _RESOLVED = None
        _ATTEMPTED = False


def active_dispatch_table() -> DispatchTable | None:
    """The table tuned dispatch currently consults (resolving it if
    needed), or ``None`` when static defaults apply."""
    with _LOCK:
        return _resolve_locked(warn=False)


def _resolve_locked(warn: bool = True) -> DispatchTable | None:
    global _RESOLVED, _ATTEMPTED
    if _ATTEMPTED:
        return _RESOLVED
    _ATTEMPTED = True
    source = _SOURCE
    if source is None:
        env = os.environ.get(ENV_TABLE_PATH)
        if not env:
            if warn:
                warnings.warn(
                    "tuned=True but no dispatch table is installed "
                    "(install_dispatch_table(...) or $REPRO_DISPATCH_TABLE); "
                    "falling back to static defaults",
                    DispatchTableWarning, stacklevel=4)
            return None
        source = env
    if isinstance(source, DispatchTable):
        _RESOLVED = source
        return _RESOLVED
    try:
        _RESOLVED = load_dispatch_table(source)
    except DispatchTableError as exc:
        if warn:
            warnings.warn(
                f"dispatch table rejected ({exc}); falling back to static "
                f"defaults", DispatchTableWarning, stacklevel=4)
        _RESOLVED = None
    return _RESOLVED


def consult(A: Any, B: Any, cfg: "ExecutionConfig") -> "ExecutionConfig":
    """Fill ``cfg``'s unset dispatch fields from the installed table.

    Called by the engine for 2-D products whose resolved config has
    ``tuned=True`` and no explicit algorithm.  Only ``algorithm``,
    ``steps``, ``executor``, and ``randomized`` may be filled, each
    only while unset; ``lam`` is never touched (the §2.3 optimum
    depends on the chosen algorithm and resolves downstream exactly as
    it would for an explicit request — the bit-identity contract).
    Returns ``cfg`` unchanged when no table, no cell, or nothing to
    fill.
    """
    if cfg.algorithm is not None:
        return cfg  # explicit algorithm: the table never overrides it
    with _LOCK:
        table = _resolve_locked()
    if table is None:
        return cfg
    import numpy as np

    M, K = A.shape
    N = B.shape[1]
    dtype = np.result_type(A.dtype, B.dtype)
    cell = table.lookup(M, K, N, dtype, cfg.threads or 1)
    if cell is None or cell.algorithm is None:
        # Classical fallback: an unset algorithm already dispatches to
        # gemm, and grafting steps/executor onto it would be invalid.
        return cfg
    changes: dict[str, Any] = {"algorithm": cell.algorithm}
    if cfg.steps is None and cell.steps != 1:
        changes["steps"] = cell.steps
    if (cfg.executor is None and cell.executor is not None
            and cfg.gemm is None and cfg.fault is None):
        # executor='process' is incompatible with gemm/fault seams; an
        # explicit conflict means the user pinned those knobs, so the
        # tuned executor quietly yields.
        changes["executor"] = cell.executor
    if cell.randomized and cfg.randomized is None and cfg.shard is None:
        # randomized is incompatible with sharded out-of-core execution,
        # and an explicit randomized=False must win over the table.
        changes["randomized"] = True
    return cfg.replace(**changes)


def explain(M: int, K: int, N: int, dtype: Any = "float32",
            threads: int = 1) -> str:
    """Why would a ``tuned=True`` product of this shape run what it runs?

    Renders the consulted cell's full candidate ranking (the evidence
    stored by the tuner) or names the fallback in effect.
    """
    from repro.tune.table import cell_key

    key = cell_key(M, K, N, dtype, threads)
    table = active_dispatch_table()
    if table is None:
        return (f"{key}: no dispatch table installed -> static defaults "
                f"(classical gemm)")
    cell = table.cells.get(key)
    if cell is None:
        return (f"{key}: not covered by the installed table "
                f"({len(table)} cells) -> classical fallback")
    lines = [f"{key} ({table.source} costs):"]
    chosen_name = cell.algorithm
    if chosen_name is not None and cell.randomized:
        chosen_name += "+rand"  # evidence rows carry the suffix
    for name, steps, executor, cost in cell.candidates:
        label = name or "classical"
        if steps != 1:
            label += f" steps={steps}"
        if executor:
            label += f" executor={executor}"
        marker = " <- chosen" if (name, steps, executor) == (
            chosen_name, cell.steps, cell.executor) else ""
        lines.append(f"  {cost * 1e3:10.3f} ms  {label}{marker}")
    lines.append(
        f"  -> {cell.algorithm or 'classical'} is "
        f"{cell.speedup_vs_classical:.2f}x the classical baseline")
    return "\n".join(lines)
