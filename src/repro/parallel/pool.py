"""Process-wide persistent worker pool for the APA hot path.

Creating a :class:`~concurrent.futures.ThreadPoolExecutor` costs thread
spawns and teardown joins; the seed executor paid that on *every*
threaded call.  A training loop issues thousands of
identically-shaped calls, so the pool here is created lazily on first
use, reused across calls, and resized only when a caller asks for a
different ``threads`` count (the common case — one thread count per
run — never rebuilds it).

All module state is guarded by ``_LOCK``: ``get_pool`` may be called
concurrently from several orchestrating threads, and the ``repro lint``
PAR001 rule statically checks that every rebind of this module's globals
happens under the lock.

The pool is intentionally *not* used for nested parallelism: inner
recursion levels of a threaded call run sequentially inside each worker
(paper §3.2 parallelizes only the top-level sub-products), so a worker
never calls :func:`get_pool` itself — resizing from within a worker
would deadlock on the shutdown join.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import tracer as _obs_tracer

__all__ = ["get_pool", "shutdown_pool", "pool_stats"]

_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None
_POOL_THREADS: int = 0
_CREATES: int = 0
_RESIZES: int = 0


def get_pool(threads: int) -> ThreadPoolExecutor:
    """The shared executor, created lazily and resized only on change.

    Callers must *not* shut the returned pool down (no ``with`` block) —
    its lifetime is the process, ended by :func:`shutdown_pool` or the
    atexit hook.
    """
    global _POOL, _POOL_THREADS, _CREATES, _RESIZES
    if threads < 1:
        raise ValueError("threads must be >= 1")
    with _LOCK:
        if _POOL is not None and _POOL_THREADS == threads:
            return _POOL
        old = _POOL
        _POOL = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-apa"
        )
        if old is not None:
            _RESIZES += 1
        _CREATES += 1
        _POOL_THREADS = threads
        pool = _POOL
    # Drain the old pool outside the lock: its jobs may themselves need
    # unrelated module state, and nothing below touches the globals.
    if old is not None:
        old.shutdown(wait=True)
    tracer = _obs_tracer.ACTIVE
    if tracer is not None:
        tracer.instant("pool-resize" if old is not None else "pool-create",
                       cat="pool", threads=threads)
    return pool


def shutdown_pool(wait: bool = True) -> None:
    """Tear the shared pool down (tests and interpreter exit)."""
    global _POOL, _POOL_THREADS
    with _LOCK:
        pool = _POOL
        _POOL = None
        _POOL_THREADS = 0
    if pool is not None:
        pool.shutdown(wait=wait)


def pool_stats() -> dict[str, int]:
    """Lifetime counters: current size, pool creations, resizes."""
    with _LOCK:
        return {
            "threads": _POOL_THREADS,
            "creates": _CREATES,
            "resizes": _RESIZES,
        }


# ``wait=True``: the seed registered ``wait=False``, which raced
# interpreter teardown — worker threads could still be alive while
# module globals were being cleared, and their executor queues leaked
# past exit (a ResourceWarning under ``-W error``, and the occasional
# "leaked semaphore" stderr noise from the mp machinery).  Joining is
# cheap here: by exit time the queue is idle, so the join returns as
# soon as each worker observes the shutdown sentinel.
atexit.register(shutdown_pool, wait=True)
