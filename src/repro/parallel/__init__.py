"""Parallelization of fast matrix multiplication (paper §3).

- :mod:`repro.parallel.strategy` — the hybrid / BFS / DFS assignments of
  the ``r`` sub-multiplications to ``p`` threads (Fig 2);
- :mod:`repro.parallel.executor` — a real thread-pool executor that runs
  a schedule with NumPy gemm (NumPy releases the GIL inside BLAS, so this
  is a faithful implementation on real multicore hosts); reached as
  ``engine.matmul(..., threads=t)``;
- :mod:`repro.parallel.procpool` — the process-backed executor: the same
  schedules on a persistent worker-process pool with operands staged in
  shared memory (:mod:`repro.parallel.shm`), for the combination-bound
  regime where the GIL throttles the thread path; reached as
  ``engine.matmul(..., executor="process", threads=w)``;
- :mod:`repro.parallel.simulator` — predicted timings of the same
  schedules on a :class:`~repro.machine.spec.MachineSpec` (used to
  regenerate the paper's performance figures on hosts where wall-clock
  measurement is meaningless — see DESIGN.md §2).
"""

from repro.parallel.strategy import Schedule, build_schedule, STRATEGIES
from repro.parallel.simulator import (
    SimulatedTiming,
    simulate_classical,
    simulate_fast,
    effective_gflops,
)
from repro.parallel.pool import get_pool, pool_stats, shutdown_pool
from repro.parallel.procpool import (
    get_process_pool,
    process_pool_stats,
    shutdown_process_pool,
)
from repro.parallel.shm import shm_stats, shutdown_segments

__all__ = [
    "Schedule",
    "build_schedule",
    "STRATEGIES",
    "SimulatedTiming",
    "simulate_classical",
    "simulate_fast",
    "effective_gflops",
    "get_pool",
    "pool_stats",
    "shutdown_pool",
    "get_process_pool",
    "process_pool_stats",
    "shutdown_process_pool",
    "shm_stats",
    "shutdown_segments",
]
