"""Tests for the process-backed executor (shared-memory block parallelism).

The contract under test: ``executor='process'`` is *bit-identical* to
the reference recursion for every real catalog algorithm — staging
blocks in shared memory and running the §3.2 schedule on real worker
processes changes only where the arithmetic happens, never its result.
"""

from __future__ import annotations

import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.core.config import execution_context
from repro.core.engine import ExecutionEngine, default_engine
from repro.parallel.executor import ExecutionReport
from repro.parallel.procpool import process_pool_stats, shutdown_process_pool
from repro.parallel.shm import shm_stats
from tests._reference_bilinear import reference_matmul

ENGINE = default_engine()


class TestBitIdentity:
    def test_every_real_algorithm_matches_reference(self, real_algorithm,
                                                    rng):
        """Odd, non-divisible dims force padding; results must still be
        bit-identical to the reference recursion, cached or not."""
        A = rng.random((13, 11))
        B = rng.random((11, 9))
        expected = reference_matmul(A, B, real_algorithm)
        C = ENGINE.matmul(A, B, real_algorithm, executor="process", threads=2)
        assert np.array_equal(C, expected)
        C = ENGINE.matmul(A, B, real_algorithm, executor="process", threads=2,
                          plan_cache=False)
        assert np.array_equal(C, expected)

    @pytest.mark.parametrize("strategy", ["hybrid", "bfs", "dfs"])
    def test_all_strategies(self, strategy, rng):
        alg = get_algorithm("strassen222")
        A = rng.random((32, 32)).astype(np.float32)
        B = rng.random((32, 32)).astype(np.float32)
        C = ENGINE.matmul(A, B, alg, executor="process", threads=2,
                          strategy=strategy)
        assert np.array_equal(C, apa_matmul(A, B, alg))

    def test_multi_step_recursion(self, rng):
        alg = get_algorithm("bini322")
        A = rng.random((36, 36)).astype(np.float32)
        B = rng.random((36, 36)).astype(np.float32)
        C = ENGINE.matmul(A, B, alg, executor="process", threads=2, steps=2)
        assert np.array_equal(C, apa_matmul(A, B, alg, steps=2))

    def test_execution_context_routes_to_process(self, rng):
        alg = get_algorithm("strassen222")
        A, B = rng.random((24, 24)), rng.random((24, 24))
        with execution_context(executor="process", threads=2):
            C = default_engine().matmul(A, B, alg)
        assert np.array_equal(C, apa_matmul(A, B, alg))

    def test_guarded_escalation_matches_thread_executor(self, rng):
        """A poisonous lambda trips the guard identically under both
        executors: the escalated (classical) result is bit-equal."""
        A = rng.random((24, 24)).astype(np.float32)
        B = rng.random((24, 24)).astype(np.float32)
        # Private engines: each guard starts with fresh breaker state.
        proc = ExecutionEngine().backend(algorithm="bini322", guarded=True)
        with execution_context(executor="process", threads=2, lam=1e300):
            Cp = proc.matmul(A, B)
        thread = ExecutionEngine().backend(algorithm="bini322", guarded=True)
        with execution_context(threads=2, lam=1e300):
            Ct = thread.matmul(A, B)
        assert proc.violations == 1 and thread.violations == 1
        assert np.array_equal(Cp, Ct)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(Cp - ref) / np.linalg.norm(ref)
        assert rel < 1e-2  # escalation produced a sane product again

    def test_batched_loop_mode_under_process_executor(self, rng):
        alg = get_algorithm("strassen222")
        A = rng.random((3, 16, 16))
        B = rng.random((3, 16, 16))
        with execution_context(executor="process", threads=2):
            C = default_engine().matmul(A, B, alg, batch_mode="loop")
        ref = np.stack([apa_matmul(A[i], B[i], alg) for i in range(3)])
        assert np.array_equal(C, ref)

    @pytest.mark.parametrize("runner", [{}, {"executor": "process"}],
                             ids=["thread", "process"])
    def test_precision_d_is_honoured(self, runner, rng):
        """``d`` picks the default lambda on the scheduled runners too."""
        alg = get_algorithm("bini322")
        A = rng.random((36, 36)).astype(np.float32)
        B = rng.random((36, 36)).astype(np.float32)
        C = ENGINE.matmul(A, B, alg, d=10, threads=2, **runner)
        assert np.array_equal(C, ENGINE.matmul(A, B, alg, d=10))
        assert not np.array_equal(C, ENGINE.matmul(A, B, alg, threads=2,
                                                   **runner))

    def test_report_populated(self, rng):
        alg = get_algorithm("strassen222")
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        ENGINE.matmul(A, B, alg, executor="process", threads=2, report=report)
        assert len(report.jobs) == alg.rank
        assert all(j.status == "ok" for j in report.jobs)


class TestPlumbing:
    def test_surrogate_rejected(self, rng):
        with pytest.raises(ValueError, match="surrogate"):
            ENGINE.matmul(rng.random((8, 8)), rng.random((8, 8)),
                          get_algorithm("smirnov444"), executor="process",
                          threads=2)

    def test_bad_shapes_and_workers(self, rng):
        alg = get_algorithm("strassen222")
        with pytest.raises(ValueError):
            ENGINE.matmul(rng.random((8, 7)), rng.random((8, 8)),
                          alg, executor="process", threads=2)
        with pytest.raises(ValueError):
            ENGINE.matmul(rng.random((8, 8)), rng.random((8, 8)),
                          alg, executor="process", threads=0)

    def test_gemm_seam_rejected(self, rng):
        """A custom gemm closure cannot cross the process boundary."""
        alg = get_algorithm("strassen222")
        with pytest.raises(ValueError, match="thread-executor only"):
            default_engine().matmul(rng.random((8, 8)), rng.random((8, 8)),
                                    alg, executor="process", threads=2,
                                    gemm=np.matmul)

    def test_nonstationary_rejected(self, rng):
        algs = [get_algorithm("strassen222"), get_algorithm("bini322")]
        with pytest.raises(ValueError, match="non-stationary"):
            default_engine().matmul(rng.random((12, 12)),
                                    rng.random((12, 12)), algs,
                                    executor="process", threads=2)

    def test_pool_stats_and_plan_stats_exposed(self, rng):
        alg = get_algorithm("strassen222")
        ENGINE.matmul(rng.random((8, 8)), rng.random((8, 8)), alg,
                      executor="process", threads=2)
        stats = process_pool_stats()
        assert stats["workers"] == 2 and stats["creates"] >= 1
        seg = shm_stats()
        assert seg["creates"] >= 3  # A, B, OUT at minimum
        engine_stats = default_engine().plan_stats()
        assert "process_pool" in engine_stats and "shm" in engine_stats


class TestFailureRecovery:
    """Crash/fault ladder on real processes: retry with backoff, then a
    classical fallback — never a wrong answer."""

    def test_raise_once_is_retried(self, rng, monkeypatch):
        monkeypatch.setattr("repro.parallel.procpool._TEST_INJECT",
                            "raise-once")
        alg = get_algorithm("strassen222")
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        C = ENGINE.matmul(A, B, alg, executor="process", threads=2,
                          retries=1, report=report)
        assert np.array_equal(C, apa_matmul(A, B, alg))
        assert {j.status for j in report.jobs} == {"retried"}
        assert report.backoff_delays  # workers reported their sleeps

    def test_one_time_fault_gives_the_same_events_on_both_executors(
            self, rng, monkeypatch):
        """A gemm that fails once per job leaves the same per-attempt
        events in the report whether the jobs run on threads or on
        worker processes."""
        alg = get_algorithm("strassen222")
        A, B = rng.random((16, 16)), rng.random((16, 16))
        failed: set[bytes] = set()
        lock = threading.Lock()

        def fail_first_attempt(S, T):
            key = S.tobytes() + T.tobytes()
            with lock:
                first = key not in failed
                failed.add(key)
            if first:
                raise RuntimeError("injected gemm fault")
            return np.matmul(S, T)

        kinds = ("worker-error", "backoff", "retry", "job-fallback")
        thread = ExecutionReport()
        ENGINE.matmul(A, B, alg, threads=2, retries=1,
                      gemm=fail_first_attempt, report=thread)
        monkeypatch.setattr("repro.parallel.procpool._TEST_INJECT",
                            "raise-once")
        proc = ExecutionReport()
        ENGINE.matmul(A, B, alg, executor="process", threads=2, retries=1,
                      report=proc)
        counts = [{k: r.events.count(k) for k in kinds}
                  for r in (thread, proc)]
        assert counts[0] == counts[1] == {
            "worker-error": alg.rank, "backoff": alg.rank,
            "retry": alg.rank, "job-fallback": 0}
        assert ({j.status for j in thread.jobs}
                == {j.status for j in proc.jobs} == {"retried"})

    def test_persistent_raise_falls_back_in_worker(self, rng, monkeypatch):
        monkeypatch.setattr("repro.parallel.procpool._TEST_INJECT", "raise")
        alg = get_algorithm("strassen222")
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        C = ENGINE.matmul(A, B, alg, executor="process", threads=2,
                          retries=1, report=report)
        # Worker-side classical fallback is still numerically exact for
        # an exact algorithm (lam plays no role in S/T for strassen).
        assert np.array_equal(C, apa_matmul(A, B, alg))
        assert {j.status for j in report.jobs} == {"fallback"}
        assert report.events.count("job-fallback") == alg.rank

    def test_nan_block_detected_with_check_finite(self, rng, monkeypatch):
        monkeypatch.setattr("repro.parallel.procpool._TEST_INJECT", "nan")
        alg = get_algorithm("strassen222")
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        C = ENGINE.matmul(A, B, alg, executor="process", threads=2,
                          check_finite=True, report=report)
        assert np.isfinite(C).all()
        assert np.array_equal(C, apa_matmul(A, B, alg))
        assert {j.status for j in report.jobs} == {"fallback"}

    def test_killed_worker_respawns_and_recovers(self, rng, monkeypatch):
        """os._exit(17) in the worker breaks the pool; the parent backs
        off, respawns, resubmits (the resubmission carries no inject),
        and the result is still bit-identical."""
        monkeypatch.setattr("repro.parallel.procpool._TEST_INJECT", "exit")
        alg = get_algorithm("strassen222")
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        C = ENGINE.matmul(A, B, alg, executor="process", threads=2,
                          retries=1, report=report)
        assert np.array_equal(C, apa_matmul(A, B, alg))
        kinds = {e.kind for e in report.events}
        assert "worker-crash" in kinds
        assert process_pool_stats()["restarts"] >= 1
        assert all(j.status in ("retried", "fallback")
                   for j in report.jobs)


class TestCleanup:
    def test_no_resource_warnings_or_leaked_segments(self):
        """A full process-executor run under ``-W error::ResourceWarning``
        must exit cleanly: no leaked executor threads, no leaked
        semaphores, no shared-memory segments left for the resource
        tracker to complain about."""
        code = (
            "import numpy as np\n"
            "from repro.algorithms.catalog import get_algorithm\n"
            "from repro.core.engine import default_engine\n"
            "rng = np.random.default_rng(0)\n"
            "A, B = rng.random((24, 24)), rng.random((24, 24))\n"
            "C = default_engine().matmul(A, B, get_algorithm('strassen222'),\n"
            "                            executor='process', threads=2)\n"
            "assert C.shape == (24, 24)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr
        assert "leaked" not in proc.stderr

    def test_shutdown_is_idempotent_and_pool_rebuilds(self, rng):
        shutdown_process_pool()
        shutdown_process_pool()
        alg = get_algorithm("strassen222")
        A, B = rng.random((8, 8)), rng.random((8, 8))
        C = ENGINE.matmul(A, B, alg, executor="process", threads=2)
        assert np.array_equal(C, apa_matmul(A, B, alg))
