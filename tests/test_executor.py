"""Tests for the real threaded executor (``engine.matmul(threads=...)``).

With ``threads=1`` the engine runs the sequential plan unless
``retries``/``timeout``/``check_finite``/``schedule``/``report`` ask
for the scheduled runner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.engine import default_engine
from repro.parallel.executor import ExecutionReport
from repro.parallel.strategy import build_schedule
from repro.parallel.tracing import render_execution_gantt
from repro.robustness.inject import FaultSpec, faulty_gemm
from tests._reference_bilinear import reference_matmul

ENGINE = default_engine()


class TestNumericalEquivalence:
    @pytest.mark.parametrize("strategy", ["hybrid", "bfs", "dfs"])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_exact_algorithm_all_strategies(self, strategy, threads, rng):
        A = rng.random((64, 48)).astype(np.float32)
        B = rng.random((48, 40)).astype(np.float32)
        # The report keeps threads=1 on the threaded runner, so the
        # strategy's schedule is what runs.
        report = ExecutionReport()
        C = ENGINE.matmul(A, B, get_algorithm("strassen222"),
                          threads=threads, strategy=strategy, report=report)
        assert np.allclose(C, A @ B, rtol=1e-5, atol=1e-5)
        assert len(report.jobs) == 7

    def test_matches_reference_bitwise_for_exact(self, rng):
        """Threading changes only *where* products run, not the arithmetic:
        for an exact algorithm the threaded result equals the reference
        recursion exactly, cached or not."""
        A = rng.random((32, 32))
        B = rng.random((32, 32))
        alg = get_algorithm("strassen222")
        expected = reference_matmul(A, B, alg)
        assert np.array_equal(
            ENGINE.matmul(A, B, alg, threads=4), expected)
        assert np.array_equal(
            ENGINE.matmul(A, B, alg, threads=4, plan_cache=False),
            expected)

    def test_apa_algorithm_error_in_bound(self, rng):
        alg = get_algorithm("bini322")
        A = rng.random((90, 90)).astype(np.float32)
        B = rng.random((90, 90)).astype(np.float32)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        C = ENGINE.matmul(A, B, alg, threads=3)
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel < 8 * alg.error_bound(d=23)

    def test_ragged_shapes(self, rng):
        A = rng.random((37, 23))
        B = rng.random((23, 19))
        C = ENGINE.matmul(A, B, get_algorithm("strassen444"), threads=2)
        assert C.shape == (37, 19)
        assert np.allclose(C, A @ B, rtol=1e-9)


class TestPlumbing:
    def test_surrogate_rejected(self, rng):
        with pytest.raises(ValueError, match="surrogate"):
            ENGINE.matmul(rng.random((8, 8)), rng.random((8, 8)),
                          get_algorithm("smirnov444"), threads=2)

    def test_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            ENGINE.matmul(rng.random((8, 7)), rng.random((8, 8)),
                          get_algorithm("strassen222"), threads=2)

    def test_bad_threads(self, rng):
        with pytest.raises(ValueError):
            ENGINE.matmul(rng.random((8, 8)), rng.random((8, 8)),
                          get_algorithm("strassen222"), threads=0)

    def test_custom_schedule(self, rng):
        alg = get_algorithm("strassen222")
        sched = build_schedule(alg.rank, 2, "bfs")
        A = rng.random((16, 16))
        B = rng.random((16, 16))
        C = ENGINE.matmul(A, B, alg, threads=2, schedule=sched)
        assert np.allclose(C, A @ B, rtol=1e-9)

    def test_custom_gemm_counts_products(self, rng):
        calls = []

        def spy(X, Y):
            calls.append(1)
            return X @ Y

        report = ExecutionReport()
        ENGINE.matmul(rng.random((8, 8)), rng.random((8, 8)),
                      get_algorithm("strassen222"), threads=1, gemm=spy,
                      report=report)
        assert len(calls) == 7
        assert len(report.jobs) == 7  # ran on the threaded runner

    def test_bad_retries_and_timeout(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        alg = get_algorithm("strassen222")
        with pytest.raises(ValueError, match="retries"):
            ENGINE.matmul(A, B, alg, threads=1, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            ENGINE.matmul(A, B, alg, threads=2, timeout=0.0)


class TestFailureRecovery:
    """The guarded-execution contract: a failed sub-multiplication costs
    its speedup, never the whole product."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_raising_worker_retries_then_succeeds(self, threads, rng):
        # mult 2's first attempt (gemm call index 2) raises; the retry is
        # the next call index and succeeds.
        gemm = faulty_gemm(FaultSpec(kind="raise", calls=(2,)))
        report = ExecutionReport()
        A, B = rng.random((32, 32)), rng.random((32, 32))
        C = ENGINE.matmul(A, B, get_algorithm("strassen222"),
                          threads=threads, gemm=gemm, retries=1,
                          report=report)
        assert np.allclose(C, A @ B, rtol=1e-9)
        statuses = [j.status for j in report.jobs]
        assert statuses.count("retried") == 1
        assert statuses.count("ok") == 6
        assert report.events.count("worker-error") == 1
        assert report.events.count("retry") == 1
        if threads == 1:  # sequential call order is deterministic
            assert [j.mult for j in report.failed_jobs] == [2]

    def test_persistent_raise_falls_back_per_job(self, rng):
        # threads=1 runs mults in order, so gemm call indices are
        # deterministic: mult 4's first attempt is call 4, its retry is
        # call 5 — both raise, exhausting the budget for that job only.
        gemm = faulty_gemm(FaultSpec(kind="raise", calls=(4, 5)))
        report = ExecutionReport()
        A, B = rng.random((24, 24)), rng.random((24, 24))
        C = ENGINE.matmul(A, B, get_algorithm("strassen222"),
                          threads=1, gemm=gemm, retries=1,
                          report=report)
        assert np.allclose(C, A @ B, rtol=1e-9)
        statuses = {j.mult: j.status for j in report.jobs}
        assert statuses[4] == "fallback"
        assert report.events.count("job-fallback") == 1
        failed = report.failed_jobs
        assert len(failed) == 1 and failed[0].attempts == 2
        assert "InjectedFault" in failed[0].error

    def test_all_workers_failing_still_returns_classical_result(self, rng):
        gemm = faulty_gemm(FaultSpec(kind="raise", probability=1.0))
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        C = ENGINE.matmul(A, B, get_algorithm("strassen222"),
                          threads=2, gemm=gemm, report=report)
        assert np.allclose(C, A @ B, rtol=1e-9)
        assert all(j.status == "fallback" for j in report.jobs)
        assert report.events.count("job-fallback") == 7

    def test_nan_block_detected_with_check_finite(self, rng):
        gemm = faulty_gemm(FaultSpec(kind="nan", calls=(3,)))
        report = ExecutionReport()
        A, B = rng.random((20, 20)), rng.random((20, 20))
        C = ENGINE.matmul(A, B, get_algorithm("strassen222"),
                          threads=1, gemm=gemm, check_finite=True,
                          report=report)
        assert np.isfinite(C).all()
        assert np.allclose(C, A @ B, rtol=1e-9)
        assert report.events.count("worker-nonfinite") == 1
        statuses = {j.mult: j.status for j in report.jobs}
        assert statuses[3] == "fallback"

    def test_nan_block_propagates_without_check_finite(self, rng):
        gemm = faulty_gemm(FaultSpec(kind="nan", calls=(3,)))
        A, B = rng.random((20, 20)), rng.random((20, 20))
        report = ExecutionReport()
        C = ENGINE.matmul(A, B, get_algorithm("strassen222"),
                          threads=1, gemm=gemm, check_finite=False,
                          report=report)
        assert np.isnan(C).any()  # silent by default — opt-in detection
        # The threaded runner saw the block and let it through.
        assert len(report.jobs) == 7
        assert all(j.status == "ok" for j in report.jobs)
        assert report.events.count("worker-nonfinite") == 0

    def test_stalled_worker_times_out_and_is_rescued(self, rng):
        gemm = faulty_gemm(FaultSpec(kind="stall", calls=(0,),
                                     stall_seconds=1.5))
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        C = ENGINE.matmul(A, B, get_algorithm("strassen222"),
                          threads=2, gemm=gemm, timeout=0.2,
                          report=report)
        assert np.allclose(C, A @ B, rtol=1e-9)
        statuses = {j.mult: j.status for j in report.jobs}
        assert statuses[0] == "timeout-fallback"
        assert report.events.count("worker-timeout") == 1

    def test_apa_algorithm_recovery_stays_in_bound(self, rng):
        """Recovered blocks are *classical* — the overall error can only
        improve, staying within the APA bound."""
        alg = get_algorithm("bini322")
        gemm = faulty_gemm(FaultSpec(kind="raise", calls=(2,), period=10))
        A = rng.random((60, 60)).astype(np.float32)
        B = rng.random((60, 60)).astype(np.float32)
        C = ENGINE.matmul(A, B, alg, threads=2, gemm=gemm)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel < 8 * alg.error_bound(d=23)


class TestExecutionGantt:
    def test_renders_statuses_and_events(self, rng):
        gemm = faulty_gemm(FaultSpec(kind="nan", calls=(3,)))
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        ENGINE.matmul(A, B, get_algorithm("strassen222"), threads=1,
                      gemm=gemm, check_finite=True, report=report)
        art = render_execution_gantt(report)
        assert "1 recovered" in art
        assert "M4" in art and "fallback" in art
        assert "!" in art  # the fallback glyph
        assert "worker-nonfinite" in art

    def test_healthy_run_renders_clean(self, rng):
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        ENGINE.matmul(A, B, get_algorithm("strassen222"), threads=2,
                      report=report)
        art = render_execution_gantt(report)
        assert "all healthy" in art
        assert "#" in art and "!" not in art

    def test_empty_report(self):
        assert render_execution_gantt(ExecutionReport()) == "(no jobs recorded)"

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_execution_gantt(ExecutionReport(), width=5)
