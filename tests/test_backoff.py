"""Decorrelated-jitter backoff: determinism, bounds, executor wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.engine import default_engine
from repro.parallel.backoff import BackoffPolicy, BackoffSequence
from repro.parallel.executor import DEFAULT_BACKOFF, ExecutionReport
from repro.robustness.inject import FaultSpec, faulty_gemm

ENGINE = default_engine()


class TestBackoffPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0.0},
            {"base": -1.0},
            {"base": 0.2, "cap": 0.1},
            {"multiplier": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_delays_within_bounds(self):
        policy = BackoffPolicy(base=0.01, cap=0.08, multiplier=3.0, seed=7)
        seq = policy.sequence(key=3)
        delays = [seq.next_delay() for _ in range(50)]
        assert all(policy.base <= d <= policy.cap for d in delays)
        assert seq.delays == delays  # every draw is recorded

    def test_same_seed_and_key_reproduce_exactly(self):
        policy = BackoffPolicy(seed=11)
        a = [policy.sequence(key=4).next_delay() for _ in range(1)]
        s1, s2 = policy.sequence(key=4), policy.sequence(key=4)
        assert [s1.next_delay() for _ in range(10)] == \
               [s2.next_delay() for _ in range(10)]
        assert a[0] == s1.delays[0]

    def test_different_keys_decorrelate(self):
        # The first draw is degenerate (uniform on [base, base]); the
        # per-key streams diverge from the second draw on.
        policy = BackoffPolicy(seed=11)
        s1, s2 = policy.sequence(key=0), policy.sequence(key=1)
        d1 = [s1.next_delay() for _ in range(3)]
        d2 = [s2.next_delay() for _ in range(3)]
        assert d1[0] == d2[0] == policy.base
        assert d1[1:] != d2[1:]

    def test_expected_delay_grows_toward_cap(self):
        """Decorrelated jitter: the *ceiling* of each draw grows
        geometrically, so later delays are on average larger."""
        policy = BackoffPolicy(base=0.001, cap=1.0, multiplier=3.0, seed=0)
        firsts, fifths = [], []
        for key in range(200):
            seq = policy.sequence(key=key)
            draws = [seq.next_delay() for _ in range(5)]
            firsts.append(draws[0])
            fifths.append(draws[4])
        assert np.mean(fifths) > 5 * np.mean(firsts)

    def test_wait_uses_injected_sleep(self):
        slept: list[float] = []
        policy = BackoffPolicy(base=0.01, cap=0.05, sleep=slept.append)
        seq = policy.sequence()
        d1, d2 = seq.wait(), seq.wait()
        assert slept == [d1, d2] == seq.delays

    def test_sequence_is_stateful_not_shared(self):
        policy = BackoffPolicy()
        s1, s2 = policy.sequence(key=0), policy.sequence(key=0)
        s1.next_delay()
        assert isinstance(s2, BackoffSequence) and s2.delays == []


class TestExecutorBackoff:
    def test_retries_sleep_and_record_delays(self, rng):
        """A transient raise triggers retry; the report captures the
        exact (fake-clock) backoff schedule and the log the events."""
        slept: list[float] = []
        report = ExecutionReport(
            backoff=BackoffPolicy(base=0.005, cap=0.020, seed=3,
                                  sleep=slept.append))
        gemm = faulty_gemm(FaultSpec(kind="raise", calls=(2, 12),
                                     period=None))
        A = rng.random((32, 32)).astype(np.float32)
        B = rng.random((32, 32)).astype(np.float32)
        C = ENGINE.matmul(A, B, get_algorithm("bini322"), threads=1,
                          retries=1, gemm=gemm, report=report)
        assert np.isfinite(C).all()
        assert report.backoff_delays == slept
        assert len(report.backoff_delays) >= 1
        assert all(0.005 <= d <= 0.020 for d in report.backoff_delays)
        backoffs = [ev for ev in report.events if ev.kind == "backoff"]
        assert len(backoffs) == len(report.backoff_delays)

    def test_default_policy_used_without_report_override(self):
        assert DEFAULT_BACKOFF.base > 0
        assert ExecutionReport().backoff is None  # falls back to default

    def test_clean_run_records_no_delays(self, rng):
        report = ExecutionReport()
        A, B = rng.random((16, 16)), rng.random((16, 16))
        ENGINE.matmul(A, B, get_algorithm("strassen222"), threads=2,
                      retries=2, report=report)
        assert report.backoff_delays == []
