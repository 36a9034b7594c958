"""Tests for batched execution and the hardware-sensitivity study."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.core.engine import default_engine
from repro.experiments.hardware import (
    format_hardware_sensitivity,
    high_bandwidth_machine,
    modern_server,
    run_hardware_sensitivity,
)
from repro.machine.spec import paper_machine
from tests._reference_bilinear import reference_matmul

ENGINE = default_engine()


class TestBatched:
    """3-D operands through ``engine.matmul`` (``batch_mode=``)."""

    @pytest.mark.parametrize("mode", ["loop", "stacked"])
    def test_matches_per_item_execution(self, mode, rng):
        alg = get_algorithm("bini322")
        A = rng.random((4, 30, 26)).astype(np.float32)
        B = rng.random((4, 26, 18)).astype(np.float32)
        batched = ENGINE.matmul(A, B, alg, batch_mode=mode)
        for i in range(4):
            single = apa_matmul(A[i], B[i], alg)
            assert np.array_equal(batched[i], single)
            assert np.array_equal(batched[i],
                                  reference_matmul(A[i], B[i], alg))

    def test_exact_algorithm_correct(self, rng):
        alg = get_algorithm("strassen444")
        A = rng.random((3, 17, 21))
        B = rng.random((3, 21, 13))
        C = ENGINE.matmul(A, B, alg)
        assert np.allclose(C, A @ B, rtol=1e-9, atol=1e-10)

    def test_surrogate_dispatch(self, rng):
        alg = get_algorithm("smirnov444")
        A = rng.random((3, 32, 32)).astype(np.float32)
        B = rng.random((3, 32, 32)).astype(np.float32)
        C = ENGINE.matmul(A, B, alg)
        rel = np.linalg.norm(C - A @ B) / np.linalg.norm(A @ B)
        assert 0 < rel < alg.error_bound(23)

    def test_empty_batch(self, rng):
        alg = get_algorithm("strassen222")
        C = ENGINE.matmul(np.zeros((0, 8, 8)), np.zeros((0, 8, 8)), alg)
        assert C.shape == (0, 8, 8)

    def test_validation(self, rng):
        alg = get_algorithm("strassen222")
        with pytest.raises(ValueError, match="3-D"):
            ENGINE.matmul(rng.random((2, 4, 4)), rng.random((4, 4)), alg)
        with pytest.raises(ValueError, match="batch sizes"):
            ENGINE.matmul(rng.random((2, 4, 4)), rng.random((3, 4, 4)), alg)
        with pytest.raises(ValueError, match="inner dims"):
            ENGINE.matmul(rng.random((2, 4, 5)), rng.random((2, 4, 4)), alg)
        with pytest.raises(ValueError, match="mode"):
            ENGINE.matmul(rng.random((2, 4, 4)), rng.random((2, 4, 4)),
                          alg, batch_mode="warp")

    def test_inputs_not_mutated(self, rng):
        alg = get_algorithm("bini322")
        A = rng.random((2, 12, 12)).astype(np.float32)
        B = rng.random((2, 12, 12)).astype(np.float32)
        A0, B0 = A.copy(), B.copy()
        ENGINE.matmul(A, B, alg, batch_mode="stacked")
        assert np.array_equal(A, A0) and np.array_equal(B, B0)


class TestHardwareSensitivity:
    def test_presets_valid(self):
        for spec in (paper_machine(), modern_server(), high_bandwidth_machine()):
            assert spec.total_cores >= 1
            assert spec.peak_flops(1) > 0

    def test_high_bandwidth_beats_paper_machine(self):
        """The paper's §6 GPU argument: more bandwidth -> more of the
        ideal mnk/r speedup realized."""
        points = run_hardware_sensitivity(algorithms=("smirnov444",))
        by = {p.machine: p.speedup for p in points}
        assert by["high-bandwidth"] > by["xeon-e5-2620"]

    def test_compute_rich_machine_hurts_dense_algorithms(self):
        """On a flops-rich/bandwidth-poor balance the addition-heavy
        <4,4,4> loses most of its advantage; the leaner <4,4,2> keeps
        more of it."""
        points = run_hardware_sensitivity(
            algorithms=("smirnov444", "smirnov442"))
        by = {(p.machine, p.algorithm): p.speedup for p in points}
        assert (by[("modern-avx512", "smirnov444")]
                < by[("xeon-e5-2620", "smirnov444")] - 0.10)
        assert (by[("modern-avx512", "smirnov442")]
                > by[("modern-avx512", "smirnov444")])

    def test_format(self):
        text = format_hardware_sensitivity(
            run_hardware_sensitivity(algorithms=("bini322",)))
        assert "flops/byte" in text and "bini322" in text
