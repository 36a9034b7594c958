"""Tests for the extension studies and the command-line interface."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.extensions import (
    format_precision_study,
    format_roofline_study,
    run_conv_study,
    run_precision_study,
    run_roofline_study,
)


class TestPrecisionStudy:
    def test_error_floor_scales_with_precision(self):
        points = run_precision_study(algorithms=("bini322",), n=64)
        by_dtype = {p.dtype: p for p in points}
        # error floor ~2**(-d/2): half > single > double
        assert by_dtype["float16"].error > by_dtype["float32"].error
        assert by_dtype["float32"].error > by_dtype["float64"].error

    def test_bounds_track_d(self):
        points = run_precision_study(algorithms=("bini322",), n=48)
        for p in points:
            assert p.bound == pytest.approx(2.0 ** (-p.d / 2))

    def test_errors_reasonable_vs_bounds(self):
        points = run_precision_study(algorithms=("bini322", "schonhage333"),
                                     n=64)
        for p in points:
            assert p.error <= 3 * p.bound

    def test_format(self):
        text = format_precision_study(run_precision_study(
            algorithms=("bini322",), n=32, dtypes=(np.float32,)))
        assert "float32" in text


class TestConvStudy:
    def test_apa_conv_trains_like_classical(self):
        result = run_conv_study(epochs=2, n_train=600, n_test=150)
        assert result.classical_accuracy > 0.5
        assert result.test_accuracy > result.classical_accuracy - 0.15

    def test_im2col_product_speedup_positive(self):
        result = run_conv_study(epochs=1, n_train=200, n_test=50)
        # the lowered VGG conv4 product is large -> the fast algorithm wins
        assert result.simulated_speedup_im2col > 0.05


class TestRooflineStudy:
    def test_study_covers_grid(self):
        points = run_roofline_study(dims=8192, threads_list=(1, 12),
                                    algorithms=("bini322", "smirnov444"))
        assert len(points) == 4

    def test_format(self):
        text = format_roofline_study(run_roofline_study(
            dims=4096, threads_list=(1,), algorithms=("bini322",)))
        assert "regime" in text and "bini322" in text


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCLI:
    def test_list(self):
        code, text = run_cli("list")
        assert code == 0
        assert "bini322" in text and "smirnov555" in text
        assert "surrogate" in text and "exact" in text

    def test_verify_real(self):
        code, text = run_cli("verify", "bini322")
        assert code == 0
        assert "sigma=1" in text

    def test_verify_surrogate_reports(self):
        code, text = run_cli("verify", "smirnov444")
        assert code == 1
        assert "surrogate" in text

    def test_table1(self):
        code, text = run_cli("table1")
        assert code == 0
        assert "<5,5,5>" in text

    def test_fig2(self):
        code, text = run_cli("fig", "2")
        assert code == 0
        assert "r=10" in text

    def test_fig3_with_threads(self):
        code, text = run_cli("fig", "3", "--threads", "6")
        assert code == 0
        assert "6 threads" in text

    def test_matmul(self):
        code, text = run_cli("matmul", "bini322", "--n", "64")
        assert code == 0
        assert "rel_error" in text

    def test_matmul_two_steps(self):
        code, text = run_cli("matmul", "strassen222", "--n", "40",
                             "--steps", "2")
        assert code == 0

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "alg.json")
        code, text = run_cli("save", "bini322", path)
        assert code == 0 and "wrote" in text
        code, text = run_cli("load", path)
        assert code == 0 and "verified" in text

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            run_cli("verify", "nope")

    def test_fig4_structure(self):
        code, text = run_cli("fig", "4")
        assert code == 0 and "784 -> 300" in text

    def test_info_command(self):
        code, text = run_cli("info", "winograd222")
        assert code == 0
        assert "15 with CSE" in text

    def test_bad_figure_number_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("fig", "8")
