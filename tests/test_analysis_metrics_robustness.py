"""Tests for algorithm analytics, NN metrics, Fig 4, and failure injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.analysis import analyze_algorithm, catalog_report
from repro.algorithms.catalog import get_algorithm
from repro.core.lam import optimal_lambda
from repro.core.surrogate import surrogate_relative_error
from repro.experiments.fig4_structure import format_fig4, run_fig4
from repro.experiments.robustness import (
    format_error_tolerance_study,
    run_bad_lambda_study,
    run_error_tolerance_study,
)
from repro.nn.metrics import confusion_matrix, per_class_accuracy, top_k_accuracy


class TestAnalysis:
    def test_report_fields_real(self):
        r = analyze_algorithm("winograd222", crossover=False)
        assert r.signature == "<2,2,2>:7"
        assert r.additions_naive == 24
        assert r.additions_cse == 15
        assert not r.is_surrogate

    def test_report_fields_surrogate(self):
        r = analyze_algorithm("smirnov444", crossover=False)
        assert r.is_surrogate
        assert r.additions_cse is None
        assert r.phi == 3

    def test_crossover_included_when_requested(self):
        r = analyze_algorithm("smirnov444", crossover=True)
        assert r.crossover_seq is not None
        assert 1000 <= r.crossover_seq <= 4000

    def test_describe_renders(self):
        text = analyze_algorithm("bini322", crossover=False).describe()
        assert "sigma=1 phi=1" in text
        assert "20% per step" in text

    def test_accepts_algorithm_object(self):
        from repro.algorithms.catalog import get_algorithm

        r = analyze_algorithm(get_algorithm("bini322"), crossover=False)
        assert r.name == "bini322"

    def test_catalog_report_covers_all(self):
        from repro.algorithms.catalog import list_algorithms

        text = catalog_report()
        for name in list_algorithms("all"):
            assert name in text


class TestFig4:
    def test_structure_rendered(self):
        text = format_fig4(run_fig4("smirnov444"))
        assert "784 -> 300" in text
        assert "apa:smirnov444" in text
        assert text.count("Dense") == 3
        # APA only on the middle layer
        assert text.count("APA operator") == 1


class TestMetrics:
    def test_confusion_matrix(self):
        C = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]), 3)
        assert C[0, 0] == 1 and C[0, 1] == 1 and C[1, 1] == 1 and C[2, 2] == 1
        assert C.sum() == 4

    def test_confusion_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([3]), np.array([0]), 2)

    def test_per_class_accuracy(self):
        acc = per_class_accuracy(np.array([0, 0, 1]), np.array([0, 1, 1]), 3)
        assert acc[0] == 0.5
        assert acc[1] == 1.0
        assert np.isnan(acc[2])

    def test_top_k(self):
        logits = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
        y = np.array([2, 2])
        assert top_k_accuracy(logits, y, k=1) == 0.0
        assert top_k_accuracy(logits, y, k=2) == 1.0
        assert top_k_accuracy(logits, y, k=3) == 1.0

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=4)
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros(3), np.zeros(3, dtype=int))


class TestFailureInjection:
    def test_tolerance_curve_shape(self):
        """Small injected errors are harmless; the order-unity end of the
        sweep must show real degradation — the robustness cliff exists."""
        points = run_error_tolerance_study(
            error_levels=(1e-2, 1.0),
            epochs=4, n_train=1500, n_test=300, batch_size=150,
        )
        low, high = points[0], points[1]
        assert low.gap < 0.08
        assert high.test_accuracy < low.test_accuracy

    def test_paper_regime_is_safe(self):
        """At the worst Table-1 error (1e-1), the gap stays small — the
        paper's Fig-5 conclusion at the error level, not the algorithm
        level."""
        points = run_error_tolerance_study(
            error_levels=(1e-1,),
            epochs=5, n_train=2000, n_test=400, batch_size=100,
        )
        assert points[0].gap < 0.1

    def test_format(self):
        points = run_error_tolerance_study(error_levels=(1e-2,), epochs=1,
                                           n_train=300, n_test=100,
                                           batch_size=100)
        assert "injected" in format_error_tolerance_study(points)

    def test_bad_lambda_degrades_monotonically_in_error(self):
        points = run_bad_lambda_study(lambda_scales=(1.0, 64.0), epochs=3,
                                      n_train=1200, n_test=300)
        assert points[0].relative_error < points[1].relative_error
        # heavily mistuned lambda must not *help*
        assert points[1].test_accuracy <= points[0].test_accuracy + 0.05

    def test_bad_lambda_reports_the_injected_error(self):
        """The study's relative_error is the surrogate's valley at the lambda
        it trains with (tuned power of two times the scale, clamped), not
        the unclamped ``scale**sigma`` extrapolation."""
        scales = (1.0, 64.0)
        points = run_bad_lambda_study(lambda_scales=scales, epochs=1,
                                      n_train=200, n_test=100)
        alg = get_algorithm("smirnov444")
        lam_opt = optimal_lambda(alg, d=23)
        for point, scale in zip(points, scales):
            assert point.relative_error == surrogate_relative_error(
                alg, lam_opt * scale, d=23)
