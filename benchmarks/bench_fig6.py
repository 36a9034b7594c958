"""Fig 6 — MLP training time relative to classical (1/6/12 threads).

Regenerates each panel's relative-time series from the training-step cost
model, asserts the paper's who-wins shape, and benchmarks both the
simulated pricing and a real reduced-scale training step.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import bench_scale, emit

from repro.algorithms.catalog import get_algorithm
from repro.core.engine import default_engine
from repro.experiments.fig6_mlp_training import (
    FIG6_WIDTHS_PAPER,
    format_fig6,
    run_fig6,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.mlp import build_paradnn_mlp
from repro.nn.optim import SGD


def _widths() -> tuple[int, ...]:
    return FIG6_WIDTHS_PAPER if bench_scale() == "paper" else (512, 2048, 8192)


@pytest.mark.parametrize("threads", [1, 6, 12])
def test_fig6_panel(benchmark, out_dir, threads):
    points = benchmark.pedantic(
        run_fig6, kwargs=dict(threads=threads, widths=_widths()),
        rounds=1, iterations=1,
    )
    emit(out_dir, f"fig6_{threads}threads.txt", format_fig6(points))
    at_top = {p.algorithm: p for p in points if p.hidden_size == max(_widths())}
    if threads == 1:
        # paper: all algorithms beat classical at 4096/8192, best ~25%
        assert at_top["smirnov444"].relative_time < 0.9
    elif threads == 6:
        assert at_top["smirnov442"].relative_time < 0.95  # paper: ~13%
    else:
        # paper: only the remainder-free <4,4,2> stays faster
        assert at_top["smirnov442"].relative_time < 1.0
        assert at_top["bini322"].relative_time > 1.0


def test_fig6_real_training_step(benchmark):
    """A real forward+backward+update step of the ParaDnn MLP with an APA
    hidden backend (width reduced for CI)."""
    width = 1024 if bench_scale() == "paper" else 256
    backend = default_engine().backend(algorithm="strassen444")
    model = build_paradnn_mlp(width, hidden_backend=backend,
                              rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.random((width, 784)).astype(np.float32)
    y = rng.integers(0, 10, width)
    loss = SoftmaxCrossEntropy()
    opt = SGD(model.parameters(), lr=0.01)

    def step():
        logits = model.forward(x, training=True)
        value = loss.forward(logits, y)
        opt.zero_grad()
        model.backward(loss.backward())
        opt.step()
        return value

    assert np.isfinite(benchmark(step))
