"""Fig 7 — VGG-19 fully connected layers, per-batch training time.

Regenerates the classical vs <4,4,2> series across batch sizes at 1 and
6 threads, and benchmarks a real (width-scaled) FC-head training step.
"""

from __future__ import annotations

import numpy as np
from conftest import bench_scale, emit

from repro.core.engine import default_engine
from repro.experiments.fig7_vgg import FIG7_BATCHES_PAPER, format_fig7, run_fig7
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.nn.vgg import build_vgg19_fc


def _batches() -> tuple[int, ...]:
    return FIG7_BATCHES_PAPER if bench_scale() == "paper" else (256, 1024, 2048)


def test_fig7_regenerate(benchmark, out_dir):
    points = benchmark.pedantic(
        run_fig7, kwargs=dict(batches=_batches()), rounds=1, iterations=1,
    )
    emit(out_dir, "fig7.txt", format_fig7(points))
    fast = [p for p in points if p.algorithm != "classical"]
    best_seq = max(p.speedup_vs_classical for p in fast if p.threads == 1)
    best_par = max(p.speedup_vs_classical for p in fast if p.threads == 6)
    assert best_seq > 0.10          # paper: up to 15%
    assert best_par > 0.0           # paper: up to 10%
    assert best_par < best_seq      # parallel gain smaller than sequential


def test_fig7_real_fc_training_step(benchmark):
    """One real training step of a width-scaled VGG FC head with the
    <4,4,2>-shaped real algorithm (strassen422 stands in: same code
    path, full coefficients)."""
    scale = 8 if bench_scale() == "ci" else 1
    sizes = (25088 // scale, 4096 // scale, 4096 // scale, 1000 // scale)
    batch = 2048 // scale
    backend = default_engine().backend(algorithm="strassen422")
    model = build_vgg19_fc(backend=backend, sizes=sizes,
                           rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.random((batch, sizes[0])).astype(np.float32)
    y = rng.integers(0, sizes[3], batch)
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
