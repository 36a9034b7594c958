"""Fig 5 — MLP accuracy on (synthetic) MNIST with APA hidden products.

Regenerates the train/test accuracy series per algorithm and benchmarks
one APA training epoch of the paper's 784-300-300-10 network.  At
``REPRO_BENCH_SCALE=paper`` this runs the full 50-epoch x 60k-sample
protocol for every Table-1 algorithm (hours); the CI scale trains each
network for a few epochs on a reduced sample, which already exhibits the
robustness result.
"""

from __future__ import annotations

import numpy as np
from conftest import bench_scale, emit

from repro.algorithms.catalog import PAPER_ALGORITHMS
from repro.core.engine import default_engine
from repro.data.synth_mnist import load_synth_mnist
from repro.experiments.fig5_mnist_accuracy import format_fig5, run_fig5
from repro.nn.mlp import build_accuracy_mlp


def _params() -> dict:
    if bench_scale() == "paper":
        return dict(epochs=50, n_train=60_000, n_test=10_000, batch_size=300)
    return dict(epochs=6, n_train=4_000, n_test=800, batch_size=200)


def test_fig5_regenerate(benchmark, out_dir):
    runs = benchmark.pedantic(
        run_fig5, kwargs=dict(algorithms=PAPER_ALGORITHMS, **_params()),
        rounds=1, iterations=1,
    )
    emit(out_dir, "fig5.txt", format_fig5(runs))
    final = {r.algorithm: r.history.test_accuracy[-1] for r in runs}
    classical = final.pop("classical")
    # the paper's finding: every APA network lands near the classical one
    for name, acc in final.items():
        assert acc > classical - 0.1, f"{name} diverged: {acc} vs {classical}"


def test_fig5_one_apa_training_epoch(benchmark):
    """One epoch of the accuracy network with Bini products in the middle
    layer — the repeated unit of Fig 5."""
    (x, y), _ = load_synth_mnist(n_train=1_500, n_test=0, seed=0)
    backend = default_engine().backend(algorithm="bini322")
    model = build_accuracy_mlp(hidden_backend=backend,
                               rng=np.random.default_rng(0))

    def one_epoch():
        return model.fit(x, y, epochs=1, batch_size=300, lr=0.1,
                         rng=np.random.default_rng(1))

    history = benchmark(one_epoch)
    assert history.train_accuracy[-1] > 0.2
