"""Fig 5 — MLP accuracy on MNIST with APA hidden products (§4.2).

Protocol: the 784-300-300-10 MLP (Fig 4) trained with batched SGD, batch
size 300, 50 epochs; one network per APA algorithm with the custom
operator on the middle (300x300x300) products in forward *and* backward
passes, plus a classical baseline.  Fig 5a plots training accuracy per
epoch, Fig 5b test accuracy per epoch.

Paper findings the reproduction must show: training converges to nearly
full accuracy for every algorithm (~20 epochs), and test accuracy lands
between 97% and 99% for all of them — the matmul error does not derail
learning.

MNIST is replaced by the synthetic dataset (DESIGN.md §2).  Paper-scale
parameters (60k/10k samples, 50 epochs) are in ``FIG5_PAPER``; defaults
are reduced so the driver runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.catalog import PAPER_ALGORITHMS
from repro.bench.tables import format_table
from repro.core.backend import ClassicalBackend
from repro.core.engine import default_engine
from repro.data.synth_mnist import load_synth_mnist
from repro.nn.mlp import build_accuracy_mlp
from repro.nn.model import History

__all__ = ["Fig5Run", "run_fig5", "format_fig5", "FIG5_PAPER"]

#: The paper's full protocol.
FIG5_PAPER = dict(epochs=50, n_train=60_000, n_test=10_000, batch_size=300)


@dataclass(frozen=True)
class Fig5Run:
    algorithm: str  # 'classical' or a catalog name
    history: History


def run_fig5(
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    epochs: int = 5,
    n_train: int = 6_000,
    n_test: int = 1_000,
    batch_size: int = 300,
    lr: float = 0.2,
    seed: int = 0,
    include_classical: bool = True,
) -> list[Fig5Run]:
    """Train one network per algorithm and record the Fig-5 series."""
    (x_train, y_train), (x_test, y_test) = load_synth_mnist(
        n_train=n_train, n_test=n_test, seed=seed
    )
    runs: list[Fig5Run] = []
    names = (("classical",) if include_classical else ()) + tuple(algorithms)
    for name in names:
        backend = (ClassicalBackend() if name == "classical"
                   else default_engine().backend(algorithm=name))
        model = build_accuracy_mlp(
            hidden_backend=backend, rng=np.random.default_rng(seed + 1)
        )
        history = model.fit(
            x_train, y_train,
            epochs=epochs, batch_size=batch_size, lr=lr,
            x_test=x_test, y_test=y_test,
            rng=np.random.default_rng(seed + 2),
        )
        runs.append(Fig5Run(algorithm=name, history=history))
    return runs


def format_fig5(runs: list[Fig5Run]) -> str:
    headers = ["algorithm", "final train acc", "final test acc", "best test acc"]
    rows = []
    for run in runs:
        h = run.history
        rows.append([
            run.algorithm,
            f"{h.train_accuracy[-1]:.4f}",
            f"{h.test_accuracy[-1]:.4f}" if h.test_accuracy else "-",
            f"{max(h.test_accuracy):.4f}" if h.test_accuracy else "-",
        ])
    return format_table(
        headers, rows,
        title="Fig 5: MLP accuracy with APA hidden products (synthetic MNIST)",
    )


if __name__ == "__main__":
    print(format_fig5(run_fig5(algorithms=("bini322", "smirnov333", "smirnov444"))))
