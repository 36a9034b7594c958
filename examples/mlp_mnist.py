#!/usr/bin/env python3
"""Train the paper's MLP with APA hidden products (Figs 4-5).

Run:  python examples/mlp_mnist.py [--algorithms bini322 smirnov444]
                                   [--epochs 8] [--train 6000] [--test 1000]

Reproduces the §4.2 protocol at configurable scale: the 784-300-300-10
network, batch-300 SGD, APA matmul injected only into the middle
(300x300x300) products of both the forward and backward passes, and a
classical baseline for comparison.  The punchline — APA error does not
hurt learning — shows up within a few epochs.
"""

import argparse

import numpy as np

from repro.core.backend import ClassicalBackend
from repro.core.engine import default_engine
from repro.data.synth_mnist import load_synth_mnist
from repro.nn.mlp import build_accuracy_mlp


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algorithms", nargs="*",
                        default=["bini322", "schonhage333", "smirnov444"],
                        help="catalog names to compare against classical")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--train", type=int, default=6000)
    parser.add_argument("--test", type=int, default=1000)
    parser.add_argument("--batch", type=int, default=300)
    parser.add_argument("--lr", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"generating synthetic MNIST ({args.train} train / {args.test} test)...")
    (x_train, y_train), (x_test, y_test) = load_synth_mnist(
        n_train=args.train, n_test=args.test, seed=args.seed
    )

    results = {}
    for name in ["classical"] + args.algorithms:
        backend = (ClassicalBackend() if name == "classical"
                   else default_engine().backend(algorithm=name))
        model = build_accuracy_mlp(hidden_backend=backend,
                                   rng=np.random.default_rng(args.seed))
        print(f"\n=== {name} ===")
        history = model.fit(
            x_train, y_train,
            epochs=args.epochs, batch_size=args.batch, lr=args.lr,
            x_test=x_test, y_test=y_test,
            rng=np.random.default_rng(args.seed + 1),
            verbose=True,
        )
        results[name] = history

    print("\nFinal test accuracy (paper Fig 5b: all algorithms land in the "
          "same high band):")
    for name, history in results.items():
        print(f"  {name:14s} {history.test_accuracy[-1]:.4f}")


if __name__ == "__main__":
    main()
