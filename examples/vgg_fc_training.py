#!/usr/bin/env python3
"""VGG-19 fully connected layers with the <4,4,2> algorithm (Fig 7, §5).

Run:  python examples/vgg_fc_training.py [--scale 8] [--batch 256]

Two parts:

1. a *real* training step of the (width-scaled) 25088-4096-4096-1000 FC
   head through the library's NN stack, with a fully-coefficiented fast
   algorithm on all three layers — demonstrating the actual code path the
   paper accelerates;
2. the *paper-scale projection* from the calibrated machine model: the
   per-batch training time of the full-size FC head, classical vs
   <4,4,2>, across batch sizes at 1 and 6 threads (the Fig-7 series).
"""

import argparse
import time

import numpy as np

from repro.core.backend import ClassicalBackend
from repro.core.engine import default_engine
from repro.experiments.fig7_vgg import format_fig7, run_fig7
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.nn.vgg import VGG19_FC_SIZES, build_vgg19_fc


def real_training_step(scale: int, batch: int, backend_name: str) -> None:
    sizes = tuple(max(10, s // scale) for s in VGG19_FC_SIZES)
    print(f"real FC head at 1/{scale} width: {sizes}, batch {batch}, "
          f"backend {backend_name}")
    backend = (ClassicalBackend() if backend_name == "classical"
               else default_engine().backend(algorithm=backend_name))
    model = build_vgg19_fc(backend=backend, sizes=sizes,
                           rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.random((batch, sizes[0])).astype(np.float32)
    y = rng.integers(0, sizes[3], batch)
    loss = SoftmaxCrossEntropy()
    opt = SGD(model.parameters(), lr=0.01)

    for step in range(3):
        t0 = time.perf_counter()
        logits = model.forward(x, training=True)
        value = loss.forward(logits, y)
        opt.zero_grad()
        model.backward(loss.backward())
        opt.step()
        print(f"  step {step + 1}: loss {value:.4f} "
              f"({time.perf_counter() - t0:.3f}s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=8,
                        help="width divisor for the real training demo")
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--backend", default="strassen422",
                        help="real algorithm for the demo (needs full "
                             "coefficients; strassen422 is the <4,2,2> "
                             "exact rule)")
    args = parser.parse_args()

    real_training_step(args.scale, args.batch, args.backend)

    print("\npaper-scale projection (calibrated machine model):\n")
    print(format_fig7(run_fig7()))
    print("\nPaper headline: up to 15% sequential / 10% six-thread speedup "
          "on the FC layers with <4,4,2>.")


if __name__ == "__main__":
    main()
