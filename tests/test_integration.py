"""End-to-end integration tests across subsystem boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.algorithms.io import load_algorithm, save_algorithm
from repro.algorithms.transforms import tensor_product
from repro.algorithms.verify import assert_valid
from repro.core.apa_matmul import apa_matmul
from repro.core.engine import default_engine
from repro.data.synth_mnist import load_synth_mnist
from repro.nn.mlp import build_accuracy_mlp
from repro.nn.serialize import load_weights, save_weights
from repro.nn.train import CosineLR, Trainer

ENGINE = default_engine()


class TestAlgorithmLifecycle:
    def test_construct_transform_save_load_execute(self, tmp_path, rng):
        """The full algorithm lifecycle: build by transform, prove, save
        to disk, reload, and run — results consistent at every stage."""
        alg = tensor_product(get_algorithm("bini322"),
                             get_algorithm("strassen222"),
                             name="integration_bini_x_strassen")
        assert_valid(alg)

        path = save_algorithm(alg, tmp_path / "alg.json")
        loaded = load_algorithm(path)
        assert loaded.signature() == alg.signature()

        A = rng.random((60, 40)).astype(np.float32)
        B = rng.random((40, 44)).astype(np.float32)
        lam = 2.0**-12
        from_interp = apa_matmul(A, B, loaded, lam=lam)

        from_threads = ENGINE.matmul(A, B, loaded, threads=3, lam=lam)
        assert np.allclose(from_threads, from_interp, rtol=1e-5, atol=1e-5)

    def test_discovered_algorithm_runs_in_network(self, rng, tmp_path):
        """ALS-style recovery feeding straight into NN training."""
        from repro.algorithms.rounding import als_to_algorithm
        from repro.algorithms.search import ALSResult

        base = get_algorithm("strassen222")
        U, V, W = base.evaluate(1.0, dtype=np.float64)
        jitter = lambda M: M + rng.normal(0, 0.01, M.shape)
        recovered = als_to_algorithm(
            ALSResult(U=jitter(U), V=jitter(V), W=jitter(W),
                      residuals=[1e-12], converged=True),
            2, 2, 2, name="recovered_strassen",
        )
        (x, y), _ = load_synth_mnist(n_train=600, n_test=0, seed=0)
        model = build_accuracy_mlp(
            hidden_backend=ENGINE.backend(algorithm=recovered),
            rng=np.random.default_rng(0),
        )
        hist = model.fit(x, y, epochs=2, batch_size=100, lr=0.2,
                         rng=np.random.default_rng(1))
        assert hist.train_accuracy[-1] > 0.3


class TestTrainingLifecycle:
    def test_train_checkpoint_resume(self, rng, tmp_path):
        """Train with an APA backend + schedule, checkpoint, resume in a
        fresh process-equivalent model, and keep improving."""
        (x, y), (xt, yt) = load_synth_mnist(n_train=1500, n_test=300, seed=0)

        def fresh_model():
            return build_accuracy_mlp(
                hidden_backend=ENGINE.backend(
                    algorithm=get_algorithm("bini322")),
                rng=np.random.default_rng(7),
            )

        model = fresh_model()
        trainer = Trainer(model, schedule=CosineLR(0.25, total=6))
        trainer.fit(x, y, epochs=3, batch_size=150,
                    rng=np.random.default_rng(1))
        acc_mid = model.accuracy(xt, yt)
        ckpt = save_weights(model, tmp_path / "mid.npz")

        resumed = fresh_model()
        load_weights(resumed, ckpt)
        assert resumed.accuracy(xt, yt) == pytest.approx(acc_mid)

        trainer2 = Trainer(resumed, schedule=CosineLR(0.25, total=6))
        trainer2.fit(x, y, epochs=3, batch_size=150,
                     rng=np.random.default_rng(2))
        assert resumed.accuracy(xt, yt) >= acc_mid - 0.02

    def test_metrics_on_trained_model(self, rng):
        from repro.nn.metrics import confusion_matrix, top_k_accuracy

        (x, y), (xt, yt) = load_synth_mnist(n_train=1500, n_test=300, seed=0)
        model = build_accuracy_mlp(rng=np.random.default_rng(0))
        model.fit(x, y, epochs=3, batch_size=150, lr=0.2,
                  rng=np.random.default_rng(1))
        pred = model.predict(xt)
        C = confusion_matrix(yt, pred, 10)
        assert C.sum() == 300
        logits = model.forward(xt, training=False)
        assert top_k_accuracy(logits, yt, k=3) >= model.accuracy(xt, yt)


class TestSimulationConsistency:
    def test_timing_model_consistent_with_nn_composition(self):
        """The MLP step timing equals the sum of its per-layer product
        simulations — no double counting across module boundaries."""
        from repro.nn.timing import DenseLayerSpec, mlp_step_timing, simulate_training_step

        width = 2048
        alg = get_algorithm("smirnov442")
        via_mlp = mlp_step_timing(width, algorithm=alg, threads=6)
        layers = [DenseLayerSpec(784, width, None)]
        layers += [DenseLayerSpec(width, width, alg) for _ in range(3)]
        layers.append(DenseLayerSpec(width, 10, None))
        via_layers = simulate_training_step(layers, batch=width, threads=6)
        assert via_mlp.total == pytest.approx(via_layers.total, rel=1e-12)

    def test_selection_agrees_with_figure_driver(self):
        """The autotuner's winner at the Fig-3c configuration matches the
        fastest algorithm in the figure's own data."""
        from repro.experiments.fig3_matmul_perf import run_fig3
        from repro.parallel.autotune import select_algorithm

        points = run_fig3(threads=12, dims=(8192,))
        fastest = min((p for p in points if p.algorithm != "classical"),
                      key=lambda p: p.seconds)
        sel = select_algorithm(8192, 8192, 8192, threads=12)
        assert sel.algorithm == fastest.algorithm
