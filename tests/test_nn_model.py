"""Tests for Sequential, the training loop, and the network builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.backend import ClassicalBackend
from repro.core.engine import default_engine
from repro.nn.layers import Dense, ReLU
from repro.nn.mlp import build_accuracy_mlp, build_paradnn_mlp, hidden_dense_layers
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.vgg import (
    VGG19_CONV_CONFIG,
    VGG19_FC_SIZES,
    build_vgg19_convnet,
    build_vgg19_fc,
)


def toy_blobs(n=200, rng=None):
    """Two well-separated gaussian blobs in 4-D — trivially learnable."""
    rng = rng or np.random.default_rng(0)
    half = n // 2
    x0 = rng.normal(-2.0, 0.5, size=(half, 4))
    x1 = rng.normal(+2.0, 0.5, size=(n - half, 4))
    x = np.vstack([x0, x1]).astype(np.float32)
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return x[order], y[order]


class TestSequential:
    def test_forward_composition(self, rng):
        model = Sequential([Dense(4, 3, rng=rng), ReLU(), Dense(3, 2, rng=rng)])
        out = model.forward(rng.random((5, 4)).astype(np.float32))
        assert out.shape == (5, 2)

    def test_parameters_collected(self, rng):
        model = Sequential([Dense(4, 3, rng=rng), ReLU(), Dense(3, 2, rng=rng)])
        assert len(model.parameters()) == 4  # two Dense x (W, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_fit_learns_separable_data(self, rng):
        x, y = toy_blobs(rng=rng)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        history = model.fit(x, y, epochs=10, batch_size=20, lr=0.1,
                            rng=np.random.default_rng(1))
        assert history.train_accuracy[-1] > 0.98
        assert history.train_loss[-1] < history.train_loss[0]

    def test_fit_records_test_accuracy(self, rng):
        x, y = toy_blobs(rng=rng)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        history = model.fit(x[:150], y[:150], epochs=3, batch_size=25,
                            x_test=x[150:], y_test=y[150:],
                            rng=np.random.default_rng(1))
        assert len(history.test_accuracy) == 3
        assert history.final()["test_accuracy"] == history.test_accuracy[-1]

    def test_fit_with_custom_optimizer(self, rng):
        x, y = toy_blobs(rng=rng)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        opt = Adam(model.parameters(), lr=0.01)
        history = model.fit(x, y, epochs=5, batch_size=25, optimizer=opt,
                            rng=np.random.default_rng(1))
        assert history.train_accuracy[-1] > 0.95

    def test_fit_validation(self, rng):
        x, y = toy_blobs(rng=rng)
        model = Sequential([Dense(4, 2, rng=rng)])
        with pytest.raises(ValueError):
            model.fit(x, y, epochs=0, batch_size=10)
        with pytest.raises(ValueError):
            model.fit(x, y[:-1], epochs=1, batch_size=10)

    def test_history_final_requires_epochs(self, rng):
        from repro.nn.model import History

        with pytest.raises(ValueError):
            History().final()

    def test_predict_batched_matches_full(self, rng):
        x, y = toy_blobs(rng=rng)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        assert np.array_equal(model.predict(x, batch_size=16),
                              model.predict(x, batch_size=1000))


class TestMLPBuilders:
    def test_accuracy_mlp_structure(self):
        """Fig 4: 784-300-300-10 with the APA operator on the middle layer
        only."""
        be = default_engine().backend(algorithm=get_algorithm("bini322"))
        model = build_accuracy_mlp(hidden_backend=be)
        dense = [l for l in model.layers if isinstance(l, Dense)]
        assert [(d.in_features, d.out_features) for d in dense] == [
            (784, 300), (300, 300), (300, 10)
        ]
        assert isinstance(dense[0].backend, ClassicalBackend)
        assert dense[1].backend is be
        assert isinstance(dense[2].backend, ClassicalBackend)

    def test_paradnn_mlp_structure(self):
        be = default_engine().backend(algorithm=get_algorithm("smirnov444"))
        model = build_paradnn_mlp(512, hidden_layers=4, hidden_backend=be)
        dense = [l for l in model.layers if isinstance(l, Dense)]
        assert len(dense) == 5  # input + 3 hidden-to-hidden + output
        assert dense[0].in_features == 784 and dense[-1].out_features == 10
        for d in dense[1:-1]:
            assert d.in_features == d.out_features == 512
            assert d.backend is be

    def test_hidden_dense_layers_helper(self):
        model = build_paradnn_mlp(128, hidden_layers=4)
        hidden = hidden_dense_layers(model)
        assert len(hidden) == 3
        assert all(d.in_features == 128 for d in hidden)

    def test_paradnn_validation(self):
        with pytest.raises(ValueError):
            build_paradnn_mlp(128, hidden_layers=0)


class TestVGGBuilders:
    def test_fc_head_structure(self):
        """§5: 25088-4096-4096-1000 with the backend on all three FC
        layers."""
        be = default_engine().backend(algorithm=get_algorithm("smirnov442"))
        model = build_vgg19_fc(backend=be)
        dense = [l for l in model.layers if isinstance(l, Dense)]
        assert [(d.in_features, d.out_features) for d in dense] == [
            (25088, 4096), (4096, 4096), (4096, 1000)
        ]
        assert all(d.backend is be for d in dense)

    def test_fc_sizes_constant(self):
        assert VGG19_FC_SIZES == (25088, 4096, 4096, 1000)

    def test_conv_config_is_vgg19(self):
        convs = [c for c in VGG19_CONV_CONFIG if c != "M"]
        pools = [c for c in VGG19_CONV_CONFIG if c == "M"]
        assert len(convs) == 16  # 16 conv + 3 FC = 19 layers
        assert len(pools) == 5

    def test_tiny_convnet_forward_backward(self, rng):
        """The full VGG-19 architecture at CIFAR scale runs end to end."""
        model = build_vgg19_convnet(num_classes=3, input_hw=32,
                                    width_scale=0.05, rng=rng)
        x = rng.random((2, 3, 32, 32)).astype(np.float32)
        from repro.nn.losses import SoftmaxCrossEntropy

        loss = SoftmaxCrossEntropy()
        logits = model.forward(x, training=True)
        assert logits.shape == (2, 3)
        value = loss.forward(logits, np.array([0, 2]))
        model.backward(loss.backward())
        assert np.isfinite(value)

    def test_convnet_resolution_validation(self):
        with pytest.raises(ValueError):
            build_vgg19_convnet(input_hw=40)
