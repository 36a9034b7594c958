"""Tests for neural-network layers, including gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm
from repro.core.engine import default_engine
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Parameter,
    ReLU,
    Sigmoid,
    Tanh,
)


def numerical_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


class TestParameter:
    def test_grad_allocated(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert p.grad.sum() == 0

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        p.grad += 5
        p.zero_grad()
        assert p.grad.sum() == 0


class TestDense:
    def test_forward_shape_and_value(self, rng):
        layer = Dense(5, 3, rng=rng, dtype=np.float64)
        x = rng.random((7, 5))
        y = layer.forward(x)
        assert y.shape == (7, 3)
        assert np.allclose(y, x @ layer.W.value + layer.b.value)

    def test_backward_gradients_match_numerical(self, rng):
        layer = Dense(4, 3, rng=rng, dtype=np.float64)
        x = rng.random((5, 4))
        target = rng.random((5, 3))

        def loss():
            y = layer.forward(x.copy(), training=True)
            return float(((y - target) ** 2).sum())

        y = layer.forward(x, training=True)
        grad_out = 2 * (y - target)
        layer.W.zero_grad()
        layer.b.zero_grad()
        grad_in = layer.backward(grad_out)

        num_W = numerical_grad(loss, layer.W.value)
        assert np.allclose(layer.W.grad, num_W, rtol=1e-4, atol=1e-6)
        num_b = numerical_grad(loss, layer.b.value)
        assert np.allclose(layer.b.grad, num_b, rtol=1e-4, atol=1e-6)
        num_x = numerical_grad(loss, x)
        assert np.allclose(grad_in, num_x, rtol=1e-4, atol=1e-6)

    def test_apa_backend_used_in_both_passes(self, rng):
        be = default_engine().backend(algorithm=get_algorithm("strassen222"))
        layer = Dense(6, 4, backend=be, rng=rng)
        x = rng.random((8, 6)).astype(np.float32)
        y = layer.forward(x)
        layer.backward(np.ones_like(y))
        # forward (1) + grad_W (1) + grad_x (1)
        assert be.calls == 3

    def test_no_bias(self, rng):
        layer = Dense(4, 3, use_bias=False, rng=rng)
        assert layer.b is None
        assert len(layer.parameters()) == 1

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 3)))

    def test_inference_forward_stores_nothing(self, rng):
        layer = Dense(4, 3, rng=rng)
        layer.forward(rng.random((2, 4)).astype(np.float32), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 3)))

    def test_input_shape_validated(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.random((2, 5)))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 3)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh])
    def test_gradient_matches_numerical(self, layer_cls, rng):
        layer = layer_cls()
        x = rng.random((4, 5)) - 0.5
        target = rng.random((4, 5))

        def loss():
            y = layer.forward(x.copy(), training=True)
            return float(((y - target) ** 2).sum())

        y = layer.forward(x, training=True)
        grad_in = layer.backward(2 * (y - target))
        num = numerical_grad(loss, x)
        assert np.allclose(grad_in, num, rtol=1e-4, atol=1e-6)

    def test_relu_clamps(self):
        y = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(y, [[0.0, 2.0]])

    def test_sigmoid_stable_extremes(self):
        y = Sigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(y))
        assert y[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert y[0, 1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh])
    def test_backward_before_forward(self, layer_cls):
        with pytest.raises(RuntimeError):
            layer_cls().backward(np.zeros((2, 2)))


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        f = Flatten()
        x = rng.random((3, 2, 4))
        y = f.forward(x)
        assert y.shape == (3, 8)
        assert f.backward(y).shape == x.shape

    def test_dropout_identity_at_inference(self, rng):
        d = Dropout(0.5, rng=rng)
        x = rng.random((4, 4))
        assert np.array_equal(d.forward(x, training=False), x)

    def test_dropout_scales_kept_units(self, rng):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        y = d.forward(x, training=True)
        kept = y[y > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling
        assert abs((y > 0).mean() - 0.5) < 0.02

    def test_dropout_backward_uses_same_mask(self, rng):
        d = Dropout(0.3, rng=rng)
        x = np.ones((10, 10))
        y = d.forward(x, training=True)
        g = d.backward(np.ones_like(x))
        assert np.array_equal(g != 0, y != 0)

    def test_dropout_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConv2D:
    def test_forward_matches_direct_convolution(self, rng):
        conv = Conv2D(2, 3, kernel_size=3, stride=1, padding=1, rng=rng,
                      dtype=np.float64)
        x = rng.random((2, 2, 5, 5))
        y = conv.forward(x)
        assert y.shape == (2, 3, 5, 5)
        # brute-force check one output element
        # im2col layout: (c*kh*kw, out); rebuild as (c, kh, kw, out)
        W4 = conv.W.value.reshape(2, 3, 3, 3)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        out_chan, b_idx, i, j = 1, 0, 2, 3
        acc = conv.b.value[out_chan]
        for c in range(2):
            for di in range(3):
                for dj in range(3):
                    acc += xp[b_idx, c, i + di, j + dj] * W4[c, di, dj, out_chan]
        assert y[b_idx, out_chan, i, j] == pytest.approx(acc)

    def test_gradients_match_numerical(self, rng):
        conv = Conv2D(1, 2, kernel_size=3, stride=1, padding=1, rng=rng,
                      dtype=np.float64)
        x = rng.random((2, 1, 4, 4))
        target = rng.random((2, 2, 4, 4))

        def loss():
            y = conv.forward(x.copy(), training=True)
            return float(((y - target) ** 2).sum())

        y = conv.forward(x, training=True)
        conv.W.zero_grad()
        conv.b.zero_grad()
        grad_in = conv.backward(2 * (y - target))
        assert np.allclose(conv.W.grad, numerical_grad(loss, conv.W.value),
                           rtol=1e-4, atol=1e-6)
        assert np.allclose(grad_in, numerical_grad(loss, x),
                           rtol=1e-4, atol=1e-6)

    def test_stride_two_shape(self, rng):
        conv = Conv2D(1, 1, kernel_size=3, stride=2, padding=1, rng=rng)
        y = conv.forward(rng.random((1, 1, 8, 8)).astype(np.float32))
        assert y.shape == (1, 1, 4, 4)

    def test_channel_mismatch(self, rng):
        conv = Conv2D(3, 4, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(rng.random((1, 2, 8, 8)))


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        y = MaxPool2D(2).forward(x)
        assert np.array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_max(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        pool.forward(x, training=True)
        g = pool.backward(np.ones((1, 1, 2, 2)))
        assert g.sum() == 4
        assert g[0, 0, 1, 1] == 1 and g[0, 0, 0, 0] == 0

    def test_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            MaxPool2D(3).forward(rng.random((1, 1, 4, 4)))
