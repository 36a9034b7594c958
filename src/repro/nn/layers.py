"""Neural-network layers with pluggable matmul backends.

Each layer implements ``forward(x, training)`` and ``backward(grad)``;
parameters are exposed through :meth:`Layer.parameters` as
:class:`Parameter` objects the optimizers update in place.

:class:`Dense` is the layer the paper's experiments revolve around: its
forward product ``X @ W`` and both backward products (``dY @ W.T`` for the
input gradient, ``X.T @ dY`` for the weight gradient) go through the
layer's :class:`~repro.core.backend.MatmulBackend` — so assigning an
APA backend (``default_engine().backend(algorithm=...)``, an
:class:`~repro.core.engine.EngineBackend`) to a layer reproduces the paper's
"custom operator used for both forward propagation and gradient
calculation".

:class:`Conv2D` lowers convolution to matmul via im2col (the paper's §1
cites exactly this as why convolutional layers also benefit), so APA
backends plug into convolutions as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.backend import ClassicalBackend, MatmulBackend
from repro.nn.init import get_initializer

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Dropout",
    "Conv2D",
    "MaxPool2D",
]


@dataclass
class Parameter:
    """A trainable array and its accumulated gradient."""

    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = ""

    def __post_init__(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0


class Layer:
    """Base layer: stateless by default."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []

    def __repr__(self) -> str:
        return type(self).__name__


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Weight shape ``(in_features, out_features)``.
    backend:
        Matmul backend for the forward and both backward products;
        defaults to classical gemm.
    use_bias:
        Include the additive bias (the paper's MLPs do).
    init:
        Initializer name (see :mod:`repro.nn.init`).
    rng:
        Generator for reproducible initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        backend: MatmulBackend | None = None,
        use_bias: bool = True,
        init: str = "he",
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng(0)
        initializer = get_initializer(init)
        self.in_features = in_features
        self.out_features = out_features
        self.backend: MatmulBackend = backend or ClassicalBackend()
        self.W = Parameter(
            initializer(rng, in_features, (in_features, out_features), dtype),
            name="W",
        )
        self.b = Parameter(np.zeros(out_features, dtype=dtype), name="b") if use_bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense({self.in_features},{self.out_features}) got input {x.shape}"
            )
        self._x = x if training else None
        y = self.backend.matmul(x, self.W.value)
        if self.b is not None:
            y = y + self.b.value
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        x = self._x
        # The two backward products also run through the (possibly APA)
        # backend, per the paper's §4.1.
        self.W.grad += self.backend.matmul(
            np.ascontiguousarray(x.T), grad
        )
        if self.b is not None:
            self.b.grad += grad.sum(axis=0)
        return self.backend.matmul(grad, np.ascontiguousarray(self.W.value.T))

    def parameters(self) -> list[Parameter]:
        params = [self.W]
        if self.b is not None:
            params.append(self.b)
        return params

    def __repr__(self) -> str:
        return (
            f"Dense({self.in_features}, {self.out_features}, "
            f"backend={self.backend.name})"
        )


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return np.where(mask, x, 0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return np.where(self._mask, grad, 0)


class Sigmoid(Layer):
    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # numerically stable split on sign
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        self._y = y if training else None
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad * self._y * (1.0 - self._y)


class Tanh(Layer):
    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = np.tanh(x)
        self._y = y if training else None
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad * (1.0 - self._y**2)


class Flatten(Layer):
    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a forward pass")
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout — identity at inference time."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        if not (0.0 <= rate < 1.0):
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        self._mask = mask
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> tuple[np.ndarray, int, int]:
    """Lower ``(batch, c, h, w)`` to ``(batch * oh * ow, c * kh * kw)``."""
    b, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    # stride-tricked sliding windows, then one big reshape/copy
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, oh, ow, kh, kw),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


class Conv2D(Layer):
    """2-D convolution lowered to matmul via im2col.

    Input/output layout is ``(batch, channels, height, width)``.  The
    single big product ``cols @ W`` runs through the layer's backend, so
    APA algorithms accelerate convolutions exactly as the paper's §1
    describes for "monolithic multiplications".  Backward w.r.t. the
    input uses a col2im scatter.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        backend: MatmulBackend | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ) -> None:
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise ValueError("bad Conv2D hyper-parameters")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.backend: MatmulBackend = backend or ClassicalBackend()
        fan_in = in_channels * kernel_size * kernel_size
        self.W = Parameter(
            get_initializer("he")(rng, fan_in, (fan_in, out_channels), dtype), name="W"
        )
        self.b = Parameter(np.zeros(out_channels, dtype=dtype), name="b")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(f"Conv2D expects (b,{self.in_channels},h,w), got {x.shape}")
        cols, oh, ow = _im2col(x, self.kernel_size, self.kernel_size, self.stride, self.padding)
        out = self.backend.matmul(cols, self.W.value) + self.b.value
        b = x.shape[0]
        y = out.reshape(b, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols, oh, ow) if training else None
        return np.ascontiguousarray(y)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, cols, oh, ow = self._cache
        b, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(b * oh * ow, self.out_channels)
        grad_mat = np.ascontiguousarray(grad_mat)
        self.W.grad += self.backend.matmul(np.ascontiguousarray(cols.T), grad_mat)
        self.b.grad += grad_mat.sum(axis=0)
        dcols = self.backend.matmul(grad_mat, np.ascontiguousarray(self.W.value.T))
        # col2im scatter-add
        dx = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=grad.dtype)
        dwin = dcols.reshape(b, oh, ow, c, k, k).transpose(0, 3, 1, 2, 4, 5)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + oh * s : s, j : j + ow * s : s] += dwin[:, :, :, :, i, j]
        if p:
            dx = dx[:, :, p:-p, p:-p]
        return dx

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]


class MaxPool2D(Layer):
    """Non-overlapping max pooling over ``(batch, c, h, w)``."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        b, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool {s}")
        xr = x.reshape(b, c, h // s, s, w // s, s)
        y = xr.max(axis=(3, 5))
        if training:
            mask = xr == y[:, :, :, None, :, None]
            self._cache = (mask, x.shape)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        mask, shape = self._cache
        g = grad[:, :, :, None, :, None] * mask
        return g.reshape(shape)
