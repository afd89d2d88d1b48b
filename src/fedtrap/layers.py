"""Layer primitives for the feedforward engine.

Every layer exposes the same surface: the shapes of its parameters
(`param_shapes`, empty for a parameter-free layer), shape inference
(`out_shape`), a pure `forward(x) -> (y, cache)` on batched arrays, and
`backward(dout, cache) -> (dx, param_grads)`. A layer allocates no
parameter array: the `Network` it belongs to allocates the flat vector
and binds each `weight` and `bias` to a view of its slice. Conv2D and
Linear share `init_random` / `init_dead`, which write through those
views.

Convention: ReLU's derivative at exactly 0 is 0 (strict `x > 0` mask).
Max pooling picks the first (lowest-index) maximal position of each
window, in row-major window order. The forward pass folds `np.maximum`
over the window's strided views in reverse order, which keeps the first
position on a tie (+0.0 against -0.0 included) and builds no index; its
cache is the input itself. The backward pass finds the same position
with `argmax` over the cached input and routes the gradient there.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when an input does not match what a layer expects."""


class _WeightBias:
    """Init shared by the layers whose `weight` and `bias` a Network binds.

    The weight's first axis is the output unit; the rest is its fan-in.
    """

    param_shapes: dict[str, tuple[int, ...]]
    weight: np.ndarray
    bias: np.ndarray

    @property
    def fan_in(self) -> int:
        return math.prod(self.param_shapes["weight"][1:])

    def init_random(self, rng: np.random.Generator) -> None:
        bound = 1.0 / np.sqrt(self.fan_in)
        self.weight[...] = rng.uniform(-bound, bound, self.weight.shape)
        self.bias[...] = rng.uniform(-bound, bound, self.bias.shape)

    def init_dead(self) -> None:
        self.weight[...] = 0.0
        self.bias[...] = -1.0


class Conv2D(_WeightBias):
    """Valid (unpadded) 2-D convolution, stride 1. Weight shape (out, in, k, k)."""

    kind = "conv2d"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int):
        if min(in_channels, out_channels, kernel_size) < 1:
            raise ValueError("conv2d dimensions must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.param_shapes = {"weight": (out_channels, in_channels, kernel_size, kernel_size),
                             "bias": (out_channels,)}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 3:
            raise ShapeError(f"conv2d expects (C,H,W) input, got {in_shape}")
        c, h, w = in_shape
        k = self.kernel_size
        if c != self.in_channels:
            raise ShapeError(f"conv2d expects {self.in_channels} channels, got {c}")
        if h < k or w < k:
            raise ShapeError(f"conv2d kernel {k} larger than input {h}x{w}")
        return (self.out_channels, h - k + 1, w - k + 1)

    def forward(self, x: np.ndarray):
        n = x.shape[0]
        oc, oh, ow = self.out_shape(x.shape[1:])
        k = self.kernel_size
        # (n, c, oh, ow, k, k) -> (n, oh*ow, c*k*k)
        win = sliding_window_view(x, (k, k), axis=(2, 3))
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, self.fan_in)
        out = cols @ self.weight.reshape(oc, -1).T + self.bias
        out = out.transpose(0, 2, 1).reshape(n, oc, oh, ow)
        return out, (x.shape, cols)

    def backward(self, dout: np.ndarray, cache):
        x_shape, cols = cache
        n, oc, oh, ow = dout.shape
        dflat = dout.reshape(n, oc, oh * ow).transpose(0, 2, 1)  # (n, L, oc)
        dw = np.tensordot(dflat, cols, axes=([0, 1], [0, 1]))    # (oc, c*k*k)
        db = dout.sum(axis=(0, 2, 3))
        dcols = dflat @ self.weight.reshape(oc, -1)              # (n, L, c*k*k)
        dx = self._cols_to_image(dcols, x_shape)
        return dx, {"weight": dw.reshape(self.weight.shape), "bias": db}

    def _cols_to_image(self, dcols: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
        n, c, h, w = x_shape
        k = self.kernel_size
        oh, ow = h - k + 1, w - k + 1
        dcols = dcols.reshape(n, oh, ow, c, k, k)
        dx = np.zeros(x_shape, dtype=dcols.dtype)
        for i in range(k):
            for j in range(k):
                dx[:, :, i:i + oh, j:j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return dx


class MaxPool2D:
    """Non-overlapping max pooling: window w, stride w. Requires divisible H, W."""

    kind = "maxpool2d"
    param_shapes: dict[str, tuple[int, ...]] = {}

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("pool window must be positive")
        self.window = window

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 3:
            raise ShapeError(f"maxpool2d expects (C,H,W) input, got {in_shape}")
        c, h, w = in_shape
        if h % self.window or w % self.window:
            raise ShapeError(f"maxpool2d window {self.window} does not divide {h}x{w}")
        return (c, h // self.window, w // self.window)

    def forward(self, x: np.ndarray):
        self.out_shape(x.shape[1:])
        k = self.window
        views = [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]
        out = views[-1].copy()
        # np.maximum returns its second operand on a tie, so folding in
        # reverse window order keeps the first maximal position, as argmax does
        for v in reversed(views[:-1]):
            np.maximum(out, v, out=out)
        return out, x

    def backward(self, dout: np.ndarray, x: np.ndarray):
        n, c, h, w = x.shape
        k = self.window
        oh, ow = h // k, w // k
        win = (x.reshape(n, c, oh, k, ow, k)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, oh, ow, k * k))
        idx = win.argmax(axis=-1)
        dwin = np.zeros((n, c, oh, ow, k * k), dtype=dout.dtype)
        np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
        dx = (dwin.reshape(n, c, oh, ow, k, k)
                  .transpose(0, 1, 2, 4, 3, 5)
                  .reshape(x.shape))
        return dx, {}


class Flatten:
    kind = "flatten"
    param_shapes: dict[str, tuple[int, ...]] = {}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(in_shape)),)

    def forward(self, x: np.ndarray):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dout: np.ndarray, cache):
        return dout.reshape(cache), {}


class ReLU:
    kind = "relu"
    param_shapes: dict[str, tuple[int, ...]] = {}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return in_shape

    def forward(self, x: np.ndarray):
        return np.maximum(x, 0), x

    def backward(self, dout: np.ndarray, cache):
        return dout * (cache > 0), {}


class Linear(_WeightBias):
    """Dense layer y = x @ W.T + b. Weight shape (out, in): weight[u, j] feeds unit u."""

    kind = "linear"

    def __init__(self, in_dim: int, out_dim: int):
        if min(in_dim, out_dim) < 1:
            raise ValueError("linear dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.param_shapes = {"weight": (out_dim, in_dim), "bias": (out_dim,)}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 1 or in_shape[0] != self.in_dim:
            raise ShapeError(f"linear expects ({self.in_dim},) input, got {in_shape}")
        return (self.out_dim,)

    def forward(self, x: np.ndarray):
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"linear expects {self.in_dim} features, got {x.shape[1]}")
        return x @ self.weight.T + self.bias, x

    def backward(self, dout: np.ndarray, cache):
        dw = dout.T @ cache
        db = dout.sum(axis=0)
        dx = dout @ self.weight
        return dx, {"weight": dw, "bias": db}


Layer = Conv2D | MaxPool2D | Flatten | ReLU | Linear
