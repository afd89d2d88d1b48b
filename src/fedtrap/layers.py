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

Conv2D has one arithmetic, `cols @ W.T + b` with cols (n, L, K) for L
output positions and K = c*k*k, and two ways to gather cols. The
window-major gather is one `np.take` of each sample's flat pixels
through an (L, K) table of pixel offsets, built once per (c, h, w, k),
into a C-ordered (n, L, K) array. (Copying sliding-window views instead
moves the same bytes in runs of k floats, and numpy's per-run overhead
costs more than the copy.) The packed gather copies the windows into a
C-ordered (n, K, L) array, in runs of ow floats, and passes its
per-sample transpose; the BLAS then packs that operand itself, which is
faster. The values are the same, but whether the GEMM rounds the same
way is a property of the BLAS build and the shapes. So the first forward
of each (input shape, input dtype, weight shape, weight dtype) probes
it: both gathers of a fixed-seed random input, times a random weight
laid out as the forward's is, compared byte for byte. The packed gather
is used only where the bytes match, so outputs do not depend on which
gather ran. The bias is added in place over each sample's contiguous
L*oc GEMM outputs, as the bias tiled L times: the same additions as a
broadcast add, without its oc-long innermost loop.
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
        key = (x.shape, x.dtype, self.weight.shape, self.weight.dtype)
        packed = _PACKED_GATHER.get(key)
        if packed is None:
            packed = _PACKED_GATHER[key] = _packed_gather_matches(*key)
        gather = _packed_windows if packed else _windows
        cols = gather(x, self.kernel_size)
        out = cols @ self.weight.reshape(oc, -1).T                 # C-ordered (n, L, oc)
        flat = out.reshape(n, -1)   # a broadcast add's innermost loop would be oc long
        np.add(flat, np.tile(self.bias, oh * ow), out=flat)
        out = out.transpose(0, 2, 1).reshape(n, oc, oh, ow)
        return out, (x.shape, cols)

    def backward(self, dout: np.ndarray, cache):
        x_shape, cols = cache
        n, oc, oh, ow = dout.shape
        dflat = dout.reshape(n, oc, oh * ow).transpose(0, 2, 1)  # (n, L, oc)
        # tensordot reshapes cols to (n*L, K). For n > 1 that copies a packed
        # cols to C order anyway; at n = 1 it would hand the GEMM the
        # F-ordered view, which can round differently
        cols = np.ascontiguousarray(cols)
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


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """im2col, window-major: (n, c, h, w) -> C-ordered (n, L, K).

    L = oh*ow output positions, K = c*k*k in (channel, row, column) order.
    One `take` of each sample's flat pixels through `_window_index`.
    """
    n, c, h, w = x.shape
    key = (c, h, w, k)
    index = _WINDOW_INDEX.get(key)
    if index is None:
        index = _WINDOW_INDEX[key] = _window_index(*key)
    return np.take(x.reshape(n, -1), index, axis=1)


# (c, h, w, k) -> the (L, K) table of flat pixel offsets `_windows` gathers
_WINDOW_INDEX: dict[tuple[int, int, int, int], np.ndarray] = {}


def _window_index(c: int, h: int, w: int, k: int) -> np.ndarray:
    """Entry (l, q) is the offset in a C-ordered (c, h, w) sample of the pixel
    that window l = (i, j) reads at q = (channel, row, column)."""
    oh, ow = h - k + 1, w - k + 1
    corners = np.arange(oh)[:, None] * w + np.arange(ow)                  # (oh, ow)
    taps = (np.arange(c)[:, None, None] * (h * w)
            + np.arange(k)[:, None] * w + np.arange(k))                   # (c, k, k)
    return corners.reshape(-1, 1) + taps.reshape(1, -1)


def _packed_windows(x: np.ndarray, k: int) -> np.ndarray:
    """The same (n, L, K) values as `_windows`, as the per-sample transpose of
    a C-ordered (n, K, L) copy, which reads x in runs of ow."""
    n, c, h, w = x.shape
    win = sliding_window_view(x, (h - k + 1, w - k + 1), axis=(2, 3))  # (n, c, k, k, oh, ow)
    return win.reshape(n, c * k * k, -1).transpose(0, 2, 1)


# (input shape, input dtype, weight shape, weight dtype) -> whether the
# packed gather gives the GEMM bytes of the window-major one
_PACKED_GATHER: dict[tuple, bool] = {}


def _packed_gather_matches(x_shape: tuple[int, ...], x_dtype: np.dtype,
                           w_shape: tuple[int, ...], w_dtype: np.dtype) -> bool:
    """Whether `_packed_windows(x) @ W.T` has the bytes of `_windows(x) @ W.T`.

    The probe repeats the forward's operand layouts: a C-ordered input of
    the real shape and the transpose of a C-ordered (oc, K) weight. Its
    values are generic (a fixed-seed generator of its own), because zero
    weights or blank rows can make two summation orders agree by accident.
    """
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, x_shape).astype(x_dtype)
    w = rng.uniform(-1.0, 1.0, (w_shape[0], math.prod(w_shape[1:]))).astype(w_dtype).T
    k = w_shape[-1]
    return (_packed_windows(x, k) @ w).tobytes() == (_windows(x, k) @ w).tobytes()


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
