"""Layer primitives for the feedforward engine.

Every layer exposes the same surface: the shapes of its parameters
(`param_shapes`, empty for a parameter-free layer), shape inference
(`out_shape`), a pure `forward(x, *params) -> (y, cache)` on batched
arrays, and `backward(dout, cache, *params) -> (dx, param_grads)`. A
layer holds no parameters, only its sizes, so one layer object can
serve many networks: the `Network` that runs it allocates the flat
vector and hands each call the layer's views of it, in `param_shapes`
order (`weight, bias` for Conv2D and Linear, none for the others).
`init_random` writes a fan-in-scaled init through such views. A forward
does not check its input's shape: the `Network` checks the layer chain
through `out_shape` when it is built, and every batch when it comes in.

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
broadcast add, without its oc-long innermost loop. The forward caches
its input, as the other layers do, not its gathered windows: holding
the windows until the backward made an MNIST-shape extractor forward at
B = 32 take 1.9-2.0 ms against 0.9 ms (each call then writes its
windows to fresh memory). The backward gathers them again, window-major,
so its weight-gradient product sees one C-ordered operand whichever
gather the forward took, at B = 1 too.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when an input does not match what a layer expects."""


def init_random(rng: np.random.Generator, weight: np.ndarray, bias: np.ndarray) -> None:
    """Uniform in ±1/sqrt(fan-in), written through the views. The weight's
    first axis is the output unit; the rest is its fan-in."""
    bound = 1.0 / np.sqrt(math.prod(weight.shape[1:]))
    weight[...] = rng.uniform(-bound, bound, weight.shape)
    bias[...] = rng.uniform(-bound, bound, bias.shape)


class Conv2D:
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

    def forward(self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
        n = x.shape[0]
        oc, oh, ow = self.out_shape(x.shape[1:])
        packed = _packed_gather_matches(x.shape, x.dtype, weight.shape, weight.dtype)
        gather = _packed_windows if packed else _windows
        cols = gather(x, self.kernel_size)
        out = cols @ weight.reshape(oc, -1).T                      # C-ordered (n, L, oc)
        flat = out.reshape(n, -1)   # a broadcast add's innermost loop would be oc long
        np.add(flat, np.repeat(bias[None], oh * ow, 0).reshape(-1), out=flat)
        out = out.transpose(0, 2, 1).reshape(n, oc, oh, ow)
        return out, x

    def backward(self, dout: np.ndarray, x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
        n, oc, oh, ow = dout.shape
        dflat = dout.reshape(n, oc, oh * ow).transpose(0, 2, 1)  # (n, L, oc)
        cols = _windows(x, self.kernel_size)                     # C-ordered (n, L, K)
        dw = np.tensordot(dflat, cols, axes=([0, 1], [0, 1]))    # (oc, c*k*k)
        db = dout.sum(axis=(0, 2, 3))
        dcols = dflat @ weight.reshape(oc, -1)                   # (n, L, c*k*k)
        dx = self._cols_to_image(dcols, x.shape)
        return dx, {"weight": dw.reshape(weight.shape), "bias": db}

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
    return np.take(x.reshape(n, -1), _window_index(c, h, w, k), axis=1)


@functools.cache
def _window_index(c: int, h: int, w: int, k: int) -> np.ndarray:
    """Entry (l, q) is the offset in a C-ordered (c, h, w) sample of the pixel
    that window l = (i, j) reads at q = (channel, row, column)."""
    oh, ow = h - k + 1, w - k + 1
    corners = np.arange(oh)[:, None] * w + np.arange(ow)                  # (oh, ow)
    taps = (np.arange(c)[:, None, None] * (h * w)
            + np.arange(k)[:, None] * w + np.arange(k))                   # (c, k, k)
    index = corners.reshape(-1, 1) + taps.reshape(1, -1)
    index.flags.writeable = False  # the cache hands this one array to every caller
    return index


def _packed_windows(x: np.ndarray, k: int) -> np.ndarray:
    """The same (n, L, K) values as `_windows`, as the per-sample transpose of
    a C-ordered (n, K, L) copy, which reads x in runs of ow."""
    n, c, h, w = x.shape
    win = sliding_window_view(x, (h - k + 1, w - k + 1), axis=(2, 3))  # (n, c, k, k, oh, ow)
    return win.reshape(n, c * k * k, -1).transpose(0, 2, 1)


@functools.cache
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
        k = self.window
        views = [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]
        out = views[-1].copy()
        # np.maximum returns its second operand on a tie, so folding in
        # reverse window order keeps the first maximal position, as argmax does
        for v in reversed(views[:-1]):
            np.maximum(out, v, out=out)
        return out, x

    def windows(self, x: np.ndarray) -> np.ndarray:
        """x's windows as a copy, (n, c, h/k, w/k, k*k), each in row-major order."""
        n, c, h, w = x.shape
        k = self.window
        return (x.reshape(n, c, h // k, k, w // k, k)
                 .transpose(0, 1, 2, 4, 3, 5)
                 .reshape(n, c, h // k, w // k, k * k))

    def backward(self, dout: np.ndarray, x: np.ndarray):
        win = self.windows(x)
        dwin = np.zeros(win.shape, dtype=dout.dtype)
        np.put_along_axis(dwin, win.argmax(axis=-1)[..., None], dout[..., None], axis=-1)
        k = self.window
        dx = dwin.reshape(*win.shape[:4], k, k).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
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


class Linear:
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

    def forward(self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
        return x @ weight.T + bias, x

    def backward(self, dout: np.ndarray, cache, weight: np.ndarray, bias: np.ndarray):
        dw = dout.T @ cache
        db = dout.sum(axis=0)
        dx = dout @ weight
        return dx, {"weight": dw, "bias": db}


Layer = Conv2D | MaxPool2D | Flatten | ReLU | Linear
