"""Feedforward network: forward pass, cross-entropy loss, exact reverse-mode gradients.

Labels are 1-based (1..L) and inputs are (n, *input_shape) batches
throughout. Parameters are stored once, in the flat vector
`Network.params`. Layers only declare their parameter shapes; the
network lays them out, allocates the vector as zeros in its dtype, and
binds each Conv2D/Linear `weight` and `bias` to a reshaped view of its
slice, so a write through either shows in the other. The layout is a
pure function of the architecture (see ParameterLayout), so flat indices
are stable across processes for a fixed architecture.

The caller gives only the feature extractor's layers. The network
builds the head itself, Linear-ReLU-Linear-ReLU-Linear sized from the
extractor's output, so every network has the head a trap subnetwork is
planted in. `split_index` is the extractor's length: the extractor is
the layers before it and the head the five from it on.

Backward passes let exact zeros skip work, without changing a bit:

- The reverse loop stops at the first all-zero cotangent (+0.0 and -0.0
  alike). Every gradient below that point would be zero, and the
  gradient buffer already holds +0.0 there. The layers would also give
  +0.0, never -0.0: numpy's sums and matrix products accumulate from
  +0.0. The one difference is a non-finite activation below the stop,
  where 0 * inf would have given NaN.
- `backward` can start from the batch's split activations when the
  caller still holds them. It then runs the head first, and runs the
  extractor forward with caches, and backpropagates into it, only when
  the head sends a nonzero cotangent to the split. A planted trap that
  the batch does not fire sends none.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .layers import Conv2D, Flatten, Layer, Linear, MaxPool2D, ReLU, ShapeError

@dataclass(frozen=True)
class LayoutEntry:
    layer_index: int
    name: str  # "weight" | "bias"
    shape: tuple[int, ...]
    offset: int
    stop: int  # offset + size, computed once when the layout is built


class ParameterLayout:
    """Deterministic (layer, kind, coordinate) <-> flat index mapping."""

    def __init__(self, layers: list[Layer]):
        self.entries: list[LayoutEntry] = []
        offset = 0
        for i, layer in enumerate(layers):
            for name, shape in layer.param_shapes.items():
                stop = offset + math.prod(shape)
                self.entries.append(LayoutEntry(i, name, shape, offset, stop))
                offset = stop
        self.total = offset
        self._by_key = {(e.layer_index, e.name): e for e in self.entries}

    def entry(self, layer_index: int, name: str) -> LayoutEntry:
        try:
            return self._by_key[(layer_index, name)]
        except KeyError:
            raise KeyError(f"layer {layer_index} has no parameter {name!r}") from None

    def slice_of(self, layer_index: int, name: str) -> slice:
        e = self.entry(layer_index, name)
        return slice(e.offset, e.stop)

    def index_of(self, layer_index: int, name: str, *coords: int) -> int:
        e = self.entry(layer_index, name)
        if len(coords) != len(e.shape):
            raise ValueError(f"expected {len(e.shape)} coordinates for shape {e.shape}")
        return e.offset + int(np.ravel_multi_index(coords, e.shape))


class Network:
    """A feature extractor followed by the trap head the constructor builds.

    `params` is the one flat parameter vector; its dtype is the network's.
    The constructor allocates it as zeros and binds the layers'
    `weight`/`bias` to views into it, so the layers belong to the network
    from then on. Single-writer: one training run owns and mutates a
    Network, and `with_params` gives each run its own.
    """

    def __init__(self, extractor: list[Layer], input_shape: tuple[int, ...],
                 hidden: tuple[int, int], num_classes: int, dtype=np.float32):
        self.input_shape = tuple(input_shape)
        self.split_index = len(extractor)
        shape = _out_shape(extractor, self.input_shape, first=0)
        self.feature_width = math.prod(shape)  # the flattened activation at the split
        head = [Linear(self.feature_width, hidden[0]), ReLU(),
                Linear(hidden[0], hidden[1]), ReLU(),
                Linear(hidden[1], num_classes)]
        _out_shape(head, shape, first=self.split_index)
        self.layers = [*extractor, *head]
        self.num_classes = num_classes
        self.layout = ParameterLayout(self.layers)
        self.params = np.zeros(self.layout.total, dtype=dtype)
        self._view_params()

    def _view_params(self) -> None:
        """Rebind every layer's weight and bias to its slice of `params`."""
        for e in self.layout.entries:
            setattr(self.layers[e.layer_index], e.name,
                    self.params[e.offset:e.stop].reshape(e.shape))

    # -- structure -----------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    @property
    def extractor_params(self) -> slice:
        """Flat slice holding the feature extractor's parameters (layers before the split)."""
        return slice(0, self.layout.entry(self.split_index, "weight").offset)

    def head_linear_indices(self) -> tuple[int, int, int]:
        """Layer indices of the head's (first hidden, second hidden, final) Linear layers."""
        s = self.split_index
        return (s, s + 2, s + 4)

    # -- parameter vector ----------------------------------------------

    def with_params(self, values: np.ndarray) -> "Network":
        """This architecture over a fresh copy of `values`, in `values`' dtype.

        The layers are shallow copies bound to the copy, so neither this
        network nor `values` is shared with the result.
        """
        values = np.asarray(values)
        if values.shape != (self.layout.total,):
            raise ValueError(f"parameter vector has length {values.shape}, "
                             f"layout expects ({self.layout.total},)")
        dup = copy.copy(self)
        dup.params = values.copy()
        dup.layers = [copy.copy(layer) for layer in self.layers]
        dup._view_params()
        return dup

    def init_random(self, seed: int) -> None:
        """Fan-in-scaled uniform init of every parameter layer, seeded."""
        rng = np.random.default_rng(seed)
        for layer in self.layers:
            if layer.param_shapes:
                layer.init_random(rng)

    # -- forward -------------------------------------------------------

    def _as_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape} is not a batch (n, *{self.input_shape})")
        return x

    def _run(self, h: np.ndarray, start: int, stop: int, keep_caches: bool):
        """Run layers start..stop-1 on h; caches[k] belongs to layer start+k."""
        caches = [] if keep_caches else None
        for layer in self.layers[start:stop]:
            h, cache = layer.forward(h)
            if keep_caches:
                caches.append(cache)
        return h, caches

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Flattened split activations, (n, feature_width); the inputs if split is 0."""
        h, _ = self._run(self._as_batch(x), 0, self.split_index, keep_caches=False)
        return h.reshape(h.shape[0], -1)

    # -- loss and gradients ----------------------------------------------

    def _check_labels(self, ys: np.ndarray, batch: int) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64).reshape(-1)
        if len(ys) != batch:
            raise ValueError("batch and label counts differ")
        if ys.size and (ys.min() < 1 or ys.max() > self.num_classes):
            raise ValueError(f"labels must lie in 1..{self.num_classes}")
        return ys

    def loss(self, x: np.ndarray, y) -> float:
        """Softmax cross-entropy, mean over the batch; log-sum-exp is max-shifted."""
        xs = self._as_batch(x)
        ys = self._check_labels(y, len(xs))
        logits, _ = self._run(xs, 0, len(self.layers), keep_caches=False)
        return float(np.mean(_cross_entropy(logits, ys)))

    def backward(self, x: np.ndarray, y, features: np.ndarray | None = None) -> np.ndarray:
        """Flat gradient of the mean cross-entropy over the batch.

        `features`, if given, must be bit for bit `forward_features(x)` under
        the current parameters, so of shape (n, feature_width); any other
        shape raises ShapeError. The head then starts from them, and the
        feature extractor runs only if the head sends a nonzero cotangent to
        the split.
        """
        xs = self._as_batch(x)
        ys = self._check_labels(y, len(xs))
        if len(ys) == 0:
            raise ValueError("empty batch")
        s = self.split_index
        extractor_caches = None
        if features is None:
            features, extractor_caches = self._run(xs, 0, s, keep_caches=True)
        elif features.shape != (len(xs), self.feature_width):
            raise ShapeError(f"features of shape {features.shape} are not "
                             f"({len(xs)}, {self.feature_width})")
        logits, head_caches = self._run(features, s, len(self.layers), keep_caches=True)
        dlogits = _softmax(logits)
        dlogits[np.arange(len(ys)), ys - 1] -= 1.0
        grad = np.zeros(self.layout.total, dtype=self.dtype)
        d = self._backprop(dlogits, head_caches, grad, len(ys), first=s)
        if d.any():
            if extractor_caches is None:
                _, extractor_caches = self._run(xs, 0, s, keep_caches=True)
            self._backprop(d, extractor_caches, grad, len(ys))
        return grad

    def _backprop(self, d: np.ndarray, caches: list, grad: np.ndarray, batch: int,
                  first: int = 0) -> np.ndarray:
        """Backpropagate d through layers first..first+len(caches)-1, writing each
        parameter gradient divided by `batch` into grad.

        Returns the cotangent at layer `first`'s input, or the all-zero
        cotangent the loop stopped at: nothing below it gets gradient.
        """
        for i in range(first + len(caches) - 1, first - 1, -1):
            if not d.any():
                break
            d, pgrads = self.layers[i].backward(d, caches[i - first])
            for name, g in pgrads.items():
                np.divide(g.ravel(), batch, out=grad[self.layout.slice_of(i, name)])
        return d


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(logits: np.ndarray, ys: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    return lse - logits[np.arange(len(ys)), ys - 1]


def _out_shape(layers: list[Layer], shape: tuple[int, ...], first: int) -> tuple[int, ...]:
    """Output shape of `layers` on `shape`; a ShapeError names the failing layer
    by its index in the network, where `layers[0]` sits at `first`."""
    for i, layer in enumerate(layers, first):
        try:
            shape = layer.out_shape(shape)
        except ShapeError as err:
            raise ShapeError(f"layer {i} ({layer.kind}): {err}") from None
    return shape


# -- stock architectures ------------------------------------------------


def _two_blocks(in_channels: int, channels: tuple[int, int], k: int) -> list[Layer]:
    """Two conv/ReLU/pool blocks and Flatten: the stock feature extractor."""
    c1, c2 = channels
    return [Conv2D(in_channels, c1, k), ReLU(), MaxPool2D(2),
            Conv2D(c1, c2, k), ReLU(), MaxPool2D(2), Flatten()]


def conv_net(input_shape: tuple[int, int, int], num_classes: int,
             dtype=np.float32) -> Network:
    """Two conv/pool blocks then a three-layer dense head; split after Flatten.

    For (1,28,28) the flattened feature width is 256; for (3,32,32) it is 400.
    """
    return Network(_two_blocks(input_shape[0], (6, 16), 5), input_shape, (120, 84),
                   num_classes, dtype)


def small_conv_net(input_shape: tuple[int, int, int] = (1, 14, 14),
                   num_classes: int = 10, dtype=np.float32) -> Network:
    """Compact variant for synthetic data and fast tests (feature width 32)."""
    return Network(_two_blocks(input_shape[0], (4, 8), 3), input_shape, (24, 16),
                   num_classes, dtype)


def dense_net(in_dim: int, hidden: tuple[int, int], num_classes: int,
              dtype=np.float32) -> Network:
    """Flatten-only feature part: the head sees the raw input vector (split 1)."""
    return Network([Flatten()], (in_dim,), hidden, num_classes, dtype)
