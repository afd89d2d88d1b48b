"""Feedforward network: forward pass, cross-entropy loss, exact reverse-mode gradients.

Labels are 1-based (1..L) throughout. Parameters live on the layers;
`flatten`/`set_flat` move them to and from a single flat vector whose
layout is a pure function of the architecture (see ParameterLayout), so
flat indices are stable across processes for a fixed architecture.

The boundary `split_index` partitions the layer list into a feature
extractor (layers before it) and a head (layers from it on). The head
must be exactly Linear-ReLU-Linear-ReLU-Linear so a trap subnetwork can
be planted in it.

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

from dataclasses import dataclass

import numpy as np

from .layers import Conv2D, Flatten, Layer, Linear, MaxPool2D, ReLU, ShapeError

HEAD_PATTERN = (Linear, ReLU, Linear, ReLU, Linear)


@dataclass(frozen=True)
class LayoutEntry:
    layer_index: int
    name: str  # "weight" | "bias"
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class ParameterLayout:
    """Deterministic (layer, kind, coordinate) <-> flat index mapping."""

    def __init__(self, layers: list[Layer]):
        self.entries: list[LayoutEntry] = []
        offset = 0
        for i, layer in enumerate(layers):
            for name, arr in layer.params().items():
                self.entries.append(LayoutEntry(i, name, arr.shape, offset))
                offset += arr.size
        self.total = offset
        self._by_key = {(e.layer_index, e.name): e for e in self.entries}

    def entry(self, layer_index: int, name: str) -> LayoutEntry:
        try:
            return self._by_key[(layer_index, name)]
        except KeyError:
            raise KeyError(f"layer {layer_index} has no parameter {name!r}") from None

    def slice_of(self, layer_index: int, name: str) -> slice:
        e = self.entry(layer_index, name)
        return slice(e.offset, e.offset + e.size)

    def index_of(self, layer_index: int, name: str, *coords: int) -> int:
        e = self.entry(layer_index, name)
        if len(coords) != len(e.shape):
            raise ValueError(f"expected {len(e.shape)} coordinates for shape {e.shape}")
        return e.offset + int(np.ravel_multi_index(coords, e.shape))


class Network:
    """Layered model with a marked feature/head split.

    Single-writer: one training run owns and mutates a Network; flat
    parameter snapshots (plain ndarrays) can be shared freely.
    """

    def __init__(self, layers: list[Layer], split_index: int, num_classes: int,
                 input_shape: tuple[int, ...], dtype=np.float32):
        if not layers:
            raise ValueError("network needs at least one layer")
        if not 0 <= split_index < len(layers):
            raise ValueError(f"split_index {split_index} out of range")
        head = layers[split_index:]
        if len(head) != len(HEAD_PATTERN) or any(
                not isinstance(l, t) for l, t in zip(head, HEAD_PATTERN)):
            raise ValueError("head must be Linear-ReLU-Linear-ReLU-Linear")
        final = layers[-1]
        if final.out_dim != num_classes:
            raise ValueError(f"final layer emits {final.out_dim} logits, expected {num_classes}")

        # validate the whole chain and remember per-layer output shapes
        self.layer_shapes: list[tuple[int, ...]] = []
        shape = tuple(input_shape)
        for i, layer in enumerate(layers):
            try:
                shape = layer.out_shape(shape)
            except ShapeError as err:
                raise ShapeError(f"layer {i} ({layer.kind}): {err}") from None
            self.layer_shapes.append(shape)

        self.layers = layers
        self.split_index = split_index
        self.num_classes = num_classes
        self.input_shape = tuple(input_shape)
        self.dtype = np.dtype(dtype)
        self.layout = ParameterLayout(layers)

    # -- structure -----------------------------------------------------

    @property
    def feature_width(self) -> int:
        """Width of the flattened activation at the split boundary."""
        if self.split_index == 0:
            return int(np.prod(self.input_shape))
        return int(np.prod(self.layer_shapes[self.split_index - 1]))

    @property
    def extractor_params(self) -> slice:
        """Flat slice holding the feature extractor's parameters (layers before the split)."""
        return slice(0, self.layout.entry(self.split_index, "weight").offset)

    def head_linear_indices(self) -> tuple[int, int, int]:
        """Layer indices of the head's (first hidden, second hidden, final) Linear layers."""
        s = self.split_index
        return (s, s + 2, s + 4)

    def copy(self) -> "Network":
        dup = object.__new__(Network)
        dup.__dict__ = dict(self.__dict__)
        dup.layers = [self._copy_layer(l) for l in self.layers]
        dup.layout = ParameterLayout(dup.layers)
        return dup

    def _copy_layer(self, layer: Layer) -> Layer:
        if isinstance(layer, Conv2D):
            out = Conv2D(layer.in_channels, layer.out_channels, layer.kernel_size,
                         dtype=self.dtype)
        elif isinstance(layer, Linear):
            out = Linear(layer.in_dim, layer.out_dim, dtype=self.dtype)
        elif isinstance(layer, MaxPool2D):
            return MaxPool2D(layer.window)
        else:
            return type(layer)()
        for name, arr in layer.params().items():
            out.params()[name][...] = arr
        return out

    def astype(self, dtype) -> "Network":
        dup = self.copy()
        dup.dtype = np.dtype(dtype)
        for layer in dup.layers:
            for name in list(layer.params()):
                setattr(layer, name, layer.params()[name].astype(dtype))
        return dup

    # -- parameter vector ----------------------------------------------

    def flatten(self) -> np.ndarray:
        """Flat snapshot of all parameters (copy)."""
        out = np.empty(self.layout.total, dtype=self.dtype)
        for e in self.layout.entries:
            arr = self.layers[e.layer_index].params()[e.name]
            out[e.offset:e.offset + e.size] = arr.ravel()
        return out

    def set_flat(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.shape != (self.layout.total,):
            raise ValueError(f"parameter vector has length {values.shape}, "
                             f"layout expects ({self.layout.total},)")
        if values.dtype != self.dtype:
            raise ValueError(f"parameter vector dtype {values.dtype} != network {self.dtype}")
        for e in self.layout.entries:
            arr = self.layers[e.layer_index].params()[e.name]
            arr[...] = values[e.offset:e.offset + e.size].reshape(e.shape)

    def num_params(self) -> int:
        return self.layout.total

    def init_random(self, seed: int) -> None:
        """Fan-in-scaled uniform init of every parameter layer, seeded."""
        rng = np.random.default_rng(seed)
        for layer in self.layers:
            if layer.params():
                layer.init_random(rng)

    def init_dead(self) -> None:
        """All weights 0, all biases -1: every hidden ReLU is dead."""
        for layer in self.layers:
            if layer.params():
                layer.init_dead()

    # -- forward -------------------------------------------------------

    def _as_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.shape == self.input_shape:
            return x[None]
        if x.shape[1:] == self.input_shape:
            return x
        raise ShapeError(f"input shape {x.shape} does not match network input "
                         f"{self.input_shape} (single or batched)")

    def _run(self, h: np.ndarray, start: int, stop: int, keep_caches: bool):
        """Run layers start..stop-1 on h; caches[k] belongs to layer start+k."""
        caches = [] if keep_caches else None
        for i in range(start, stop):
            layer = self.layers[i]
            try:
                h, cache = layer.forward(h)
            except ShapeError as err:
                raise ShapeError(f"layer {i} ({layer.kind}): {err}") from None
            if keep_caches:
                caches.append(cache)
        return h, caches

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits for a single input (C,H,W) -> (L,) or a batch (N,...) -> (N,L)."""
        single = np.asarray(x).shape == self.input_shape
        xs = self._as_batch(x)
        logits, _ = self._run(xs, 0, len(self.layers), keep_caches=False)
        return logits[0] if single else logits

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Flattened activation at the split boundary; the input itself if split is 0."""
        single = np.asarray(x).shape == self.input_shape
        xs = self._as_batch(x)
        h, _ = self._run(xs, 0, self.split_index, keep_caches=False)
        h = h.reshape(h.shape[0], -1)
        return h[0] if single else h

    # -- loss and gradients ----------------------------------------------

    def _check_labels(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64).reshape(-1)
        if ys.size and (ys.min() < 1 or ys.max() > self.num_classes):
            raise ValueError(f"labels must lie in 1..{self.num_classes}")
        return ys

    def loss(self, x: np.ndarray, y) -> float:
        """Softmax cross-entropy, mean over the batch; log-sum-exp is max-shifted."""
        xs = self._as_batch(x)
        ys = self._check_labels(np.atleast_1d(y))
        if len(ys) != len(xs):
            raise ValueError("batch and label counts differ")
        logits, _ = self._run(xs, 0, len(self.layers), keep_caches=False)
        return float(np.mean(_cross_entropy(logits, ys)))

    def backward(self, x: np.ndarray, y, features: np.ndarray | None = None) -> np.ndarray:
        """Flat gradient of the mean cross-entropy over the batch.

        `features`, if given, must be bit for bit `forward_features(x)` under
        the current parameters. The head then starts from them, and the
        feature extractor runs only if the head sends a nonzero cotangent to
        the split.
        """
        xs = self._as_batch(x)
        ys = self._check_labels(np.atleast_1d(y))
        if len(ys) == 0:
            raise ValueError("empty batch")
        if len(ys) != len(xs):
            raise ValueError("batch and label counts differ")
        s = self.split_index
        extractor_caches = None
        if features is None:
            features, extractor_caches = self._run(xs, 0, s, keep_caches=True)
        elif len(features) != len(xs):
            raise ValueError("batch and feature counts differ")
        logits, head_caches = self._run(features, s, len(self.layers), keep_caches=True)
        dlogits = _softmax(logits)
        dlogits[np.arange(len(ys)), ys - 1] -= 1.0
        grad = np.zeros(self.layout.total, dtype=self.dtype)
        d = self._backprop(dlogits, head_caches, grad, first=s)
        if d.any():
            if extractor_caches is None:
                _, extractor_caches = self._run(xs, 0, s, keep_caches=True)
            self._backprop(d, extractor_caches, grad)
        return grad / len(ys)

    def logit_grad(self, x: np.ndarray, logit_index: int) -> np.ndarray:
        """Flat gradient of logits[logit_index] for one input (not through the loss)."""
        xs = self._as_batch(x)
        if xs.shape[0] != 1:
            raise ValueError("logit_grad takes a single input")
        logits, caches = self._run(xs, 0, len(self.layers), keep_caches=True)
        seed = np.zeros_like(logits)
        seed[0, logit_index] = 1.0
        grad = np.zeros(self.layout.total, dtype=self.dtype)
        self._backprop(seed, caches, grad)
        return grad

    def _backprop(self, d: np.ndarray, caches: list, grad: np.ndarray,
                  first: int = 0) -> np.ndarray:
        """Backpropagate d through layers first..first+len(caches)-1, writing into grad.

        Returns the cotangent at layer `first`'s input, or the all-zero
        cotangent the loop stopped at: nothing below it gets gradient.
        """
        for i in range(first + len(caches) - 1, first - 1, -1):
            if not d.any():
                break
            d, pgrads = self.layers[i].backward(d, caches[i - first])
            for name, g in pgrads.items():
                grad[self.layout.slice_of(i, name)] = g.ravel()
        return d


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(logits: np.ndarray, ys: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    return lse - logits[np.arange(len(ys)), ys - 1]


# -- stock architectures ------------------------------------------------


def conv_net(input_shape: tuple[int, int, int], num_classes: int,
             dtype=np.float32) -> Network:
    """Two conv/pool blocks then a three-layer dense head; split after Flatten.

    For (1,28,28) the flattened feature width is 256; for (3,32,32) it is 400.
    """
    c = input_shape[0]
    layers: list[Layer] = [
        Conv2D(c, 6, 5, dtype=dtype), ReLU(), MaxPool2D(2),
        Conv2D(6, 16, 5, dtype=dtype), ReLU(), MaxPool2D(2),
        Flatten(),
    ]
    probe = tuple(input_shape)
    for layer in layers:
        probe = layer.out_shape(probe)
    width = probe[0]
    layers += [Linear(width, 120, dtype=dtype), ReLU(),
               Linear(120, 84, dtype=dtype), ReLU(),
               Linear(84, num_classes, dtype=dtype)]
    return Network(layers, split_index=7, num_classes=num_classes,
                   input_shape=input_shape, dtype=dtype)


def small_conv_net(input_shape: tuple[int, int, int] = (1, 14, 14),
                   num_classes: int = 10, dtype=np.float32) -> Network:
    """Compact variant for synthetic data and fast tests (feature width 32)."""
    c = input_shape[0]
    layers: list[Layer] = [
        Conv2D(c, 4, 3, dtype=dtype), ReLU(), MaxPool2D(2),
        Conv2D(4, 8, 3, dtype=dtype), ReLU(), MaxPool2D(2),
        Flatten(),
    ]
    probe = tuple(input_shape)
    for layer in layers:
        probe = layer.out_shape(probe)
    width = probe[0]
    layers += [Linear(width, 24, dtype=dtype), ReLU(),
               Linear(24, 16, dtype=dtype), ReLU(),
               Linear(16, num_classes, dtype=dtype)]
    return Network(layers, split_index=7, num_classes=num_classes,
                   input_shape=input_shape, dtype=dtype)


def dense_net(in_dim: int, hidden: tuple[int, int], num_classes: int,
              dtype=np.float32) -> Network:
    """Flatten-only feature part: the head sees the raw input vector (split 1)."""
    layers: list[Layer] = [
        Flatten(),
        Linear(in_dim, hidden[0], dtype=dtype), ReLU(),
        Linear(hidden[0], hidden[1], dtype=dtype), ReLU(),
        Linear(hidden[1], num_classes, dtype=dtype),
    ]
    return Network(layers, split_index=1, num_classes=num_classes,
                   input_shape=(in_dim,), dtype=dtype)
