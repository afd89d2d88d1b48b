"""Certifying, without computing their features, that batches leave a trap dead.

A planted trap reads its input through one live row r of the head's
second hidden layer. If that row's pre-activation is at most 0 for every
sample of a batch, and every other row is all zero with a bias at most
0, the second hidden ReLU is zero for the whole batch and
`Network.backward` writes only the final bias. `dead_screen` proves
this for each sample once per client call from one feature column,
computed for every sample through that column's receptive field instead
of through the whole extractor. The crop pass computes it in its own
arithmetic, not the full forward's (item 1).
`Screen.step` then decides a batch from its samples' bounds and the
current b2, which the target's firing and Adam's momentum both move,
and computes a certified batch's gradient itself (the last paragraph). When
a batch is not certified, `Screen.step` first refines, once each, every
sample of the call that the current b2 leaves uncertified and that was
not refined before: the crops of every column that the units U below
read, for those samples only, go through the crop pass as one batch, and
the sample's bound is lowered to the one summed over U. Only a batch
holding a sample that may fire the whole trap then calls `backward`.

The screen needs an extractor of Conv2D-ReLU blocks, each optionally
followed by one MaxPool2D, then one Flatten, as the stock networks'
are. `_crop_plan` reads the crop pass from that form, together with
the size and stride of every feature's crop, and `_field` gives each
feature its crop and its channel of the last conv. Any other extractor
gets no screen.

Everything else is read from the parameters, never from a `TrapSpec`:

- r is the only second-hidden row with a nonzero weight, and none of
  its weights is positive;
- U is the units r reads that read exactly one column; a unit that
  reads several columns, or none, is left out of every sum (item 4);
- j is the column that U's first unit reads, and U_j ⊆ U the units of
  U that read j;
- U is not empty, every other row's bias is at most 0, the head and
  every pixel are finite, and the bounds below stay far from overflow.

Anything else gives no screen, and every batch calls `backward`. The
bound is proved for the parameters below b2's offset, which a step has
not written while the client's written suffix `lo` starts at or above
it (`Screen.stop`). Nothing below `lo` has changed since the screen was
built, so a step reads again only b2's live row, the finiteness of
`params[lo:]` and, while `lo` is below the final bias, b2's other rows.
The crop pass reads copies of the extractor's parameters, made when the
screen is built, and refinement runs only while the bound holds, so the
parameters it computes from are the current ones.

The certificate. u is the unit roundoff of the network's dtype, τ its
smallest subnormal, and γ_K = Ku/(1 - Ku). A K-term dot product plus a
bias add, computed in any order (any batch shape, gather or GEMM
blocking, with or without FMA), is within γ_{K+1}(Σ|w||x| + |b|) +
(K+1)τ of its exact value, where τ covers products that underflow
(Higham, Accuracy and Stability of Numerical Algorithms, §3.1).

1. E, the extractor's error. Let x* be the activations computed in exact
   arithmetic from the same float inputs and parameters, and x̂ the
   float ones. At the input, M = max|x| over every pixel of every
   sample and e = 0. A Conv2D or Linear layer with rows w_o of fan-in K
   and biases b_o gives M' = max_o(‖w_o‖₁M + |b_o|) and
   e' = max_o(‖w_o‖₁e + γ_{K+1}(‖w_o‖₁(M + e) + |b_o|)) + (K+1)τ,
   since |x̂| ≤ M + e. ReLU and max-pool compute exactly and are
   1-Lipschitz in the max norm, so M and e pass through them, and
   Flatten moves values only. E is e at the split and F = M there:
   every feature of every sample is within E of its exact value, for
   any batch. No partial sum overflows while every layer's M + e stays
   below half the dtype's largest value, which the screen requires.
   The crop pass (`_crop_values`) computes the same layers in another
   form, and E covers it too:
   - Each Conv2D is one GEMM by a banded (Toeplitz) weight. An output's
     row of it holds that output's K = c·k·k weights and exact zeros
     elsewhere. A zero weight times a finite value is ±0, and adding ±0
     to a partial sum never rounds: it returns the sum, up to the sign
     of a zero sum. So each output is its K products summed in some
     order, and γ_{K+1} still counts the roundings with the bias add.
   - A conv's max-pools run on its raw sums, before its bias and ReLU.
     Rounding is monotone, so fl(max_i s_i + b) = max_i fl(s_i + b), and
     ReLU commutes with max: the values are those of the layers run in
     their order on the same sums.
   - The last conv computes only the output channels its fields read,
     each output as above.
2. Crop against full. A column's exact value f* depends only on its
   receptive field, so the crop pass's value c and the full forward's a
   are both within E of f*: |c - a| ≤ 2E, for every column, also when
   its crop runs in one batch with other fields' crops (item 1 holds
   for any batch).
3. The single-column units. Unit u ∈ U reads column j_u with weight
   w_u and bias β_u, and has zero weight elsewhere, so the full
   forward's pre-activation is within
   δ_u = γ_{K1+1}(|w_u||a_u| + |β_u|) + (K1+1)τ of w_u a_u + β_u
   (K1 = feature width, a_u the full forward's j_u), and
   |a_u| ≤ |c_u| + 2E for c_u the crop pass's j_u. The Lipschitz term
   |w_u a_u - w_u c_u| ≤ |w_u| 2E carries the crop's error through the
   unit. ReLU is monotone, so the full forward's output is
   h_u ≥ L_u = max(w_u c_u + β_u - |w_u| 2E - δ_u, 0), with |c_u| + 2E
   in δ_u.
4. The live row. Every weight v_u of r is ≤ 0 and every ReLU output is
   ≥ 0, so every product is ≤ 0. Rounding a sum of non-positive terms
   moves it toward zero by a factor of at least 1 - u per rounding, so
   the float sum S over all K2 = hidden[0] units satisfies
   S ≤ (1 - γ_{K2}) Σ_u v_u h_u + K2 τ, and dropping any units, whose
   terms are ≤ 0, only raises the bound: for any V ⊆ U,
   S ≤ (1 - γ_{K2}) Σ_{u∈V} v_u L_u + K2 τ = bound_V. The one-column
   bound takes V = U_j, the units of U that read j; the all-column bound
   takes V = U. Each is a certificate on its own, so their minimum is
   one too: a refined sample keeps the lower of the two. Rounding is
   monotone and keeps the sign, so bound < -b2_r gives r's
   pre-activation fl(S + b2_r) ≤ 0. An all-zero row's products are
   exact zeros (every first hidden output is finite: the screen
   requires ‖W1_u‖₁(F + E) + |β_u| below half the largest value for
   every unit), so its pre-activation is b2 up to the sign of zero, and
   b2 ≤ 0 makes its ReLU 0.
5. float64. `bound_V` is evaluated in float64 from the c_u. With
   P_u = |w_u|(|c_u| + 2E) + |β_u| + (K1+1)τ, every term of it is at
   most 3 Σ_{u∈V} |v_u| P_u + K2 τ in absolute value, and passes through
   at most m = |V| + 16 roundings, counted over the set the bound sums,
   so at most |U| + 16; the evaluation is within
   γ64_m (3 Σ_{u∈V} |v_u| P_u + K2 τ) + m τ64 / 2 of the exact
   expression, τ64 covering float64 products that underflow. The
   screen adds 6 γ64_m (Σ_{u∈V} |v_u| P_u + K2 τ) + m τ64, which also
   covers P_u's own rounding. F, E and the overflow checks are sums and
   products of non-negative numbers, so each is multiplied by
   1 + 2γ64_n for the n roundings on its longest path. The comparison
   bound < -b2_r is exact: b2 widens to float64 exactly, and b2_r is
   read again for every batch.

The dead step. With the second hidden ReLU zero, the logits are 0 + b3
in every row (the product with the final weight accumulates from +0.0),
so `backward`'s cotangent is d = softmax(b3) - onehot(y). `Screen.step`
computes the softmax on the one row 0 + b3, through `backward`'s own
`network._softmax`, and repeats it to B rows: numpy's softmax of each
row reads that row alone. The final weight's gradient d.T @ 0 is +0.0
and the ReLU stops `backward`'s loop, so the final bias gets d.sum(0) / B,
summed over the B rows as `backward` sums them, and every other entry
+0.0. The final weight is read only through 0 + b3, so it and b3 must
be finite: the finiteness read of `params[lo:]` covers what a step can
have written.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .network import Network, _softmax

_CROP_CHUNK = 128  # crops per crop-pass batch: bounds the gathered rows' memory


@dataclass
class Screen:
    """Per-sample certificates for one client call, and the gradient of a
    batch they certify (see the module docstring)."""

    bound: np.ndarray    # (n,) float64: bound[i] < -b2[row] proves sample i dead
    row: int             # flat index of the live row's bias in b2
    others: np.ndarray   # flat indices of every other row's bias in b2
    stop: int            # b2's offset: the bound holds while lo >= stop
    final: slice         # the final bias, the one slice a dead step writes
    grad: np.ndarray     # the dead steps' gradient: +0.0 outside `final`
    refine: Callable[[np.ndarray], np.ndarray]  # samples -> their all-column bound
    refined: np.ndarray  # (n,) bool: the sample's bound already had the all-column one

    def step(self, params: np.ndarray, lo: int, rows: np.ndarray,
             ys: np.ndarray) -> tuple[np.ndarray, int] | None:
        """`backward`'s gradient of the batch of samples `rows`, with labels
        `ys`, and the index its writes start at, if the batch is certified dead
        under the current `params`, whose written suffix starts at `lo`; None
        if it is not. A batch that is not first refines every sample of the
        call still uncertified under the current b2. b2's live row is read
        from `params` on every step; every other entry below `lo` must be as
        the screen was built on it. `ys` must be labels that
        `Network._check_labels` returned: nothing here checks them. The
        gradient is the screen's one buffer, whose final bias each dead step
        rewrites."""
        if not (lo >= self.stop and np.isfinite(params[lo:]).all()
                and (lo >= self.final.start or (params[self.others] <= 0).all())):
            return None
        threshold = -params[self.row]
        if not self.bound[rows].max() < threshold:
            fresh = np.flatnonzero(~self.refined & (self.bound >= threshold))
            if fresh.size:
                self.refined[fresh] = True
                self.bound[fresh] = np.minimum(self.bound[fresh], self.refine(fresh))
            if not self.bound[rows].max() < threshold:
                return None
        b3 = params[self.final]
        d = np.repeat(_softmax(np.zeros((1, len(b3)), b3.dtype) + b3), len(ys), axis=0)
        d[np.arange(len(ys)), ys - 1] -= 1.0
        np.divide(d.sum(axis=0), len(ys), out=self.grad[self.final])
        return self.grad, self.final.start


def extractor_bound(net: Network, max_input: float) -> tuple[float, float]:
    """(F, E): every feature's exact value is at most F in magnitude, and its
    float value, in any batch, is within E of it, for inputs of magnitude at
    most `max_input` (items 1 and 5 of the module docstring). Both are inf
    where a layer's values could come near the dtype's overflow."""
    u, tiny = _roundoff(net.dtype)
    m, e, path = max_input, 0.0, 0
    for views in net.views[:net.split_index]:
        if views:
            w, b = views
            w = w.reshape(len(w), -1)
            k = w.shape[1]
            path += k + 8
            rows = np.abs(w).sum(axis=1, dtype=np.float64)
            bias = np.abs(b).astype(np.float64)
            e = float((rows * e + _gamma(k + 1, u) * (rows * (m + e) + bias)).max()
                      + (k + 1) * tiny)
            m = float((rows * m + bias).max())
            if not _inflate(m + e, path) < _overflow(net.dtype):
                return math.inf, math.inf
    return _inflate(m, path), _inflate(e, path)


def dead_screen(net: Network, xs: np.ndarray) -> Screen | None:
    """The screen for training `net`'s current parameters on `xs`, or None
    when they do not have the shape the certificate needs. Raises ShapeError,
    as `backward` does, unless `xs` is a batch of `net`'s input shape: a crop
    would fit in a wider or deeper image. The screen's crop pass computes
    from copies of `net`'s extractor parameters, which refinement requires
    unwritten."""
    xs = net._as_batch(xs)
    i1, i2, i3 = net.head_linear_indices()
    (w1, b1), (w2, b2) = net.views[i1], net.views[i2]
    live = np.flatnonzero((w2 != 0).any(axis=1))
    if len(live) != 1 or (w2[live[0]] > 0).any():
        return None
    row = int(live[0])
    units = np.flatnonzero(w2[row])
    single = units[(w1[units] != 0).sum(axis=1) == 1]  # U
    columns, position = np.unique(np.argmax(w1[single] != 0, axis=1), return_inverse=True)
    plan = _crop_plan(net)
    if (plan is None or not len(columns) or (np.delete(b2, row) > 0).any()
            or not np.isfinite(net.params[net.extractor_params.stop:]).all()):
        return None
    fields = [_field(plan, j) for j in columns]
    max_input = max(float(xs.max()), -float(xs.min()))  # NaN if any pixel is
    if not max_input < math.inf:
        return None
    features, error = extractor_bound(net, max_input)
    if not features + error < _overflow(net.dtype):
        return None
    width = w1.shape[1]
    hidden = np.abs(w1).sum(axis=1, dtype=np.float64) * (features + error) + np.abs(b1)
    if not _inflate(hidden.max(), width + 4) < _overflow(net.dtype):
        return None

    def certificate(units: np.ndarray, values: np.ndarray) -> np.ndarray:
        """bound_V for V = `units`, each unit's crop value a column of `values`
        (items 3-5 of the module docstring)."""
        u, tiny = _roundoff(net.dtype)
        cols = np.argmax(w1[units] != 0, axis=1)
        w = w1[units, cols].astype(np.float64)
        beta = b1[units].astype(np.float64)
        v = w2[row, units].astype(np.float64)
        two_e, t1 = 2 * error, (width + 1) * tiny
        size = np.abs(w) * (np.abs(values) + two_e) + np.abs(beta) + t1   # P_u, (n, |V|)
        low = np.maximum(values * w + beta - np.abs(w) * two_e
                         - (_gamma(width + 1, u) * size + t1), 0)         # L_u
        k2, m = w2.shape[1], len(units) + 16
        u64, tiny64 = _roundoff(np.dtype(np.float64))
        return ((1 - _gamma(k2, u)) * (low @ v) + k2 * tiny
                + 6 * _gamma(m, u64) * (size @ np.abs(v) + k2 * tiny) + m * tiny64)

    def refine(samples: np.ndarray) -> np.ndarray:
        return certificate(single, _crop_pass(plan, xs[samples], fields)[:, position])

    first = position == position[0]  # U_j: the units of U that read j
    bound = certificate(single[first], _crop_pass(plan, xs, [fields[position[0]]]))
    entry = net.layout.entry(i2, "bias")
    flat = np.arange(entry.offset, entry.stop)
    return Screen(bound=bound, row=int(flat[row]), others=np.delete(flat, row), stop=entry.offset,
                  final=net.layout.slice_of(i3, "bias"), grad=np.zeros_like(net.params),
                  refine=refine, refined=np.zeros(len(xs), dtype=bool))


def _crop_pass(plan: _Plan, xs: np.ndarray,
               fields: list[tuple[tuple[slice, ...], int]]) -> np.ndarray:
    """The extractor's value of each `(box, channel)` field for every sample of
    `xs`, from the sample's crop `box` run through `plan`: (n, len(fields))
    float64. Every field's crops of `_CROP_CHUNK // len(fields)` samples, one
    at least, go through the plan as one batch."""
    chunk = max(1, _CROP_CHUNK // len(fields))
    channels = [channel for _, channel in fields]
    values = []
    for i in range(0, len(xs), chunk):
        views = [np.moveaxis(xs[(slice(i, i + chunk), *box)], 1, -1) for box, _ in fields]
        # C order: np.stack alone would keep the views' channel-first memory order
        crops = np.stack(views, out=np.empty((len(views), *views[0].shape), xs.dtype))
        values.append(_crop_values(plan, crops, channels))
    return np.concatenate(values, axis=1).T.astype(np.float64)


class _Block(NamedTuple):
    """One Conv2D of the extractor, the ReLU after it and the MaxPool2D, if any,
    after that."""

    kernel: int
    pool: int            # the MaxPool2D's window; 1 without one
    weight: np.ndarray   # Toeplitz (k*w*c, ow*oc); (oc, k*w*c, ow) for the last conv
    bias: np.ndarray     # tiled to the pooled row, (pw*oc,); (oc,) for the last conv


class _Plan(NamedTuple):
    """The extractor's blocks and the geometry of every feature's crop."""

    blocks: list[_Block]
    size: int                    # a feature's crop is size x size pixels, every channel
    stride: int                  # between the crops of neighbouring features
    shape: tuple[int, int, int]  # the (c, h, w) that Flatten reads


def _crop_plan(net: Network) -> _Plan | None:
    """`net`'s extractor as the crop pass runs it on channel-last crops (item 1
    of the module docstring), or None unless the extractor is Conv2D-ReLU
    blocks, each optionally followed by one MaxPool2D, then one Flatten. The
    Toeplitz weights and biases are copies of the parameters they are built
    from."""
    layers = net.layers[:net.split_index]
    kinds = [layer.kind for layer in layers]
    convs, i = [], 0   # (layer index, pool window) of each block
    while kinds[i:i + 2] == ["conv2d", "relu"]:
        pooled = kinds[i + 2:i + 3] == ["maxpool2d"]
        convs.append((i, layers[i + 2].window if pooled else 1))
        i += 2 + pooled
    if not convs or kinds[i:] != ["flatten"]:
        return None
    size, stride = 1, 1   # one cell that Flatten reads, walked back to the input
    for i, pool in reversed(convs):
        size, stride = size * pool + layers[i].kernel_size - 1, stride * pool
    blocks, w = [], size  # a Toeplitz reads whole rows of the crop
    for i, pool in convs:
        weight, bias = net.views[i]
        oc, c, kernel, _ = weight.shape
        ow = w - kernel + 1
        toeplitz = np.zeros((kernel, w, c, ow, oc), net.dtype)
        for j in range(ow):   # output column j reads input columns j..j+k-1
            toeplitz[:, j:j + kernel, :, j, :] = weight.transpose(2, 3, 1, 0)
        w = ow // pool
        if i == convs[-1][0]:   # each field reads one output channel of the last conv
            toeplitz = np.ascontiguousarray(toeplitz.transpose(4, 0, 1, 2, 3))
            blocks.append(_Block(kernel, pool, toeplitz.reshape(oc, -1, ow), bias.copy()))
        else:
            blocks.append(_Block(kernel, pool, toeplitz.reshape(-1, ow * oc), np.tile(bias, w)))
    # a cell exists where its crop fits in the input
    cells = ((side - size) // stride + 1 for side in net.input_shape[1:])
    return _Plan(blocks, size, stride, (oc, *cells))


def _field(plan: _Plan, column: int) -> tuple[tuple[slice, ...], int]:
    """The crop `box` of a sample that feature `column` depends on, and the
    last conv's output channel the feature is: `forward_features(x)[:, column]`
    is, up to rounding, the extractor's value on `x[(slice(None), *box)]` at
    that channel."""
    channel, *cell = (int(i) for i in np.unravel_index(column, plan.shape))
    return (slice(None), *(slice(i * plan.stride, i * plan.stride + plan.size)
                           for i in cell)), channel


def _crop_values(plan: _Plan, crops: np.ndarray, channels: list[int]) -> np.ndarray:
    """`plan` run on `crops`, (F, m, *crop) channel-last with field f's crops
    at `crops[f]`: (F, m), each crop's value at its field's channel.

    A conv is one GEMM of its rows, (m*oh, k*w*c), each output row's k input
    rows whole, by its Toeplitz weight; its max-pool runs before its bias
    and ReLU, and the last conv computes each field's own channel only
    (item 1 of the module docstring)."""
    fields, m = crops.shape[:2]
    x = crops.reshape(fields * m, *crops.shape[2:])
    for block in plan.blocks:
        n, h, w, c = x.shape
        k, s = block.kernel, x.strides
        oh, ow = h - k + 1, w - k + 1
        rows = as_strided(x, (n, oh, k, w, c), (s[0], s[1], s[1], s[2], s[3]),
                          writeable=False).reshape(n * oh, k * w * c)
        if block is plan.blocks[-1]:
            x = np.matmul(rows.reshape(fields, -1, rows.shape[1]), block.weight[channels])
            x = (_max_pool(x.reshape(n, oh, ow, 1), block.pool).reshape(fields, m)
                 + block.bias[channels][:, None])
        else:
            x = _max_pool((rows @ block.weight).reshape(n, oh, ow, -1), block.pool)
            flat = x.reshape(-1, len(block.bias))
            np.add(flat, block.bias, out=flat)
        x = np.maximum(x, 0, out=x)
    return x


def _max_pool(x: np.ndarray, p: int) -> np.ndarray:
    """Max over p x p windows of channel-last (n, h, w, c): rows, then columns,
    each by `np.maximum` over the window's contiguous parts."""
    n, h, w, c = x.shape
    x = _fold_max(x.reshape(n * h // p, p, w * c))
    return _fold_max(x.reshape(n * h // p * w // p, p, c)).reshape(n, h // p, w // p, c)


def _fold_max(x: np.ndarray) -> np.ndarray:
    """The max over axis 1 of (a, p, b)."""
    out = x[:, 0]
    for i in range(1, x.shape[1]):
        out = np.maximum(out, x[:, i])
    return out


def _gamma(k: int, u: float) -> float:
    """γ_k = ku / (1 - ku), the relative error bound of k roundings."""
    return k * u / (1 - k * u)


def _roundoff(dtype: np.dtype) -> tuple[float, float]:
    """Unit roundoff and smallest subnormal."""
    info = np.finfo(dtype)
    return float(info.eps) / 2, float(info.smallest_subnormal)


def _overflow(dtype: np.dtype) -> float:
    """Half the largest value: below it a sum rounded up by 1 + γ stays finite."""
    return float(np.finfo(dtype).max) / 2


def _inflate(value, roundings: int):
    """An upper bound on the exact value of a float64 sum or product of
    non-negative numbers that went through at most `roundings` roundings."""
    return value * (1 + 2 * _gamma(roundings, 2.0 ** -53))
