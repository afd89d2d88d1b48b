"""Certifying, without computing their features, that batches leave a trap dead.

A planted trap reads its input through one live row r of the head's
second hidden layer. If that row's pre-activation is at most 0 for
every sample of a batch, and every other row is all zero with a bias at
most 0, the second hidden ReLU is zero for the whole batch and
`Network.backward` writes only the final bias (`Network.dead_backward`).
`dead_screen` proves this for each sample once per client call from one
feature column, computed for every sample through that column's
receptive field (`Network.receptive_field`) instead of through the
whole extractor. `Screen.dead` then decides a batch from the current b2,
which the target's firing and Adam's momentum both move.

Everything is read from the parameters, never from a `TrapSpec`:

- r is the only second-hidden row with a nonzero weight, and none of
  its weights is positive;
- the column j is the one the first unit that r reads reads, and the
  screened units U are the units r reads that read j; each reads only j;
- the head is finite, every pixel is finite, and the bounds below stay
  far from the dtype's overflow.

Anything else gives no screen, and every batch calls `backward`. The
bound is proved for the parameters below b2's offset, which a step has
not written while the client's written suffix `lo` starts at or above
it (`Screen.stop`).

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
2. Crop against full. The column's exact value f* depends only on its
   receptive field, so the crop pass's value c and the full forward's a
   are both within E of f*: |c - a| ≤ 2E.
3. The screened units. Unit u ∈ U has weight w_u on column j and bias
   β_u, and zero weight elsewhere, so the full forward's pre-activation
   is within δ_u = γ_{K1+1}(|w_u||a| + |β_u|) + (K1+1)τ of w_u a + β_u
   (K1 = feature width), and |a| ≤ |c| + 2E. The Lipschitz term
   |w_u a - w_u c| ≤ |w_u| 2E carries the crop's error through the unit.
   ReLU is monotone, so the full forward's output is
   h_u ≥ L_u = max(w_u c + β_u - |w_u| 2E - δ_u, 0), with |c| + 2E in δ_u.
4. The live row. Every weight v_u of r is ≤ 0 and every ReLU output is
   ≥ 0, so every product is ≤ 0. Rounding a sum of non-positive terms
   moves it toward zero by a factor of at least 1 - u per rounding, so
   the float sum S over all K2 = hidden[0] units satisfies
   S ≤ (1 - γ_{K2}) Σ_u v_u h_u + K2 τ, and dropping the units outside U,
   whose terms are ≤ 0, only raises the bound:
   S ≤ (1 - γ_{K2}) Σ_{u∈U} v_u L_u + K2 τ = bound. Rounding is monotone
   and keeps the sign, so bound < -b2_r gives r's pre-activation
   fl(S + b2_r) ≤ 0. An all-zero row's products are exact zeros (every
   first hidden output is finite: the screen requires
   ‖W1_u‖₁(F + E) + |β_u| below half the largest value for every unit),
   so its pre-activation is b2 up to the sign of zero, and b2 ≤ 0 makes
   its ReLU 0.
5. float64. `bound` is evaluated in float64 from c. With
   P_u = |w_u|(|c| + 2E) + |β_u| + (K1+1)τ, every term of it is at most
   3 Σ_u |v_u| P_u + K2 τ in absolute value, and passes through at most
   m = |U| + 16 roundings, so the evaluation is within
   γ64_m (3 Σ_u |v_u| P_u + K2 τ) + m τ64 / 2 of the exact expression,
   τ64 covering float64 products that underflow. The screen adds
   6 γ64_m (Σ_u |v_u| P_u + K2 τ) + m τ64, which also covers P_u's own
   rounding. F, E and the overflow checks are sums and products of
   non-negative numbers, so each is multiplied by 1 + 2γ64_n for the n
   roundings on its longest path. The comparison bound < -b2_r is
   exact: b2 widens to float64 exactly.

Finally, `Network.dead_backward` reads the final layer's weight only
through 0 + b3, so `Screen.dead` also requires b2, the final weight and
the final bias to be finite in the current parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network

_CROP_CHUNK = 128  # samples per crop pass: bounds the gathered windows' memory


@dataclass(frozen=True)
class Screen:
    """Per-sample certificates for one client call (see the module docstring)."""

    bound: np.ndarray   # (n,) float64: bound[i] < -b2[row] proves sample i dead
    row: int            # flat index of the live row's bias in b2
    others: np.ndarray  # flat indices of every other row's bias in b2
    stop: int           # b2's offset: the bound holds while lo >= stop

    def dead(self, params: np.ndarray, lo: int, sel: np.ndarray) -> bool:
        """Whether the batch `sel` is certified dead under the current `params`,
        whose written suffix starts at `lo`."""
        return bool(lo >= self.stop and self.bound[sel].max() < -params[self.row]
                    and (params[self.others] <= 0).all()
                    and np.isfinite(params[self.stop:]).all())


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
    would fit in a wider or deeper image."""
    xs = net._as_batch(xs)
    i1, i2, _ = net.head_linear_indices()
    (w1, b1), (w2, _) = net.views[i1], net.views[i2]
    live = np.flatnonzero((w2 != 0).any(axis=1))
    if len(live) != 1 or (w2[live[0]] > 0).any():
        return None
    row = int(live[0])
    units = np.flatnonzero(w2[row])
    reads = w1[units] != 0
    column = int(np.argmax(reads[0]))
    screened = reads[:, column]
    field = net.receptive_field(column)
    if ((reads[screened].sum(axis=1) != 1).any() or field is None
            or not np.isfinite(net.params[net.extractor_params.stop:]).all()):
        return None
    max_input = max(float(xs.max()), -float(xs.min()))  # NaN if any pixel is
    if not max_input < math.inf:
        return None
    features, error = extractor_bound(net, max_input)
    if not features + error < _overflow(net.dtype):
        return None
    u, tiny = _roundoff(net.dtype)
    width = w1.shape[1]
    hidden = np.abs(w1).sum(axis=1, dtype=np.float64) * (features + error) + np.abs(b1)
    if not _inflate(hidden.max(), width + 4) < _overflow(net.dtype):
        return None

    box, index = field
    crop = xs[(slice(None), *box)]
    c = np.concatenate([net._run(crop[i:i + _CROP_CHUNK], 0, net.split_index, False)[0][:, index]
                        for i in range(0, len(crop), _CROP_CHUNK)]).astype(np.float64)
    units = units[screened]
    w = w1[units, column].astype(np.float64)
    beta = b1[units].astype(np.float64)
    v = w2[row, units].astype(np.float64)
    two_e, t1 = 2 * error, (width + 1) * tiny
    size = np.abs(w) * (np.abs(c)[:, None] + two_e) + np.abs(beta) + t1   # P_u, (n, |U|)
    low = np.maximum(c[:, None] * w + beta - np.abs(w) * two_e
                     - (_gamma(width + 1, u) * size + t1), 0)             # L_u
    k2, m = w2.shape[1], len(units) + 16
    u64, tiny64 = _roundoff(np.dtype(np.float64))
    bound = ((1 - _gamma(k2, u)) * (low @ v) + k2 * tiny
             + 6 * _gamma(m, u64) * (size @ np.abs(v) + k2 * tiny) + m * tiny64)
    b2 = net.layout.entry(i2, "bias")
    flat = np.arange(b2.offset, b2.stop)
    return Screen(bound=bound, row=int(flat[row]), others=np.delete(flat, row), stop=b2.offset)


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
