"""Independent numerical checks for the gradient engine.

The central-difference oracle below re-evaluates the loss through the
forward pass only; it shares no code with the reverse-mode path it is
used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU
from .network import Network


def central_difference_gradient(net: Network, xs: np.ndarray, ys: np.ndarray,
                                step: float = 1e-5) -> np.ndarray:
    """Elementwise (loss(p+h) - loss(p-h)) / 2h over the flat parameter vector."""
    base = net.params.astype(np.float64)
    probe = net.with_params(base)
    xs64 = np.asarray(xs, dtype=np.float64)
    grad = np.empty(base.size, dtype=np.float64)
    for i in range(base.size):
        probe.params[i] = base[i] + step
        up = probe.loss(xs64, ys)
        probe.params[i] = base[i] - step
        down = probe.loss(xs64, ys)
        probe.params[i] = base[i]
        grad[i] = (up - down) / (2.0 * step)
    return grad


def relu_preactivations(net: Network, xs: np.ndarray) -> list[np.ndarray]:
    """Inputs seen by every ReLU during a forward pass."""
    h = xs.astype(net.dtype)
    out = []
    for layer in net.layers:
        if isinstance(layer, ReLU):
            out.append(h.copy())
        h, _ = layer.forward(h)
    return out


def pool_window_gaps(net: Network, xs: np.ndarray) -> list[np.ndarray]:
    """Per-window gap between the two largest pool inputs (kink distance)."""
    h = xs.astype(net.dtype)
    gaps = []
    for layer in net.layers:
        if isinstance(layer, MaxPool2D):
            n, c, hh, ww = h.shape
            k = layer.window
            win = (h.reshape(n, c, hh // k, k, ww // k, k)
                    .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, hh // k, ww // k, k * k))
            top2 = np.sort(win, axis=-1)[..., -2:]
            gaps.append(top2[..., 1] - top2[..., 0])
        h, _ = layer.forward(h)
    return gaps


@dataclass(frozen=True)
class GradCheckResult:
    num_params: int
    max_rel_error: float
    passed: bool


def _random_small_net(rng: np.random.Generator) -> Network:
    """A random architecture with at most ~2000 parameters."""
    kind = rng.integers(0, 3)
    classes = int(rng.integers(2, 6))
    if kind == 0:
        d = int(rng.integers(3, 9))
        layers = [Flatten(),
                  Linear(d, int(rng.integers(4, 9)), dtype=np.float64), ReLU()]
        layers += [Linear(layers[1].out_dim, int(rng.integers(3, 7)), dtype=np.float64), ReLU()]
        layers += [Linear(layers[3].out_dim, classes, dtype=np.float64)]
        return Network(layers, 1, classes, (d,), dtype=np.float64)
    if kind == 1:
        c, h = int(rng.integers(1, 3)), int(rng.integers(6, 9))
        conv = Conv2D(c, int(rng.integers(2, 4)), 3, dtype=np.float64)
        flat_w = conv.out_channels * (h - 2) ** 2
        layers = [conv, ReLU(), Flatten(),
                  Linear(flat_w, 8, dtype=np.float64), ReLU(),
                  Linear(8, 6, dtype=np.float64), ReLU(),
                  Linear(6, classes, dtype=np.float64)]
        return Network(layers, 3, classes, (c, h, h), dtype=np.float64)
    c, h = 1, int(rng.choice([6, 8, 10]))
    conv = Conv2D(c, 2, 3, dtype=np.float64)
    pooled = (h - 2) // 2
    layers = [conv, ReLU(), MaxPool2D(2), Flatten(),
              Linear(2 * pooled * pooled, 8, dtype=np.float64), ReLU(),
              Linear(8, 5, dtype=np.float64), ReLU(),
              Linear(5, classes, dtype=np.float64)]
    return Network(layers, 4, classes, (c, h, h), dtype=np.float64)


def sample_checkable_case(seed: int, batch: int = 3,
                          kink_margin: float = 1e-6,
                          pool_margin: float = 1e-4):
    """A random (net, xs, ys) whose loss is differentiable at every parameter.

    Resamples until no ReLU input is within `kink_margin` of 0 and no pool
    window is within `pool_margin` of an argmax tie, so the finite-difference
    comparison never straddles a kink.
    """
    rng = np.random.default_rng(seed)
    while True:
        net = _random_small_net(rng)
        net.init_random(int(rng.integers(0, 2 ** 31)))
        xs = rng.normal(size=(batch, *net.input_shape))
        ys = rng.integers(1, net.num_classes + 1, size=batch)
        near_kink = any(np.abs(pre).min() < kink_margin
                        for pre in relu_preactivations(net, xs))
        near_tie = any(g.min() < pool_margin for g in pool_window_gaps(net, xs))
        if not (near_kink or near_tie):
            return net, xs, ys


def gradient_check(net: Network, xs: np.ndarray, ys: np.ndarray,
                   step: float = 1e-5, rtol: float = 1e-4,
                   atol: float = 1e-8) -> GradCheckResult:
    """Compare reverse-mode against central differences, elementwise.

    Components are held to |analytic - numeric| <= max(rtol*scale, atol);
    the atol floor absorbs the h^-1-amplified rounding noise of the
    difference quotient on near-zero gradients.
    """
    analytic = net.backward(xs, ys).astype(np.float64)
    numeric = central_difference_gradient(net, xs, ys, step)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = diff / np.maximum(scale, atol / rtol)
    worst = float(rel.max()) if rel.size else 0.0
    return GradCheckResult(num_params=net.num_params(), max_rel_error=worst,
                           passed=worst < rtol)


def run_gradient_check_suite(num_networks: int = 20, seed: int = 0,
                             step: float = 1e-5) -> list[GradCheckResult]:
    results = []
    for i in range(num_networks):
        net, xs, ys = sample_checkable_case(derive(seed, i))
        results.append(gradient_check(net, xs, ys, step=step))
    return results


def derive(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])
