"""Independent numerical checks for the gradient engine.

The central-difference oracle below re-evaluates the loss through the
forward pass only; it shares no code with the reverse-mode path it is
used to check. A random case is kept only if it sits away from every
kink. The screen reads the ReLU and max-pool inputs from the caches of
one forward pass of the network's own layer loop, and the pool windows
from `MaxPool2D.windows`, the layout its backward pass uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harness import derive_seed
from .layers import Conv2D, Flatten, MaxPool2D, ReLU
from .network import Network, dense_net

CASE_BATCH = 3
KINK_MARGIN = 1e-6   # least |ReLU input| of a checkable case
POOL_MARGIN = 1e-4   # least gap between a pool window's two largest inputs
RTOL = 1e-4
ATOL = 1e-8
STEP = 1e-5          # central-difference step h


def central_difference_gradient(net: Network, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Elementwise (loss(p+h) - loss(p-h)) / 2h over the flat parameter vector."""
    base = net.params.astype(np.float64)
    probe = net.with_params(base)
    xs64 = np.asarray(xs, dtype=np.float64)
    grad = np.empty(base.size, dtype=np.float64)
    for i in range(base.size):
        probe.params[i] = base[i] + STEP
        up = probe.loss(xs64, ys)
        probe.params[i] = base[i] - STEP
        down = probe.loss(xs64, ys)
        probe.params[i] = base[i]
        grad[i] = (up - down) / (2.0 * STEP)
    return grad


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
        hidden = (int(rng.integers(4, 9)), int(rng.integers(3, 7)))
        return dense_net(d, hidden, classes, dtype=np.float64)
    if kind == 1:
        c, h = int(rng.integers(1, 3)), int(rng.integers(6, 9))
        extractor = [Conv2D(c, int(rng.integers(2, 4)), 3), ReLU(), Flatten()]
        return Network(extractor, (c, h, h), (8, 6), classes, dtype=np.float64)
    h = int(rng.choice([6, 8, 10]))
    extractor = [Conv2D(1, 2, 3), ReLU(), MaxPool2D(2), Flatten()]
    return Network(extractor, (1, h, h), (8, 5), classes, dtype=np.float64)


def sample_checkable_case(seed: int):
    """A random (net, xs, ys) whose loss is differentiable at every parameter.

    Resamples until no ReLU input is within KINK_MARGIN of 0 and no pool
    window is within POOL_MARGIN of an argmax tie, so the finite-difference
    comparison never straddles a kink.
    """
    rng = np.random.default_rng(seed)
    while True:
        net = _random_small_net(rng)
        net.init_random(int(rng.integers(0, 2 ** 31)))
        xs = rng.normal(size=(CASE_BATCH, *net.input_shape))
        ys = rng.integers(1, net.num_classes + 1, size=CASE_BATCH)
        # a ReLU's and a MaxPool2D's forward cache is the layer's input
        _, caches = net._run(xs, len(net.layers))
        for layer, x in zip(net.layers, caches):
            if isinstance(layer, ReLU) and np.abs(x).min() < KINK_MARGIN:
                break
            if isinstance(layer, MaxPool2D):
                top2 = np.sort(layer.windows(x), axis=-1)[..., -2:]
                if (top2[..., 1] - top2[..., 0]).min() < POOL_MARGIN:
                    break
        else:
            return net, xs, ys


def gradient_check(net: Network, xs: np.ndarray, ys: np.ndarray) -> GradCheckResult:
    """Compare reverse-mode against central differences, elementwise.

    Components are held to |analytic - numeric| <= max(RTOL*scale, ATOL);
    the ATOL floor absorbs the h^-1-amplified rounding noise of the
    difference quotient on near-zero gradients.
    """
    analytic = net.backward(xs, ys).astype(np.float64)
    numeric = central_difference_gradient(net, xs, ys)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = diff / np.maximum(scale, ATOL / RTOL)
    worst = float(rel.max()) if rel.size else 0.0
    return GradCheckResult(num_params=net.layout.total, max_rel_error=worst,
                           passed=worst < RTOL)


def run_gradient_check_suite(num_networks: int = 20, seed: int = 0) -> list[GradCheckResult]:
    results = []
    for i in range(num_networks):
        net, xs, ys = sample_checkable_case(derive_seed(seed, i))
        results.append(gradient_check(net, xs, ys))
    return results
