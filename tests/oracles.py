"""Closed-form trap oracles and a plain logit gradient, for the tests only.

The oracles compute the planted subnetwork's output b = ReLU(epsilon -
sum_m |a_m - eta_m|), the loss it induces and their derivatives in the
margin from the formulas alone, in float64 and without the engine, so a
network that agrees with them agrees with the trap's definition.
`logit_grad` backpropagates one logit through every layer with no
shortcut, the same way `test_differential.reference_gradient` does for
the loss.
"""

import math

import numpy as np


class KinkError(ValueError):
    """Derivative requested exactly on a ReLU boundary."""


def _deviation(a, etas) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    etas = np.asarray(etas, dtype=np.float64).reshape(-1)
    if a.shape != etas.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {etas.shape}")
    return float(np.abs(a - etas).sum())


def trap_output_oracle(a, etas, epsilon: float) -> float:
    """b = ReLU(epsilon - sum |a_m - eta_m|)."""
    return max(0.0, epsilon - _deviation(a, etas))


def trap_eps_grad_oracle(a, etas, epsilon: float) -> int:
    """db/d(margin): 1 inside the l1 ball of radius epsilon, else 0."""
    dev = _deviation(a, etas)
    if dev == epsilon:
        raise KinkError("deviation sits exactly on the margin boundary")
    return 1 if dev < epsilon else 0


def trap_loss_oracle(b: float, y: int, y_t: int, num_classes: int) -> float:
    """Cross-entropy when only the target logit is lifted by b above the rest."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    hit = 1.0 if y == y_t else 0.0
    return -b * hit + math.log(num_classes - 1 + math.exp(b))


def trap_loss_eps_grad_oracle(a, etas, epsilon: float, y: int, y_t: int,
                              num_classes: int) -> float:
    """d(loss)/d(margin): indicator times (softmax mass at the target - hit)."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    indicator = trap_eps_grad_oracle(a, etas, epsilon)
    if not indicator:
        return 0.0
    b = trap_output_oracle(a, etas, epsilon)
    hit = 1.0 if y == y_t else 0.0
    return math.exp(b) / (num_classes - 1 + math.exp(b)) - hit


def logit_grad(net, x, logit_index: int) -> np.ndarray:
    """Flat gradient of logits[logit_index] for one input (not through the loss)."""
    h = np.asarray(x, dtype=net.dtype)[None]
    caches = []
    for layer in net.layers:
        h, cache = layer.forward(h)
        caches.append(cache)
    d = np.zeros_like(h)
    d[0, logit_index] = 1.0
    grad = np.zeros(net.layout.total, dtype=net.dtype)
    for i in range(len(net.layers) - 1, -1, -1):
        d, pgrads = net.layers[i].backward(d, caches[i])
        for name, g in pgrads.items():
            grad[net.layout.slice_of(i, name)] = g.ravel()
    return grad
