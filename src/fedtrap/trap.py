"""Crafting trap parameters around a target sample, plus closed-form oracles.

The planted subnetwork computes b = ReLU(margin - sum_m |a_m - eta_m|)
where a_m are selected feature components of the input and eta_m their
values at the target. Each matched value occupies a +/-1 unit pair in the
head's first hidden layer (units 2m and 2m+1, biases -eta_m and +eta_m);
an aggregator unit (second hidden layer, unit 0) carries weight -1 from
every pair member and bias equal to the margin; the final layer wires the
aggregator to the target-label logit with weight +1. Everything else in
the head is weight 0 / bias -1, i.e. dead ReLUs: any sample whose selected
features are farther than the margin from the target's (in l1) contributes
an exactly-zero gradient to every head parameter above the final biases.

The margin is the aggregator's bias; its flat-vector position is what the
membership decision monitors.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .network import Network


class KinkError(ValueError):
    """Derivative requested exactly on a ReLU boundary."""


class CraftError(ValueError):
    """The architecture cannot host the requested trap."""


@dataclass(frozen=True)
class TrapSpec:
    """The planted trap: matched components, thresholds, margin, placement.

    Unit placement is deterministic: pair m sits at first-hidden units
    (2m, 2m+1) and the aggregator at second-hidden unit 0, so the spec
    plus the architecture fully determine the margin's flat index.
    """

    num_values: int                     # M
    component_indices: tuple[int, ...]  # into the feature vector
    etas: tuple[float, ...]             # signed values at the target
    epsilon: float                      # margin
    target_label: int                   # 1..L
    seed: int                           # feature-extractor init seed

    def __post_init__(self):
        if self.num_values < 1:
            raise ValueError("need at least one matched value")
        if len(self.component_indices) != self.num_values or len(self.etas) != self.num_values:
            raise ValueError("indices/etas must have length num_values")
        if len(set(self.component_indices)) != self.num_values:
            raise ValueError("component indices must be distinct")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")

    @property
    def aggregator_unit(self) -> int:
        return 0

    def to_json(self) -> str:
        return json.dumps({
            "M": self.num_values,
            "indices": list(self.component_indices),
            "etas": list(self.etas),
            "epsilon": self.epsilon,
            "target_label": self.target_label,
            "seed": self.seed,
        })

    @classmethod
    def from_json(cls, text: str) -> "TrapSpec":
        d = json.loads(text)
        return cls(num_values=d["M"],
                   component_indices=tuple(d["indices"]),
                   etas=tuple(d["etas"]),
                   epsilon=d["epsilon"],
                   target_label=d["target_label"],
                   seed=d["seed"])


def select_components(features: np.ndarray, num_values: int) -> tuple[list[int], list[float]]:
    """Indices and signed values of the M largest-magnitude components.

    Ordered by decreasing magnitude; ties resolve to the smaller index.
    """
    features = np.asarray(features).reshape(-1)
    if num_values > features.size:
        raise CraftError(f"requested {num_values} components from a "
                         f"{features.size}-wide feature vector")
    order = np.argsort(-np.abs(features), kind="stable")[:num_values]
    return [int(i) for i in order], [float(features[i]) for i in order]


def craft_parameters(net: Network, sample: tuple[np.ndarray, int], num_values: int,
                     epsilon: float, seed: int) -> tuple[np.ndarray, TrapSpec]:
    """Build the full trap parameter vector for `net`'s architecture.

    The target image must already be normalized exactly as the client will
    normalize its training data. The input network is not modified.
    """
    x_t, y_t = sample
    if not 1 <= y_t <= net.num_classes:
        raise ValueError(f"target label {y_t} outside 1..{net.num_classes}")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    h1_idx, h2_idx, out_idx = net.head_linear_indices()
    work = net.with_params(net.params)
    h1, h2, out = (work.layers[i] for i in (h1_idx, h2_idx, out_idx))
    if 2 * num_values > h1.out_dim:
        raise CraftError(f"trap needs {2 * num_values} first-hidden units, "
                         f"head has {h1.out_dim}")

    rng = np.random.default_rng(seed)
    for layer in work.layers[:work.split_index]:
        if layer.param_shapes:
            layer.init_random(rng)
    for layer in (h1, h2, out):
        layer.init_dead()

    features = work.forward_features(np.asarray(x_t, dtype=work.dtype))
    indices, etas = select_components(features, num_values)
    if sum(1 for e in etas if e != 0.0) < num_values:
        warnings.warn("target has fewer nonzero feature components than matched "
                      "values; near-zero thresholds invite accidental triggering",
                      stacklevel=2)

    for m, (j, eta) in enumerate(zip(indices, etas)):
        h1.weight[2 * m, j] = 1.0
        h1.bias[2 * m] = -eta
        h1.weight[2 * m + 1, j] = -1.0
        h1.bias[2 * m + 1] = eta
    h2.weight[0, :2 * num_values] = -1.0
    h2.bias[0] = epsilon
    out.weight[y_t - 1, 0] = 1.0

    spec = TrapSpec(num_values=num_values, component_indices=tuple(indices),
                    etas=tuple(etas), epsilon=float(epsilon),
                    target_label=int(y_t), seed=int(seed))
    return work.params, spec


def epsilon_flat_index(net: Network, spec: TrapSpec) -> int:
    """Flat position of the margin (aggregator bias) in `net`'s layout."""
    _, h2_idx, _ = net.head_linear_indices()
    return net.layout.index_of(h2_idx, "bias", spec.aggregator_unit)


# -- closed-form oracles --------------------------------------------------


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
