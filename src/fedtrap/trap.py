"""Crafting trap parameters around a target sample.

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

The margin is the aggregator's bias; its flat-vector position, fixed by
the architecture alone, is what the membership decision monitors.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .network import Network


class CraftError(ValueError):
    """The architecture cannot host the requested trap."""


@dataclass(frozen=True)
class TrapSpec:
    """What crafting planted: matched components, thresholds, margin and label.

    Unit placement is fixed: pair m sits at first-hidden units (2m, 2m+1)
    and the aggregator at second-hidden unit 0.
    """

    num_values: int                     # M
    component_indices: tuple[int, ...]  # into the feature vector
    etas: tuple[float, ...]             # signed values at the target
    epsilon: float                      # margin
    target_label: int                   # 1..L
    seed: int                           # feature-extractor init seed

    def to_json(self) -> str:
        return json.dumps({
            "M": self.num_values,
            "indices": list(self.component_indices),
            "etas": list(self.etas),
            "epsilon": self.epsilon,
            "target_label": self.target_label,
            "seed": self.seed,
        })


def select_components(features: np.ndarray, num_values: int) -> tuple[list[int], list[float]]:
    """Indices and signed values of the M largest-magnitude components.

    Ordered by decreasing magnitude; ties resolve to the smaller index.
    """
    features = np.asarray(features).reshape(-1)
    if not 1 <= num_values <= features.size:
        raise CraftError(f"requested {num_values} components from a "
                         f"{features.size}-wide feature vector")
    order = np.argsort(-np.abs(features), kind="stable")[:num_values]
    return [int(i) for i in order], [float(features[i]) for i in order]


def check_trap(net: Network, num_values: int, epsilon: float) -> None:
    """Raise ValueError unless M >= 1, CraftError unless `net`'s first hidden
    layer can host M unit pairs, and ValueError unless ε is finite and
    positive in `net`'s dtype."""
    if num_values < 1:
        raise ValueError(f"a trap needs M >= 1 matched values, got M={num_values}")
    width = net.layers[net.head_linear_indices()[0]].out_dim
    if 2 * num_values > width:
        raise CraftError(f"M={num_values} needs {2 * num_values} first-hidden units, "
                         f"head has {width}; the architecture is too narrow")
    with np.errstate(over="ignore", under="ignore"):
        cast = net.dtype.type(epsilon)
    if not 0 < cast < np.inf:
        raise ValueError(f"epsilon must be finite and positive in {net.dtype}, "
                         f"got {epsilon!r}")


def craft_parameters(net: Network, sample: tuple[np.ndarray, int], num_values: int,
                     epsilon: float, seed: int) -> tuple[np.ndarray, TrapSpec]:
    """Build the full trap parameter vector for `net`'s architecture.

    The target image must already be normalized exactly as the client will
    normalize its training data. The input network is not modified, and the
    label, M and ε (`check_trap`) are checked before any parameter is written.
    """
    x_t, y_t = sample
    if not 1 <= y_t <= net.num_classes:
        raise ValueError(f"target label {y_t} outside 1..{net.num_classes}")
    check_trap(net, num_values, epsilon)
    work = net.with_params(net.params)
    work.init_random(seed, stop=work.split_index)
    head = [work.views[i] for i in net.head_linear_indices()]
    for w, b in head:
        w[...] = 0.0
        b[...] = -1.0

    features = work.forward_features(np.asarray(x_t)[None])[0]
    indices, etas = select_components(features, num_values)
    if sum(1 for e in etas if e != 0.0) < num_values:
        warnings.warn("target has fewer nonzero feature components than matched "
                      "values; near-zero thresholds invite accidental triggering",
                      stacklevel=2)

    (w1, b1), (w2, b2), (w3, _) = head
    for m, (j, eta) in enumerate(zip(indices, etas)):
        w1[2 * m, j] = 1.0
        b1[2 * m] = -eta
        w1[2 * m + 1, j] = -1.0
        b1[2 * m + 1] = eta
    w2[0, :2 * num_values] = -1.0
    b2[0] = epsilon
    w3[y_t - 1, 0] = 1.0

    return work.params, TrapSpec(num_values=num_values, component_indices=tuple(indices),
                                 etas=tuple(etas), epsilon=float(epsilon),
                                 target_label=int(y_t), seed=int(seed))


def epsilon_flat_index(net: Network) -> int:
    """Flat position of the margin (aggregator bias, unit 0) in `net`'s layout."""
    _, h2_idx, _ = net.head_linear_indices()
    return net.layout.index_of(h2_idx, "bias", 0)
