"""FedAvg client simulation.

A client receives a flat parameter vector, trains for E epochs over J
contiguous mini-batches of size B of a fresh random permutation of its
data (dataset size must be exactly B*J), and returns the full parameter
vector. `ClientConfig` is this whole recipe: B, J, E, the optimizer
("sgd" or "adam"), its learning rate and the shuffle seed. Optimizer
state is created fresh per call: the client is stateless between
queries. FedSGD is the E=1, J=1 special case. No sockets anywhere: a
client is one in-process `client_train` call. It trains
`net.with_params(theta)`, a network over its own copy of the vector, and
writes each optimizer step into that copy's flat `params`, which the
layers view; that copy is returned.

`client_train` keeps each sample's split activation (the feature
extractor's output) and hands a batch's activations to
`Network.backward` once every sample in it has one. They depend only on
the sample and the extractor's parameters, so they stay exact while the
extractor slice of the parameter vector is byte-equal to the slice they
were computed under. Bytes, not values, are compared: -0.0 == 0.0, but a
parameter whose sign of zero changed is a different parameter vector.
Any step that changes an extractor byte, such as a batch that sends
gradient into the extractor or Adam momentum from an earlier one,
invalidates them all. Under a planted trap the extractor gets gradient
only from a batch in which a sample other than the target fires the
trap (the target sits exactly on the pair units' ReLU kink), so after
the first epoch batches normally run only the head.

Optimizer steps cover only `params[lo:]`, where `lo` is the lowest index
whose gradient bytes have ever been anything but +0.0. Below it both
steps are exact fixed points (see `optim`), so stepping the suffix alone,
with Adam's moments sliced the same way and its step count kept global,
changes no bit. Bytes, not values: a -0.0 gradient counts as written,
since SGD turns a -0.0 parameter into +0.0 under it. The suffix is short
under a trap: `Network.backward` fills the gradient from the last layer
down, the layout is in layer order, and the zero-cotangent stop usually
ends in the final Linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network
from .optim import DEFAULT_LR, AdamState, adam_step, sgd_step


@dataclass(frozen=True)
class ClientConfig:
    batch_size: int
    num_batches: int
    epochs: int
    optimizer: str = "sgd"           # sgd | adam
    lr: float | None = None          # None -> DEFAULT_LR[optimizer]
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.num_batches < 1 or self.epochs < 1:
            raise ValueError("batch_size, num_batches and epochs must be >= 1")
        if self.optimizer not in DEFAULT_LR:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr is None:
            object.__setattr__(self, "lr", DEFAULT_LR[self.optimizer])
        elif not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")

    @property
    def num_samples(self) -> int:
        return self.batch_size * self.num_batches


def client_train(net: Network, theta: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 cfg: ClientConfig) -> np.ndarray:
    """Full local training pass; returns the trained flat parameter vector.

    `net` supplies the architecture only; neither it nor `theta` is mutated.
    Deterministic for fixed (theta, data order, cfg).
    """
    n = len(xs)
    if n != cfg.num_samples:
        raise ValueError(f"dataset size {n} != batch_size*num_batches "
                         f"({cfg.batch_size}*{cfg.num_batches})")
    if len(ys) != n:
        raise ValueError("image/label counts differ")
    theta = np.asarray(theta, dtype=net.dtype)
    if theta.shape != (net.num_params(),):
        raise ValueError(f"parameter vector length {theta.shape} != "
                         f"architecture layout ({net.num_params()},)")
    work = net.with_params(theta)
    params = work.params
    adam = cfg.optimizer == "adam"
    state = AdamState.fresh(params.size, dtype=net.dtype) if adam else None
    bits = np.dtype(f"u{params.itemsize}")
    lo = params.size
    rng = np.random.default_rng(cfg.shuffle_seed)
    features = np.empty((n, net.feature_width), dtype=net.dtype)
    have = np.zeros(n, dtype=bool)
    computed_under = None
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for j in range(cfg.num_batches):
            sel = order[j * cfg.batch_size:(j + 1) * cfg.batch_size]
            extractor = params[net.extractor_params].tobytes()
            if extractor != computed_under:
                have[:] = False
                computed_under = extractor
            if not have[sel].all():
                features[sel] = work.forward_features(xs[sel])
                have[sel] = True
            grad = work.backward(xs[sel], ys[sel], features=features[sel])
            written = np.flatnonzero(grad[:lo].view(bits))
            if written.size:
                lo = int(written[0])
            if adam:
                params[lo:], tail = adam_step(
                    AdamState(state.m[lo:], state.v[lo:], state.t),
                    params[lo:], grad[lo:], cfg.lr)
                state.m[lo:], state.v[lo:], state.t = tail.m, tail.v, tail.t
            else:
                params[lo:] = sgd_step(params[lo:], grad[lo:], cfg.lr)
    return params

