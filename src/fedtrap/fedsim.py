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

Optimizer steps cover only `params[lo:]`, where `lo` is the lowest index
whose gradient bytes have ever been anything but +0.0. Bytes, not values:
a -0.0 gradient counts as written, since SGD turns a -0.0 parameter into
+0.0 under it. Below `lo` both steps are exact fixed points (see `optim`),
so stepping the suffix alone, with Adam's moment vectors m and v sliced
the same way and its step count t kept global, changes no bit; the steps
write in place, on views of the client's own buffers.

Each batch makes one decision: the dead screen's gradient or
`Network.backward`. A call with more than one step first builds a dead
screen (`fedtrap.screen`). It proves for each sample, without computing
the features, that the sample leaves the head's second hidden ReLU zero,
and `Screen.step` certifies a batch from its rows' proofs under the
current parameters, then computes its gradient: it runs no layer,
writes only the final bias and says where its writes start, so only
that slice is scanned for written bytes. It checks no label, so the
labels are checked once per call, before the first step.
Any other batch calls `backward`, which runs the whole network. Under
a planted trap that leaves only the batches that may fire it: those
holding a sample whose whole ℓ1 sum over the matched features may come
within the current margin, the target's among them. A live network, or
any head the certificate does not cover, gets no screen, and neither
does a one-step call (FedSGD, the reference step): its crop pass would
cover the samples of its one batch, and a live batch would pay it on
top of its forward.
Under a trap the extractor gets gradient only from a batch in which a
sample other than the target fires the trap (the target sits exactly on
the pair units' ReLU kink), and the suffix is short: `Network.backward`
fills the gradient from the last layer down, the parameters lie in layer
order, and the zero-cotangent stop usually ends in the final Linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network
from .optim import DEFAULT_LR, adam_step, sgd_step
from .screen import dead_screen


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
            raise ValueError("batch_size (B), num_batches (J) and epochs (E) must be >= 1")
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
    ys = net._check_labels(ys, n)  # once: a dead step does not check them
    work = net.with_params(np.asarray(theta, dtype=net.dtype))
    params = work.params
    adam = cfg.optimizer == "adam"
    if adam:
        m, v, t = np.zeros_like(params), np.zeros_like(params), 0
    bits = np.dtype(f"u{params.itemsize}")
    lo = params.size
    screen = dead_screen(work, xs) if cfg.num_batches * cfg.epochs > 1 else None
    rng = np.random.default_rng(cfg.shuffle_seed)
    for _ in range(cfg.epochs):
        for sel in rng.permutation(n).reshape(cfg.num_batches, cfg.batch_size):
            dead = screen.step(params, lo, sel, ys[sel]) if screen is not None else None
            grad, start = dead or (work.backward(xs[sel], ys[sel]), 0)
            written = np.flatnonzero(grad[start:lo].view(bits) != 0)
            if written.size:
                lo = start + int(written[0])
            if adam:
                t += 1
                adam_step(params[lo:], grad[lo:], m[lo:], v[lo:], t, cfg.lr)
            else:
                sgd_step(params[lo:], grad[lo:], cfg.lr)
    return params
