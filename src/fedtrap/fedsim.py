"""FedAvg client/server simulation.

A client receives a flat parameter vector, trains for E epochs over J
contiguous mini-batches of size B (dataset size must be exactly B*J), and
returns the full parameter vector. Optimizer state is created fresh per
call: the client is stateless between queries. FedSGD is the E=1, J=1
special case. No sockets anywhere; "clients" are in-process objects.

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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .network import Network
from .optim import AdamConfig, AdamState, OptimizerConfig, SGDConfig, adam_step, sgd_step


@dataclass(frozen=True)
class ClientConfig:
    batch_size: int
    num_batches: int
    epochs: int
    optimizer: OptimizerConfig = field(default_factory=SGDConfig)
    shuffle_seed: int = 0
    shuffle_per_epoch: bool = True

    def __post_init__(self):
        if self.batch_size < 1 or self.num_batches < 1 or self.epochs < 1:
            raise ValueError("batch_size, num_batches and epochs must be >= 1")

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
    work = net.copy()
    params = np.array(theta, dtype=net.dtype, copy=True)
    if params.shape != (net.num_params(),):
        raise ValueError(f"parameter vector length {params.shape} != "
                         f"architecture layout ({net.num_params()},)")
    adam = isinstance(cfg.optimizer, AdamConfig)
    state = AdamState.fresh(params.size, dtype=net.dtype) if adam else None
    rng = np.random.default_rng(cfg.shuffle_seed)
    order = np.arange(n)
    features = np.empty((n, net.feature_width), dtype=net.dtype)
    have = np.zeros(n, dtype=bool)
    computed_under = None
    for _ in range(cfg.epochs):
        if cfg.shuffle_per_epoch:
            order = rng.permutation(n)
        for j in range(cfg.num_batches):
            sel = order[j * cfg.batch_size:(j + 1) * cfg.batch_size]
            work.set_flat(params)
            extractor = params[net.extractor_params].tobytes()
            if extractor != computed_under:
                have[:] = False
                computed_under = extractor
            if not have[sel].all():
                features[sel] = work.forward_features(xs[sel])
                have[sel] = True
            grad = work.backward(xs[sel], ys[sel], features=features[sel])
            if adam:
                params, state = adam_step(state, params, grad, cfg.optimizer)
            else:
                params = sgd_step(params, grad, cfg.optimizer.lr)
    return params


def aggregate(answers: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise arithmetic mean of client responses."""
    if not len(answers):
        raise ValueError("no answers to aggregate")
    first = np.asarray(answers[0])
    for a in answers[1:]:
        if np.asarray(a).shape != first.shape:
            raise ValueError("answers have mismatched layouts")
    return np.mean(np.stack([np.asarray(a) for a in answers]), axis=0).astype(
        first.dtype, copy=False)


@dataclass
class FedClient:
    """One simulated participant: an architecture, a local dataset, a config."""

    net: Network
    xs: np.ndarray
    ys: np.ndarray
    cfg: ClientConfig

    def respond(self, theta: np.ndarray) -> np.ndarray:
        return client_train(self.net, theta, self.xs, self.ys, self.cfg)


SelectPolicy = Callable[[Sequence[FedClient]], Sequence[FedClient]]


def select_all(clients: Sequence[FedClient]) -> Sequence[FedClient]:
    return list(clients)


def select_fixed(indices: Sequence[int]) -> SelectPolicy:
    def policy(clients: Sequence[FedClient]) -> Sequence[FedClient]:
        return [clients[i] for i in indices]
    return policy


def select_fraction(fraction: float, seed: int) -> SelectPolicy:
    """Seeded random subset of ceil(fraction * len(clients)) clients."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)

    def policy(clients: Sequence[FedClient]) -> Sequence[FedClient]:
        k = max(1, int(np.ceil(fraction * len(clients))))
        picks = rng.choice(len(clients), size=k, replace=False)
        return [clients[i] for i in sorted(picks)]
    return policy


def server_round(theta: np.ndarray, clients: Sequence[FedClient],
                 select: SelectPolicy = select_all) -> np.ndarray:
    """One aggregation round: query every selected client, average the answers."""
    chosen = select(clients)
    if not len(chosen):
        raise ValueError("subset policy selected no clients")
    return aggregate([c.respond(theta) for c in chosen])


@dataclass(frozen=True)
class ServerConfig:
    iterations: int = 1
    select: SelectPolicy = select_all

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def run_protocol(theta0: np.ndarray, clients: Sequence[FedClient],
                 cfg: ServerConfig) -> np.ndarray:
    theta = theta0
    for _ in range(cfg.iterations):
        theta = server_round(theta, clients, cfg.select)
    return theta


# -- flat-vector binary blob ------------------------------------------------

BLOB_MAGIC = b"TFPV"
BLOB_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")  # magic, version, reserved, count


def save_parameter_vector(path, vec: np.ndarray) -> None:
    """Little-endian float32 blob: magic 'TFPV', u16 version, u16 reserved, u64 count."""
    data = np.asarray(vec, dtype="<f4").ravel()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BLOB_MAGIC, BLOB_VERSION, 0, data.size))
        fh.write(data.tobytes())


def load_parameter_vector(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"blob truncated: {len(raw)} bytes, header needs {_HEADER.size}")
    magic, version, _, count = _HEADER.unpack_from(raw)
    if magic != BLOB_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {BLOB_MAGIC!r}")
    if version != BLOB_VERSION:
        raise ValueError(f"unsupported blob version {version}")
    expected = _HEADER.size + 4 * count
    if len(raw) != expected:
        raise ValueError(f"blob length {len(raw)} != expected {expected} "
                         f"for {count} values")
    return np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).copy()
