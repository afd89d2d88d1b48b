"""The dishonest server's decision pipeline.

After the client returns phi = client(theta), the server compares the
margin component of phi against two anchors: its crafted value and the
value after one reference optimizer step on the target sample alone. The
statistic Delta = B * |eps_client - eps| / |eps_reference - eps| is 0 up to
machine precision when nothing in the client's data triggered the trap
(those components never receive gradient), and well above the threshold
xi when the target was present. The server needs only the client's
training recipe, a `ClientConfig`, which the reference step replays on
the target alone, and the float xi. A reply phi or a margin that is not
finite raises FloatingPointError rather than reading as Delta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fedsim import ClientConfig, client_train
from .network import Network
from .trap import TrapSpec, craft_parameters, epsilon_flat_index


@dataclass(frozen=True)
class AttackOutcome:
    delta: float
    decision: int            # 1 = "target was in the training set"
    eps_initial: float
    eps_client: float
    eps_reference: float


class DegenerateTrapError(RuntimeError):
    """The reference run left the margin unchanged: the crafted trap is broken."""


def reference_eps(net: Network, theta: np.ndarray, sample: tuple[np.ndarray, int],
                  cfg: ClientConfig) -> float:
    """Margin component after one optimizer step on the single target sample.

    Uses the client's optimizer and learning rate at batch size 1.
    """
    x_t, y_t = sample
    single = replace(cfg, batch_size=1, num_batches=1, epochs=1)
    phi = client_train(net, theta, np.asarray(x_t, dtype=net.dtype)[None],
                       np.asarray([y_t]), single)
    return float(phi[epsilon_flat_index(net)])


def decision_statistic(eps_initial: float, eps_client: float,
                       eps_reference: float, batch_size: int) -> float:
    """Delta = B * |eps_client - eps| / |eps_reference - eps|."""
    if not np.isfinite([eps_initial, eps_client, eps_reference]).all():
        raise FloatingPointError(f"margin is not finite: initial {eps_initial!r}, "
                                 f"client {eps_client!r}, reference {eps_reference!r}")
    denom = abs(eps_reference - eps_initial)
    if denom == 0.0:
        raise DegenerateTrapError(
            "reference step did not move the margin; the target should always "
            "trigger its own trap")
    return batch_size * abs(eps_client - eps_initial) / denom


def decide(delta: float, xi: float) -> int:
    """1 iff delta >= xi (boundary counts as membership).

    A non-finite delta (a diverged client) raises instead of reading as
    "non-member", and so does a threshold that is not finite and positive.
    """
    if not 0 < xi < math.inf:
        raise ValueError(f"threshold xi must be finite and positive, got {xi!r}")
    if not np.isfinite(delta):
        raise ValueError(f"delta {delta!r} is not finite")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return 1 if delta >= xi else 0


def run_attack(net: Network, xs: np.ndarray, ys: np.ndarray,
               sample: tuple[np.ndarray, int], num_values: int, epsilon: float,
               client_cfg: ClientConfig, threshold: float,
               seed: int) -> tuple[AttackOutcome, TrapSpec]:
    """Craft, query the client on (xs, ys), run the reference step, decide."""
    theta, spec = craft_parameters(net, sample, num_values, epsilon, seed)
    eps_index = epsilon_flat_index(net)
    eps_initial = float(theta[eps_index])
    phi = client_train(net, theta, xs, ys, client_cfg)
    if not np.isfinite(phi).all():
        raise FloatingPointError("the client's reply has non-finite parameters")
    eps_client = float(phi[eps_index])
    eps_ref = reference_eps(net, theta, sample, client_cfg)
    delta = decision_statistic(eps_initial, eps_client, eps_ref,
                               client_cfg.batch_size)
    outcome = AttackOutcome(delta=delta, decision=decide(delta, threshold),
                            eps_initial=eps_initial, eps_client=eps_client,
                            eps_reference=eps_ref)
    return outcome, spec
