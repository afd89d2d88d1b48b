"""The dishonest server's decision pipeline.

After the client returns phi = client(theta), the server compares the
margin component of phi against two anchors: its crafted value and the
value after one reference optimizer step on the target sample alone. The
statistic Delta = B * |eps_client - eps| / |eps_reference - eps| is 0 up to
machine precision when nothing in the client's data triggered the trap
(those components never receive gradient), and well above the threshold
when the target was present.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fedsim import ClientConfig, client_train
from .network import Network
from .trap import TrapSpec, craft_parameters, epsilon_flat_index


@dataclass(frozen=True)
class DecisionConfig:
    threshold: float = 0.1   # xi
    batch_size: int = 32

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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
                  cfg: ClientConfig, eps_index: int) -> float:
    """Margin component after one optimizer step on the single target sample.

    Uses the client's optimizer and learning rate at batch size 1.
    """
    if not 0 <= eps_index < net.num_params():
        raise ValueError(f"margin index {eps_index} outside layout "
                         f"0..{net.num_params() - 1}")
    x_t, y_t = sample
    single = replace(cfg, batch_size=1, num_batches=1, epochs=1,
                     shuffle_per_epoch=False)
    phi = client_train(net, theta, np.asarray(x_t, dtype=net.dtype)[None],
                       np.asarray([y_t]), single)
    return float(phi[eps_index])


def decision_statistic(eps_initial: float, eps_client: float,
                       eps_reference: float, batch_size: int) -> float:
    """Delta = B * |eps_client - eps| / |eps_reference - eps|."""
    denom = abs(eps_reference - eps_initial)
    if denom == 0.0:
        raise DegenerateTrapError(
            "reference step did not move the margin; the target should always "
            "trigger its own trap")
    return batch_size * abs(eps_client - eps_initial) / denom


def decide(delta: float, xi: float) -> int:
    """1 iff delta >= xi (boundary counts as membership).

    A non-finite delta (a diverged client) raises instead of reading as
    "non-member".
    """
    if not np.isfinite(delta):
        raise ValueError(f"delta {delta!r} is not finite")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return 1 if delta >= xi else 0


def run_attack(net: Network, xs: np.ndarray, ys: np.ndarray,
               sample: tuple[np.ndarray, int], num_values: int, epsilon: float,
               client_cfg: ClientConfig, decision_cfg: DecisionConfig,
               seed: int) -> tuple[AttackOutcome, TrapSpec]:
    """Craft, query the client on (xs, ys), run the reference step, decide."""
    theta, spec = craft_parameters(net, sample, num_values, epsilon, seed)
    # recover the margin position from the serialized spec, the same way an
    # offline decision pass would
    eps_index = epsilon_flat_index(net, TrapSpec.from_json(spec.to_json()))
    eps_initial = float(theta[eps_index])
    phi = client_train(net, theta, xs, ys, client_cfg)
    eps_client = float(phi[eps_index])
    eps_ref = reference_eps(net, theta, sample, client_cfg, eps_index)
    delta = decision_statistic(eps_initial, eps_client, eps_ref,
                               client_cfg.batch_size)
    outcome = AttackOutcome(delta=delta, decision=decide(delta, decision_cfg.threshold),
                            eps_initial=eps_initial, eps_client=eps_client,
                            eps_reference=eps_ref)
    return outcome, spec
