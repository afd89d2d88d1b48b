"""SGD and Adam steps over flat parameter vectors.

Both steps leave a component bit-identical whenever its gradient has been
exactly zero at every step so far: SGD because p - lr*0 == p, Adam because
zero moments stay zero and 0/(sqrt(0)+eps) == 0. The membership decision
relies on this, so the updates are kept in this exact form.

An optimizer is named by a string, "sgd" or "adam"; `DEFAULT_LR` holds
each one's learning rate for a run that sets none. Adam's betas and eps
are fixed at the usual values. Both steps are pure: they return new
arrays and leave their inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_LR = {"sgd": 1e-2, "adam": 1e-3}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_layouts(params: np.ndarray, grad: np.ndarray) -> None:
    if params.shape != grad.shape:
        raise ValueError(f"parameter/gradient layout mismatch: "
                         f"{params.shape} vs {grad.shape}")


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """params - lr*grad, in the params dtype."""
    _check_layouts(params, grad)
    return params - params.dtype.type(lr) * grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, size: int, dtype=np.float32) -> "AdamState":
        return cls(m=np.zeros(size, dtype=dtype), v=np.zeros(size, dtype=dtype))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and advanced state."""
    _check_layouts(params, grad)
    _check_layouts(params, state.m)
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    step = params.dtype.type(lr) * m_hat / (np.sqrt(v_hat) + params.dtype.type(ADAM_EPS))
    return (params - step).astype(params.dtype, copy=False), AdamState(
        m.astype(params.dtype, copy=False), v.astype(params.dtype, copy=False), t)
