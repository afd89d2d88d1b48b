"""SGD and Adam steps over flat parameter vectors.

Both steps leave a component bit-identical whenever its gradient has been
exactly zero at every step so far: SGD because p - lr*0 == p, Adam because
zero moments stay zero and 0/(sqrt(0)+eps) == 0. The membership decision
relies on this, so the updates are kept in this exact form.

An optimizer is named by a string, "sgd" or "adam"; `DEFAULT_LR` holds
each one's learning rate for a run that sets none. Adam's betas and eps
are fixed at the usual values. Both steps write in place into the arrays
they are given (for Adam: the parameters and the moments m and v) and
return None, so a caller can step views of its own buffers, such as a
suffix `params[lo:]`. Python floats are weak scalars, so every operation
rounds in the arrays' own dtype.
"""

from __future__ import annotations

import numpy as np

DEFAULT_LR = {"sgd": 1e-2, "adam": 1e-3}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_layouts(params: np.ndarray, *others: np.ndarray) -> None:
    for other in others:
        if params.shape != other.shape:
            raise ValueError(f"layout mismatch: parameters {params.shape} "
                             f"vs {other.shape}")


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """params -= lr*grad, in the params dtype."""
    _check_layouts(params, grad)
    params -= params.dtype.type(lr) * grad


def adam_step(params: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float) -> None:
    """One bias-corrected Adam update of params, m and v; t counts from 1."""
    _check_layouts(params, grad, m, v)
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    params -= params.dtype.type(lr) * m_hat / (np.sqrt(v_hat) + params.dtype.type(ADAM_EPS))
