import numpy as np
import pytest

from fedtrap.fedsim import ClientConfig
from fedtrap.optim import DEFAULT_LR, AdamState, adam_step, sgd_step


def test_sgd_zero_gradient_is_bit_exact_identity():
    params = np.array([1.5, -0.25, 3.0], dtype=np.float32)
    out = sgd_step(params, np.zeros_like(params), lr=0.1)
    assert np.array_equal(out, params)


def test_sgd_arithmetic():
    out = sgd_step(np.array([1.0]), np.array([0.5]), lr=0.1)
    assert out[0] == pytest.approx(0.95)


def test_sgd_composes_linearly_with_fixed_gradient():
    params = np.array([2.0, -1.0], dtype=np.float64)
    grad = np.array([0.5, 0.25])
    twice = sgd_step(sgd_step(params, grad, 0.1), grad, 0.1)
    np.testing.assert_allclose(twice, params - 0.2 * grad, rtol=1e-15)


def test_sgd_rejects_layout_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        sgd_step(np.zeros(3), np.zeros(4), 0.1)


def test_adam_zero_gradient_component_never_moves():
    params = np.array([1.0, 2.0], dtype=np.float32)
    state = AdamState.fresh(2)
    grad = np.array([0.0, 0.3], dtype=np.float32)
    for _ in range(5):
        params, state = adam_step(state, params, grad, 1e-3)
    assert params[0] == np.float32(1.0)   # bit-exact: moments stayed zero
    assert params[1] != np.float32(2.0)


def test_adam_first_step_magnitude_is_nearly_lr():
    lr = 1e-3
    for g in (0.5, -2.0, 1e-4):
        params = np.array([0.0], dtype=np.float64)
        new, _ = adam_step(AdamState.fresh(1, np.float64), params,
                           np.array([g]), lr)
        expected = lr * abs(g) / (abs(g) + 1e-8)
        assert abs(new[0]) == pytest.approx(expected, rel=1e-9)
        assert np.sign(new[0]) == -np.sign(g)


def scalar_adam_trace(grads, lr):
    """Independent scalar reference: one Adam parameter followed by hand."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    p, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= lr * m_hat / (v_hat ** 0.5 + eps)
    return p


def test_adam_matches_scalar_reference_over_steps():
    lr = 0.01
    grads = [0.4, 0.4]
    params = np.array([0.0], dtype=np.float64)
    state = AdamState.fresh(1, np.float64)
    for g in grads:
        params, state = adam_step(state, params, np.array([g]), lr)
    assert params[0] == pytest.approx(scalar_adam_trace(grads, lr), rel=1e-12)
    # and a longer, varied trace
    grads = [0.4, -0.1, 0.05, 2.0, -0.7]
    params = np.array([0.0], dtype=np.float64)
    state = AdamState.fresh(1, np.float64)
    for g in grads:
        params, state = adam_step(state, params, np.array([g]), lr)
    assert params[0] == pytest.approx(scalar_adam_trace(grads, lr), rel=1e-12)


def test_adam_rejects_layout_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(AdamState.fresh(2), np.zeros(3), np.zeros(3), 1e-3)


def test_config_validation():
    for opt in DEFAULT_LR:
        for lr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr must be finite and positive"):
                ClientConfig(1, 1, 1, optimizer=opt, lr=lr)
    with pytest.raises(ValueError, match="unknown optimizer"):
        ClientConfig(1, 1, 1, optimizer="rmsprop")


def test_client_config_lr_defaults_per_optimizer():
    assert DEFAULT_LR == {"sgd": 1e-2, "adam": 1e-3}
    assert ClientConfig(1, 1, 1).lr == 1e-2
    for opt, lr in DEFAULT_LR.items():
        assert ClientConfig(1, 1, 1, optimizer=opt).lr == lr
        assert ClientConfig(1, 1, 1, optimizer=opt, lr=0.5).lr == 0.5
