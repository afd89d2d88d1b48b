import numpy as np
import pytest

from fedtrap.fedsim import ClientConfig
from fedtrap.optim import DEFAULT_LR, adam_step, sgd_step


def test_sgd_zero_gradient_is_bit_exact_identity():
    params = np.array([1.5, -0.25, 3.0], dtype=np.float32)
    out = params.copy()
    assert sgd_step(out, np.zeros_like(params), lr=0.1) is None
    assert out.tobytes() == params.tobytes()


def test_sgd_arithmetic():
    out = np.array([1.0])
    sgd_step(out, np.array([0.5]), lr=0.1)
    assert out[0] == pytest.approx(0.95)


def test_sgd_composes_linearly_with_fixed_gradient():
    params = np.array([2.0, -1.0], dtype=np.float64)
    grad = np.array([0.5, 0.25])
    twice = params.copy()
    sgd_step(twice, grad, 0.1)
    sgd_step(twice, grad, 0.1)
    np.testing.assert_allclose(twice, params - 0.2 * grad, rtol=1e-15)


def test_sgd_rejects_layout_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        sgd_step(np.zeros(3), np.zeros(4), 0.1)


def test_adam_zero_gradient_component_never_moves():
    params = np.array([1.0, 2.0], dtype=np.float32)
    m, v = np.zeros_like(params), np.zeros_like(params)
    grad = np.array([0.0, 0.3], dtype=np.float32)
    for t in range(1, 6):
        assert adam_step(params, grad, m, v, t, 1e-3) is None
    assert params[0] == np.float32(1.0)   # bit-exact: moments stayed zero
    assert params[1] != np.float32(2.0)


def test_adam_first_step_magnitude_is_nearly_lr():
    lr = 1e-3
    for g in (0.5, -2.0, 1e-4):
        new = np.array([0.0], dtype=np.float64)
        adam_step(new, np.array([g]), np.zeros(1), np.zeros(1), 1, lr)
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
    params, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
    for t, g in enumerate(grads, start=1):
        adam_step(params, np.array([g]), m, v, t, lr)
    assert params[0] == pytest.approx(scalar_adam_trace(grads, lr), rel=1e-12)
    # and a longer, varied trace
    grads = [0.4, -0.1, 0.05, 2.0, -0.7]
    params, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
    for t, g in enumerate(grads, start=1):
        adam_step(params, np.array([g]), m, v, t, lr)
    assert params[0] == pytest.approx(scalar_adam_trace(grads, lr), rel=1e-12)


def test_adam_rejects_layout_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3), 1, 1e-3)
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(2), 1, 1e-3)
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3), 1, 1e-3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("opt", ["sgd", "adam"])
def test_suffix_steps_write_through_and_match_whole_vector_steps(opt, dtype):
    """The contract `client_train` relies on when it steps only params[lo:].

    Below lo every gradient so far has been +0.0 and the moments are zero.
    Stepping views of the suffix, with Adam's step count kept global, must
    write into the base arrays, leave every prefix byte alone and give the
    bytes that stepping the whole vector gives. lo only moves down, as in
    client training, so entries join the suffix with t already past 1.
    """
    rng = np.random.default_rng(3)
    n, schedule = 12, (12, 8, 8, 5, 5, 0)
    params = rng.normal(size=n).astype(dtype)
    params[[0, 6]] = -0.0
    params[[1, 9]] = 0.0
    whole = params.copy()
    m, v = np.zeros(n, dtype), np.zeros(n, dtype)
    whole_m, whole_v = m.copy(), v.copy()
    for t, lo in enumerate(schedule, start=1):
        grad = rng.normal(size=n).astype(dtype)
        grad[:lo] = 0.0
        grad[lo:][::4] = -0.0
        before = [arr.tobytes() for arr in (params, m, v)]
        if opt == "adam":
            adam_step(params[lo:], grad[lo:], m[lo:], v[lo:], t, 1e-2)
            adam_step(whole, grad, whole_m, whole_v, t, 1e-2)
            stepped = (params, m, v)
        else:
            sgd_step(params[lo:], grad[lo:], 0.1)
            sgd_step(whole, grad, 0.1)
            stepped = (params,)
        prefix = lo * params.itemsize
        for arr, arr_whole, arr_before in zip(stepped, (whole, whole_m, whole_v), before):
            assert arr.tobytes()[:prefix] == arr_before[:prefix]
            assert arr.tobytes() == arr_whole.tobytes()
            if lo < n:
                assert arr.tobytes()[prefix:] != arr_before[prefix:]


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
