import json
import math
import warnings

import numpy as np
import pytest

from fedtrap.network import Network, dense_net, small_conv_net
from fedtrap.trap import (CraftError, check_trap, craft_parameters, epsilon_flat_index,
                          select_components)
from oracles import (KinkError, forward, logit_grad, trap_eps_grad_oracle,
                     trap_loss_eps_grad_oracle, trap_loss_oracle, trap_output_oracle)


# -- component selection -------------------------------------------------------


def test_select_components_ranks_by_magnitude():
    idx, etas = select_components(np.array([0.1, -0.9, 0.5, 0.0]), 2)
    assert idx == [1, 2]
    assert etas == [-0.9, 0.5]


def test_select_components_ties_break_to_smaller_index():
    idx, _ = select_components(np.full(6, 0.25), 3)
    assert idx == [0, 1, 2]


def test_select_components_matches_full_sort_oracle():
    rng = np.random.default_rng(17)
    vec = rng.normal(size=400)
    idx, etas = select_components(vec, 4)
    ranked = sorted(range(400), key=lambda i: (-abs(vec[i]), i))[:4]
    assert idx == ranked
    assert etas == [float(vec[i]) for i in ranked]


def test_select_components_rejects_oversized_request():
    with pytest.raises(CraftError):
        select_components(np.zeros(3), 4)


@pytest.mark.parametrize("M", [0, -1])
def test_select_components_rejects_fewer_than_one_value(M):
    # `order[:M]` counts from the end for M < 0: -1 would pick 255 of 256 components
    with pytest.raises(CraftError, match=f"requested {M} components"):
        select_components(np.arange(256.0), M)


# -- closed-form oracles ---------------------------------------------------------


def test_trap_output_oracle_values():
    etas = [0.2, -0.4]
    assert trap_output_oracle(etas, etas, 1e-3) == 1e-3
    # total deviation of eps/2 leaves eps/2
    assert trap_output_oracle([0.2 + 2.5e-4, -0.4 - 2.5e-4], etas, 1e-3) == \
        pytest.approx(5e-4, rel=1e-9)
    assert trap_output_oracle([0.5], [0.4], 1e-3) == 0.0


def test_trap_output_oracle_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        trap_output_oracle([0.1, 0.2], [0.1], 1.0)


def test_trap_eps_grad_oracle_indicator():
    assert trap_eps_grad_oracle([0.3], [0.3], 1e-3) == 1
    assert trap_eps_grad_oracle([0.3 + 2e-3], [0.3], 1e-3) == 0
    # twice the margin: firmly outside
    assert trap_eps_grad_oracle([0.25, 0.25], [0.25, 0.25 + 2e-3], 1e-3) == 0
    with pytest.raises(KinkError):
        trap_eps_grad_oracle([0.001], [0.0], 0.001)  # deviation == margin exactly


def test_trap_eps_grad_matches_finite_difference_of_output():
    # the output is piecewise linear in the margin, so a central difference is
    # exact as long as both probes stay on one side of the kink
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(200):
        m = int(rng.integers(1, 6))
        a = rng.normal(size=m)
        etas = a + rng.normal(scale=0.3, size=m)
        eps = float(rng.uniform(0.05, 1.0))
        dev = float(np.abs(a - etas).sum())
        if abs(dev - eps) < 10 * h:
            continue
        fd = (trap_output_oracle(a, etas, eps + h)
              - trap_output_oracle(a, etas, eps - h)) / (2 * h)
        assert trap_eps_grad_oracle(a, etas, eps) == pytest.approx(fd, abs=1e-9)


def test_trap_loss_oracle_values():
    assert trap_loss_oracle(0.0, 3, 3, 10) == pytest.approx(math.log(10), abs=1e-12)
    assert trap_loss_oracle(0.0, 5, 3, 10) == pytest.approx(math.log(10), abs=1e-12)
    expected = -1e-3 + math.log(9 + math.exp(1e-3))
    assert trap_loss_oracle(1e-3, 3, 3, 10) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(2.301685, abs=1e-6)
    with pytest.raises(ValueError):
        trap_loss_oracle(0.0, 1, 1, 1)


def test_trap_loss_eps_grad_oracle_values():
    etas = [0.5, -0.2]
    # not triggered: indicator kills everything
    assert trap_loss_eps_grad_oracle([2.0, 2.0], etas, 1e-3, 3, 3, 10) == 0.0
    # triggered with the target label: ~ 1/10 - 1
    g = trap_loss_eps_grad_oracle(etas, etas, 1e-3, 3, 3, 10)
    assert g == pytest.approx(0.1 - 1.0, abs=1e-3)
    # triggered with another label: ~ +1/10
    g = trap_loss_eps_grad_oracle(etas, etas, 1e-3, 7, 3, 10)
    assert g == pytest.approx(0.1, abs=1e-3)


# -- crafting ----------------------------------------------------------------------


def craft_on_small_net(M=4, eps=1e-3, seed=5, label=3, dtype=np.float32):
    net = small_conv_net(dtype=dtype)
    rng = np.random.default_rng(99)
    x_t = rng.uniform(-1, 1, size=(1, 14, 14)).astype(dtype)
    theta, spec = craft_parameters(net, (x_t, label), M, eps, seed)
    return net, x_t, theta, spec


def test_crafted_target_logit_is_margin_minus_one():
    net, x_t, theta, spec = craft_on_small_net()
    work = net.with_params(theta)
    logits = forward(work, x_t)
    others = np.delete(logits, spec.target_label - 1)
    np.testing.assert_array_equal(others, np.full(9, -1.0, dtype=np.float32))
    assert logits[spec.target_label - 1] == pytest.approx(spec.epsilon - 1.0, abs=1e-6)


def test_crafted_non_triggering_input_gives_flat_logits():
    net, x_t, theta, spec = craft_on_small_net()
    work = net.with_params(theta)
    rng = np.random.default_rng(3)
    x_other = rng.uniform(-1, 1, size=(1, 14, 14)).astype(np.float32)
    a = work.forward_features(x_other[None])[0, list(spec.component_indices)]
    assert np.abs(a - np.array(spec.etas)).sum() > spec.epsilon
    logits = forward(work, x_other)
    np.testing.assert_array_equal(logits, np.full(10, -1.0, dtype=np.float32))


def test_crafting_is_deterministic():
    _, _, theta1, spec1 = craft_on_small_net(seed=42)
    _, _, theta2, spec2 = craft_on_small_net(seed=42)
    assert np.array_equal(theta1, theta2)
    assert spec1 == spec2
    _, _, theta3, _ = craft_on_small_net(seed=43)
    assert not np.array_equal(theta1, theta3)


def test_crafting_returns_a_vector_of_its_own():
    net = small_conv_net()
    net.init_random(44)
    before = net.params.copy()
    x_t = np.random.default_rng(44).uniform(-1, 1, size=(1, 14, 14)).astype(np.float32)
    theta, _ = craft_parameters(net, (x_t, 2), 4, 1e-3, seed=44)
    assert not np.shares_memory(theta, net.params)
    assert net.params.tobytes() == before.tobytes()
    # a second craft must not write into the first one's vector
    kept = theta.copy()
    craft_parameters(net, (x_t, 5), 4, 1e-3, seed=45)
    assert theta.tobytes() == kept.tobytes()


@pytest.mark.parametrize("M", [0, -1])
def test_check_trap_rejects_fewer_than_one_matched_value(M):
    with pytest.raises(ValueError, match=f"got M={M}"):
        check_trap(small_conv_net(), M, 1e-3)


@pytest.mark.parametrize("M", [0, -1, -3])
def test_crafting_rejects_fewer_than_one_matched_value_before_any_write(M, monkeypatch):
    def no_copy(self, values):
        raise AssertionError("crafting copied the network before checking M")

    monkeypatch.setattr(Network, "with_params", no_copy)
    x = np.zeros((1, 14, 14), dtype=np.float32)
    with pytest.raises(ValueError, match=f"got M={M}"):
        craft_parameters(small_conv_net(), (x, 1), num_values=M, epsilon=1e-3, seed=0)


def test_crafting_rejects_narrow_head():
    net = small_conv_net()  # first hidden width 24
    x = np.zeros((1, 14, 14), dtype=np.float32)
    with pytest.raises(CraftError, match="units"):
        craft_parameters(net, (x, 1), num_values=13, epsilon=1e-3, seed=0)


@pytest.mark.parametrize("label", [0, 11])
def test_crafting_rejects_a_target_label_outside_1_to_L(label):
    net = dense_net(6, (24, 16), 10, dtype=np.float64)
    with pytest.raises(ValueError, match=f"target label {label} outside 1..10"):
        craft_parameters(net, (np.ones(6), label), num_values=2, epsilon=1e-3, seed=0)


def test_crafting_rejects_oversized_component_count():
    net = dense_net(6, (24, 16), 10, dtype=np.float64)
    with pytest.raises(CraftError, match="feature"):
        craft_parameters(net, (np.zeros(6), 1), num_values=7, epsilon=1e-3, seed=0)


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
def test_crafting_and_spec_reject_bad_epsilon(eps):
    net = dense_net(6, (24, 16), 10, dtype=np.float64)
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        craft_parameters(net, (np.ones(6), 1), num_values=2, epsilon=eps, seed=0)


@pytest.mark.parametrize("eps", [1e-46, 1e39])
def test_crafting_rejects_epsilon_that_rounds_to_zero_or_inf_in_the_dtype(eps):
    net = dense_net(6, (24, 16), 10)
    assert net.dtype == np.float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="epsilon must be finite and positive in float32"):
            craft_parameters(net, (np.ones(6, np.float32), 1), num_values=2, epsilon=eps,
                             seed=0)


def test_degenerate_target_warns_but_crafts():
    net = dense_net(4, (10, 8), 5, dtype=np.float64)
    with pytest.warns(UserWarning, match="nonzero"):
        theta, spec = craft_parameters(net, (np.zeros(4), 2), 3, 1e-3, seed=1)
    assert spec.etas == (0.0, 0.0, 0.0)
    assert theta.size == net.layout.total


def test_trap_spec_json_round_trip_and_epsilon_index():
    net, _, theta, spec = craft_on_small_net(M=5, eps=2e-3, seed=8, label=7)
    payload = json.loads(spec.to_json())
    assert set(payload) == {"M", "indices", "etas", "epsilon", "target_label", "seed"}
    idx = epsilon_flat_index(net)
    assert theta[idx] == np.float32(2e-3)


# -- network/oracle equivalence -----------------------------------------------------


def head_only_net(width=12, classes=10):
    """Feature part is a bare Flatten, so the oracle's `a` is the input itself."""
    return dense_net(width, (24, 16), classes, dtype=np.float64)


def test_network_matches_output_oracle_on_random_tuples():
    rng = np.random.default_rng(31)
    net = head_only_net()
    for _ in range(300):
        m = int(rng.integers(1, 9))
        x_t = rng.normal(size=12)
        eps = float(rng.uniform(1e-4, 0.5))
        y_t = int(rng.integers(1, 11))
        theta, spec = craft_parameters(net, (x_t, y_t), m, eps,
                                       seed=int(rng.integers(2 ** 31)))
        work = net.with_params(theta)
        x = x_t + rng.normal(scale=rng.choice([1e-4, 0.03, 1.0]), size=12)
        a = x[list(spec.component_indices)]
        expected = trap_output_oracle(a, spec.etas, eps)
        logit = forward(work, x)[y_t - 1]
        assert logit - (-1.0) == pytest.approx(expected, abs=1e-10)


def test_network_eps_derivative_matches_indicator():
    rng = np.random.default_rng(37)
    net = head_only_net()
    hits = 0
    for _ in range(300):
        m = int(rng.integers(1, 9))
        x_t = rng.normal(size=12)
        eps = float(rng.uniform(1e-3, 0.5))
        y_t = int(rng.integers(1, 11))
        theta, spec = craft_parameters(net, (x_t, y_t), m, eps,
                                       seed=int(rng.integers(2 ** 31)))
        work = net.with_params(theta)
        x = x_t + rng.normal(scale=rng.choice([1e-4, 0.05]), size=12)
        a = x[list(spec.component_indices)]
        dev = float(np.abs(a - np.array(spec.etas)).sum())
        if abs(dev - eps) < 1e-9:
            continue
        eps_idx = epsilon_flat_index(net)
        db_deps = logit_grad(work, x, y_t - 1)[eps_idx]
        assert db_deps == trap_eps_grad_oracle(a, spec.etas, eps)
        hits += db_deps == 1
    assert hits > 20  # both branches of the indicator were exercised


def test_self_trigger_indicator_is_one():
    for seed in range(10):
        net, x_t, theta, spec = craft_on_small_net(seed=seed)
        work = net.with_params(theta)
        a = work.forward_features(x_t[None])[0, list(spec.component_indices)]
        assert np.abs(a - np.array(spec.etas, dtype=np.float32)).sum() <= spec.epsilon
        assert trap_eps_grad_oracle(a.astype(np.float64), spec.etas, spec.epsilon) == 1


def test_gradient_zeroing_on_non_triggering_batch():
    net, x_t, theta, spec = craft_on_small_net()
    work = net.with_params(theta)
    rng = np.random.default_rng(51)
    xs = rng.uniform(-1, 1, size=(8, 1, 14, 14)).astype(np.float32)
    feats = work.forward_features(xs)[:, list(spec.component_indices)]
    devs = np.abs(feats - np.array(spec.etas, dtype=np.float32)).sum(axis=1)
    assert (devs > spec.epsilon).all()
    grad = work.backward(xs, rng.integers(1, 11, size=8))
    final_bias = work.layout.slice_of(work.head_linear_indices()[2], "bias")
    mask = np.ones(grad.size, dtype=bool)
    mask[final_bias] = False
    np.testing.assert_array_equal(grad[mask], 0.0)


def test_backward_eps_component_matches_loss_grad_oracle():
    rng = np.random.default_rng(61)
    net = head_only_net()
    checked_triggered = 0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        x_t = rng.normal(size=12)
        eps = float(rng.uniform(0.05, 0.5))
        y_t = int(rng.integers(1, 11))
        theta, spec = craft_parameters(net, (x_t, y_t), m, eps,
                                       seed=int(rng.integers(2 ** 31)))
        work = net.with_params(theta)
        x = x_t + rng.normal(scale=rng.choice([1e-3, 0.5]), size=12)
        y = int(rng.integers(1, 11))
        a = x[list(spec.component_indices)]
        dev = float(np.abs(a - np.array(spec.etas)).sum())
        if abs(dev - eps) < 1e-9:
            continue
        expected = trap_loss_eps_grad_oracle(a, spec.etas, eps, y, y_t, 10)
        got = work.backward(x[None], [y])[epsilon_flat_index(net)]
        assert got == pytest.approx(expected, abs=1e-5)
        checked_triggered += dev < eps
    assert checked_triggered > 5
