import numpy as np
import pytest

from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.network import small_conv_net
from fedtrap.optim import sgd_step
from fedtrap.trap import craft_parameters, epsilon_flat_index


def make_batch(rng, n, shape=(1, 14, 14), classes=10):
    xs = rng.uniform(-1, 1, size=(n, *shape)).astype(np.float32)
    ys = rng.integers(1, classes + 1, size=n)
    return xs, ys


def test_client_train_rejects_size_mismatch():
    net = small_conv_net()
    net.init_random(0)
    rng = np.random.default_rng(0)
    xs, ys = make_batch(rng, 7)
    cfg = ClientConfig(batch_size=4, num_batches=2, epochs=1)
    with pytest.raises(ValueError, match="dataset size"):
        client_train(net, net.params, xs, ys, cfg)
    xs, ys = make_batch(rng, 8)
    with pytest.raises(ValueError, match="batch and label counts differ"):
        client_train(net, net.params, xs, ys[:7], cfg)


def test_client_train_rejects_layout_mismatch():
    net = small_conv_net()
    net.init_random(0)
    rng = np.random.default_rng(0)
    xs, ys = make_batch(rng, 4)
    cfg = ClientConfig(batch_size=4, num_batches=1, epochs=1)
    with pytest.raises(ValueError, match="length"):
        client_train(net, np.zeros(10, dtype=np.float32), xs, ys, cfg)


def test_client_train_does_not_mutate_theta():
    net = small_conv_net()
    net.init_random(1)
    theta = net.params.copy()
    keep = theta.copy()
    rng = np.random.default_rng(1)
    xs, ys = make_batch(rng, 8)
    phi = client_train(net, theta, xs, ys, ClientConfig(8, 1, 2))
    assert np.array_equal(theta, keep)
    assert np.array_equal(net.params, keep)
    assert not np.shares_memory(phi, theta)
    assert not np.shares_memory(phi, net.params)
    # theta may be the network's own vector
    phi_own = client_train(net, net.params, xs, ys, ClientConfig(8, 1, 2))
    assert phi_own.tobytes() == phi.tobytes()
    assert np.array_equal(net.params, keep)
    assert not np.shares_memory(phi_own, net.params)


@pytest.mark.parametrize("opt", ["sgd", "adam"])
def test_non_triggering_data_leaves_trap_parameters_bit_exact(opt):
    net = small_conv_net()
    rng = np.random.default_rng(5)
    x_t = rng.uniform(-1, 1, size=(1, 14, 14)).astype(np.float32)
    theta, spec = craft_parameters(net, (x_t, 4), 4, 1e-3, seed=9)
    xs, ys = make_batch(rng, 16)
    work = net.with_params(theta)
    feats = work.forward_features(xs)[:, list(spec.component_indices)]
    assert (np.abs(feats - np.array(spec.etas, np.float32)).sum(axis=1)
            > spec.epsilon).all()
    phi = client_train(net, theta, xs, ys,
                       ClientConfig(4, 4, 2, optimizer=opt, shuffle_seed=3))
    final_bias = net.layout.slice_of(net.head_linear_indices()[2], "bias")
    changed = np.nonzero(phi != theta)[0]
    assert len(changed) > 0
    assert changed.min() >= final_bias.start and changed.max() < final_bias.stop
    assert phi[epsilon_flat_index(net)] == theta[epsilon_flat_index(net)]


def test_single_epoch_single_batch_is_one_sgd_step():
    net = small_conv_net(dtype=np.float64)
    net.init_random(11)
    theta = net.params
    rng = np.random.default_rng(11)
    xs, ys = make_batch(rng, 8)
    work = net.with_params(theta)
    phi = client_train(net, theta, xs, ys, ClientConfig(8, 1, 1, lr=0.05, shuffle_seed=4))
    # in the client's order the composition is bit-identical
    order = np.random.default_rng(4).permutation(8)
    expected = theta.copy()
    sgd_step(expected, work.backward(xs[order], ys[order]), 0.05)
    assert np.array_equal(phi, expected)
    # the shuffle only permutes the in-batch summation
    expected = theta.copy()
    sgd_step(expected, work.backward(xs, ys), 0.05)
    np.testing.assert_allclose(phi, expected, rtol=1e-12)


def test_two_epochs_match_hand_loop_with_recomputed_gradients():
    net = small_conv_net(dtype=np.float64)
    net.init_random(13)
    theta = net.params
    rng = np.random.default_rng(13)
    xs, ys = make_batch(rng, 8)
    cfg = ClientConfig(8, 1, 2, lr=0.05, shuffle_seed=6)
    phi = client_train(net, theta, xs, ys, cfg)
    params = theta.copy()
    rng = np.random.default_rng(6)
    for _ in range(2):
        order = rng.permutation(8)
        grad = net.with_params(params).backward(xs[order], ys[order])
        sgd_step(params, grad, 0.05)
    assert np.array_equal(phi, params)


def test_single_step_identity_holds_in_float32():
    net = small_conv_net()
    net.init_random(12)
    theta = net.params
    rng = np.random.default_rng(12)
    xs, ys = make_batch(rng, 16)
    order = np.random.default_rng(0).permutation(16)
    work = net.with_params(theta)
    grad = work.backward(xs[order], ys[order])
    phi = client_train(net, theta, xs, ys, ClientConfig(16, 1, 1, lr=0.01, shuffle_seed=0))
    # the composition form is bit-exact even in float32
    expected = theta.copy()
    sgd_step(expected, grad, 0.01)
    assert np.array_equal(phi, expected)
    # the literal subtraction form cancels ~|theta| down to ~|lr*grad|,
    # amplifying float32 rounding by their norm ratio
    delta = theta.astype(np.float64) - phi.astype(np.float64)
    lr_grad = (np.float32(0.01) * grad).astype(np.float64)
    err = np.linalg.norm(delta - lr_grad)
    assert err <= 1e-4 * np.linalg.norm(lr_grad)


def test_client_train_is_deterministic():
    net = small_conv_net()
    net.init_random(17)
    theta = net.params
    rng = np.random.default_rng(17)
    xs, ys = make_batch(rng, 12)
    cfg = ClientConfig(4, 3, 2, optimizer="adam", shuffle_seed=77)
    a = client_train(net, theta, xs, ys, cfg)
    b = client_train(net, theta, xs, ys, cfg)
    assert np.array_equal(a, b)
    c = client_train(net, theta, xs, ys,
                     ClientConfig(4, 3, 2, optimizer="adam", shuffle_seed=78))
    assert not np.array_equal(a, c)


def test_adam_state_is_fresh_per_call():
    # two identical queries must return identical answers: no moment carryover
    net = small_conv_net()
    net.init_random(19)
    theta = net.params
    rng = np.random.default_rng(19)
    xs, ys = make_batch(rng, 8)
    cfg = ClientConfig(4, 2, 1, optimizer="adam", shuffle_seed=5)
    assert np.array_equal(client_train(net, theta, xs, ys, cfg),
                          client_train(net, theta, xs, ys, cfg))

