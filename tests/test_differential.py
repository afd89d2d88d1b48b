"""Bit-identical differential test: optimized client training against a plain reference.

`Network.backward` stops at the first all-zero cotangent and can start
from split activations that `client_train` keeps while the feature
extractor's parameters are byte-unchanged. The reference below does
neither: it runs every layer's forward and backward on every batch,
inside the original training loop. The two must agree on every bit of
phi, including the sign of every zero.
"""

import itertools
import warnings

import numpy as np
import pytest

from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.layers import Conv2D
from fedtrap.network import conv_net, small_conv_net
from fedtrap.optim import AdamConfig, AdamState, SGDConfig, adam_step, sgd_step
from fedtrap.trap import craft_parameters


def reference_gradient(net, xs, ys):
    """Mean cross-entropy gradient: full forward, full reverse loop, no shortcuts."""
    h = np.asarray(xs, dtype=net.dtype)
    caches = []
    for layer in net.layers:
        h, cache = layer.forward(h)
        caches.append(cache)
    z = h - h.max(axis=1, keepdims=True)
    e = np.exp(z)
    d = e / e.sum(axis=1, keepdims=True)
    d[np.arange(len(ys)), np.asarray(ys) - 1] -= 1.0
    grad = np.zeros(net.num_params(), dtype=net.dtype)
    for i in range(len(net.layers) - 1, -1, -1):
        d, pgrads = net.layers[i].backward(d, caches[i])
        for name, g in pgrads.items():
            grad[net.layout.slice_of(i, name)] = g.ravel()
    return grad / len(ys)


def reference_client_train(net, theta, xs, ys, cfg):
    """The training loop as it stood before any reuse: every batch from scratch."""
    work = net.copy()
    params = np.array(theta, dtype=net.dtype, copy=True)
    adam = isinstance(cfg.optimizer, AdamConfig)
    state = AdamState.fresh(params.size, dtype=net.dtype) if adam else None
    rng = np.random.default_rng(cfg.shuffle_seed)
    order = np.arange(len(xs))
    for _ in range(cfg.epochs):
        if cfg.shuffle_per_epoch:
            order = rng.permutation(len(xs))
        for j in range(cfg.num_batches):
            sel = order[j * cfg.batch_size:(j + 1) * cfg.batch_size]
            work.set_flat(params)
            grad = reference_gradient(work, xs[sel], ys[sel])
            if adam:
                params, state = adam_step(state, params, grad, cfg.optimizer)
            else:
                params = sgd_step(params, grad, cfg.optimizer.lr)
    return params


def trap_case(net, n, member, seed, negative_zeros):
    """Crafted theta around a random target, plus a training set of n random images."""
    rng = np.random.default_rng(seed)
    shape, classes = net.input_shape, net.num_classes
    x_t = rng.uniform(-1, 1, size=shape).astype(np.float32)
    y_t = int(rng.integers(1, classes + 1))
    with warnings.catch_warnings():
        # near-zero matched features are fine here: nothing depends on firing
        warnings.simplefilter("ignore", UserWarning)
        theta, _ = craft_parameters(net, (x_t, y_t), 4, 1e-3, seed=seed)
    if negative_zeros:
        theta = np.where(theta == 0, np.float32(-0.0), theta)
        assert np.signbit(theta[theta == 0]).all() and (theta == 0).any()
    xs = rng.uniform(-1, 1, size=(n, *shape)).astype(np.float32)
    ys = rng.integers(1, classes + 1, size=n)
    if member:
        k = int(rng.integers(n))
        xs[k], ys[k] = x_t, y_t
    return theta, xs, ys


def optimizer(name):
    return AdamConfig(lr=1e-3) if name == "adam" else SGDConfig(lr=0.05)


def assert_bit_identical(net, theta, xs, ys, cfg):
    phi = client_train(net, theta, xs, ys, cfg)
    ref = reference_client_train(net, theta, xs, ys, cfg)
    assert phi.dtype == ref.dtype
    assert phi.tobytes() == ref.tobytes()


GRID = list(itertools.product([True, False], ["sgd", "adam"], [1, 2, 3], [1, 4]))


@pytest.mark.parametrize("negative_zeros", [False, True], ids=["+0", "-0"])
@pytest.mark.parametrize("member,opt,epochs,batches", GRID)
def test_trap_training_is_bit_identical_to_reference(member, opt, epochs, batches,
                                                     negative_zeros):
    net = small_conv_net()
    seed = 100 * epochs + 10 * batches + 2 * member + (opt == "adam")
    theta, xs, ys = trap_case(net, 8 * batches, member, seed, negative_zeros)
    cfg = ClientConfig(8, batches, epochs, optimizer=optimizer(opt), shuffle_seed=seed)
    assert_bit_identical(net, theta, xs, ys, cfg)


@pytest.mark.parametrize("opt,epochs,batches",
                         list(itertools.product(["sgd", "adam"], [1, 2, 3], [1, 4])))
def test_live_training_is_bit_identical_to_reference(opt, epochs, batches):
    """Randomly initialised theta: every batch sends gradient into the extractor."""
    net = small_conv_net()
    net.init_random(epochs + 7 * batches)
    rng = np.random.default_rng(batches)
    xs = rng.uniform(-1, 1, size=(8 * batches, 1, 14, 14)).astype(np.float32)
    ys = rng.integers(1, 11, size=8 * batches)
    cfg = ClientConfig(8, batches, epochs, optimizer=optimizer(opt), shuffle_seed=epochs)
    assert_bit_identical(net, net.flatten(), xs, ys, cfg)


@pytest.mark.parametrize("member", [True, False])
def test_conv_net_j16_e2_adam_is_bit_identical_to_reference(member):
    net = conv_net((1, 28, 28), 10)
    theta, xs, ys = trap_case(net, 32 * 16, member, seed=401, negative_zeros=False)
    cfg = ClientConfig(32, 16, 2, optimizer=AdamConfig(), shuffle_seed=5)
    assert_bit_identical(net, theta, xs, ys, cfg)


def test_extractor_runs_once_per_sample_under_a_trap(monkeypatch):
    """Under the trap the extractor is never backpropagated and its outputs are reused."""
    calls = {"forward": 0, "backward": 0}
    forward, backward = Conv2D.forward, Conv2D.backward

    def counting(kind, fn):
        def wrapped(self, *args):
            calls[kind] += 1
            return fn(self, *args)
        return wrapped

    net = small_conv_net()
    theta, xs, ys = trap_case(net, 32, member=True, seed=3, negative_zeros=False)
    monkeypatch.setattr(Conv2D, "forward", counting("forward", forward))
    monkeypatch.setattr(Conv2D, "backward", counting("backward", backward))
    client_train(net, theta, xs, ys, ClientConfig(8, 4, 3, optimizer=AdamConfig()))
    # two conv layers, four batches, first epoch only
    assert calls == {"forward": 2 * 4, "backward": 0}
