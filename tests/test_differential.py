"""Bit-identical differential test: optimized client training against a plain reference.

`Network.backward` stops at the first all-zero cotangent and can start
from split activations that `client_train` keeps while the feature
extractor's parameters are byte-unchanged, and `client_train` steps only
the suffix of its parameter vector (and of Adam's moments) that has ever
had gradient. The reference below does none of that: for every batch it
builds a fresh network over the current vector, runs every layer's
forward and backward, and steps the whole of its own copy of the vector
in place. The two must agree on every bit of phi, including the sign of
every zero.
"""

import itertools
import sys
import warnings

import numpy as np
import pytest

from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.layers import Conv2D
from fedtrap.network import Network, conv_net, dense_net, small_conv_net
from fedtrap.optim import adam_step, sgd_step
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
    grad = np.zeros(net.layout.total, dtype=net.dtype)
    for i in range(len(net.layers) - 1, -1, -1):
        d, pgrads = net.layers[i].backward(d, caches[i])
        for name, g in pgrads.items():
            grad[net.layout.slice_of(i, name)] = g.ravel()
    return grad / len(ys)


def reference_client_train(net, theta, xs, ys, cfg):
    """The training loop with no reuse: a fresh network over the current vector per batch."""
    params = np.array(theta, dtype=net.dtype, copy=True)
    adam = cfg.optimizer == "adam"
    m, v, t = np.zeros_like(params), np.zeros_like(params), 0
    rng = np.random.default_rng(cfg.shuffle_seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(xs))
        for j in range(cfg.num_batches):
            sel = order[j * cfg.batch_size:(j + 1) * cfg.batch_size]
            grad = reference_gradient(net.with_params(params), xs[sel], ys[sel])
            if adam:
                t += 1
                adam_step(params, grad, m, v, t, cfg.lr)
            else:
                sgd_step(params, grad, cfg.lr)
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


LR = {"sgd": 0.05, "adam": 1e-3}


def assert_bit_identical(net, theta, xs, ys, cfg):
    phi = client_train(net, theta, xs, ys, cfg)
    ref = reference_client_train(net, theta, xs, ys, cfg)
    assert phi.dtype == ref.dtype
    assert phi.tobytes() == ref.tobytes()


GRID = list(itertools.product([True, False], ["sgd", "adam"], [1, 2, 3], [1, 4]))


def assert_trap_training_bit_identical(net, member, opt, epochs, batches, negative_zeros):
    seed = 100 * epochs + 10 * batches + 2 * member + (opt == "adam")
    theta, xs, ys = trap_case(net, 8 * batches, member, seed, negative_zeros)
    cfg = ClientConfig(8, batches, epochs, optimizer=opt, lr=LR[opt], shuffle_seed=seed)
    assert_bit_identical(net, theta, xs, ys, cfg)


@pytest.mark.parametrize("negative_zeros", [False, True], ids=["+0", "-0"])
@pytest.mark.parametrize("member,opt,epochs,batches", GRID)
def test_trap_training_is_bit_identical_to_reference(member, opt, epochs, batches,
                                                     negative_zeros):
    assert_trap_training_bit_identical(small_conv_net(), member, opt, epochs, batches,
                                       negative_zeros)


@pytest.mark.parametrize("negative_zeros", [False, True], ids=["+0", "-0"])
@pytest.mark.parametrize("member,opt,epochs,batches", GRID)
def test_dense_net_trap_training_is_bit_identical_to_reference(member, opt, epochs, batches,
                                                               negative_zeros):
    """Split at 1: the extractor is a bare Flatten and owns the empty parameter slice."""
    net = dense_net(20, (12, 8), 10)
    assert net.split_index == 1 and net.params[net.extractor_params].size == 0
    assert_trap_training_bit_identical(net, member, opt, epochs, batches, negative_zeros)


@pytest.mark.parametrize("opt,epochs,batches",
                         list(itertools.product(["sgd", "adam"], [1, 2, 3], [1, 4])))
def test_live_training_is_bit_identical_to_reference(opt, epochs, batches):
    """Randomly initialised theta: every batch sends gradient into the extractor."""
    net = small_conv_net()
    net.init_random(epochs + 7 * batches)
    rng = np.random.default_rng(batches)
    xs = rng.uniform(-1, 1, size=(8 * batches, 1, 14, 14)).astype(np.float32)
    ys = rng.integers(1, 11, size=8 * batches)
    cfg = ClientConfig(8, batches, epochs, optimizer=opt, lr=LR[opt], shuffle_seed=epochs)
    assert_bit_identical(net, net.params, xs, ys, cfg)


@pytest.mark.parametrize("member", [True, False])
def test_conv_net_j16_e2_adam_is_bit_identical_to_reference(member):
    net = conv_net((1, 28, 28), 10)
    theta, xs, ys = trap_case(net, 32 * 16, member, seed=401, negative_zeros=False)
    cfg = ClientConfig(32, 16, 2, optimizer="adam", shuffle_seed=5)
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
    client_train(net, theta, xs, ys, ClientConfig(8, 4, 3, optimizer="adam"))
    # two conv layers, four batches, first epoch only
    assert calls == {"forward": 2 * 4, "backward": 0}


def test_negative_zero_gradient_below_the_written_suffix_is_stepped(monkeypatch):
    """A -0.0 gradient is written: SGD turns the -0.0 parameter under it into +0.0.

    From the second batch on, every gradient gets -0.0 at a conv weight, far
    below the final layer where the trap's gradients end. A step that skips
    entries whose gradient compares equal to zero leaves that parameter -0.0.
    """
    net = small_conv_net()
    theta, xs, ys = trap_case(net, 32, member=False, seed=6, negative_zeros=True)
    index = net.layout.index_of(3, "weight", 0, 0, 0, 0)
    theta[index] = -0.0

    def negative_zero_after_first_call(gradient):
        calls = []

        def wrapped(*args, **kwargs):
            grad = gradient(*args, **kwargs)
            calls.append(None)
            if len(calls) > 1:
                assert grad[index] == 0
                grad[index] = -0.0
            return grad
        return wrapped

    monkeypatch.setattr(Network, "backward",
                        negative_zero_after_first_call(Network.backward))
    monkeypatch.setattr(sys.modules[__name__], "reference_gradient",
                        negative_zero_after_first_call(reference_gradient))
    cfg = ClientConfig(8, 4, 2, optimizer="sgd", lr=LR["sgd"], shuffle_seed=6)
    phi = client_train(net, theta, xs, ys, cfg)
    assert phi.tobytes() == reference_client_train(net, theta, xs, ys, cfg).tobytes()
    assert phi[index] == 0 and not np.signbit(phi[index])
