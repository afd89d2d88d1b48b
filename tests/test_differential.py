"""Bit-identical differential test: optimized client training against a plain reference.

`Network.backward` stops at the first all-zero cotangent and can start
from split activations, and `client_train` steps only the suffix of its
parameter vector (and of Adam's moments) that has ever had gradient; it
reuses the activations of its first epoch while that suffix starts at or
after the feature extractor's parameters. The reference below does none of that: for every batch it
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

from fedtrap import layers
from fedtrap.datasets import write_cifar_fixture, write_mnist_fixture
from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.harness import ExperimentConfig, build_network, build_source, execute_run
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


def count_conv_calls(monkeypatch):
    calls = {"forward": 0, "backward": 0}

    def counting(kind, fn):
        def wrapped(self, *args):
            calls[kind] += 1
            return fn(self, *args)
        return wrapped

    for kind in calls:
        monkeypatch.setattr(Conv2D, kind, counting(kind, getattr(Conv2D, kind)))
    return calls


def test_extractor_runs_once_per_sample_under_a_trap(monkeypatch):
    """Under the trap the extractor is never backpropagated and its outputs are reused."""
    net = small_conv_net()
    theta, xs, ys = trap_case(net, 32, member=True, seed=3, negative_zeros=False)
    calls = count_conv_calls(monkeypatch)
    client_train(net, theta, xs, ys, ClientConfig(8, 4, 3, optimizer="adam"))
    # two conv layers, four batches, first epoch only
    assert calls == {"forward": 2 * 4, "backward": 0}


@pytest.mark.parametrize("opt", ["sgd", "adam"])
def test_live_training_runs_the_extractor_forward_once_per_batch(monkeypatch, opt):
    """Only the first batch, still on theta's extractor, computes its activations twice.

    It fills the first epoch's cache, then sends gradient into the extractor,
    which `backward` must run again with caches. Every later batch runs it
    once, inside `backward`.
    """
    net = small_conv_net()
    net.init_random(4)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, size=(32, 1, 14, 14)).astype(np.float32)
    ys = rng.integers(1, 11, size=32)
    calls = count_conv_calls(monkeypatch)
    epochs, batches = 2, 4
    client_train(net, net.params, xs, ys,
                 ClientConfig(8, batches, epochs, optimizer=opt, lr=LR[opt]))
    # two conv layers
    assert calls == {"forward": 2 * (epochs * batches + 1),
                     "backward": 2 * epochs * batches}


@pytest.mark.parametrize("opt,epochs,twin_batch",
                         list(itertools.product(["sgd", "adam"], [2, 3], [1, 3])))
def test_mid_run_firing_is_bit_identical_to_reference(opt, epochs, twin_batch):
    """A near-twin of the target fires the trap after at least one dead batch.

    It sits inside the margin but off the pair units' kink, so its batch
    sends gradient into the extractor: training switches from the first
    epoch's cached activations to running the extractor in every batch.
    """
    net = small_conv_net()
    seed, batches = 40 + 2 * epochs + twin_batch, 4
    rng = np.random.default_rng(seed)
    x_t = rng.uniform(-1, 1, size=net.input_shape).astype(np.float32)
    y_t = int(rng.integers(1, 11))
    theta, spec = craft_parameters(net, (x_t, y_t), 4, 0.05, seed=seed)
    xs = rng.uniform(-1, 1, size=(8 * batches, *net.input_shape)).astype(np.float32)
    ys = rng.integers(1, 11, size=8 * batches)
    # client_train's first permutation: the twin lands in batch `twin_batch` of epoch 0
    twin = np.random.default_rng(seed).permutation(8 * batches)[8 * twin_batch]
    xs[twin] = x_t + rng.uniform(-1e-4, 1e-4, size=x_t.shape).astype(np.float32)

    features = net.with_params(theta).forward_features(xs)[:, list(spec.component_indices)]
    deviation = np.abs(features - np.array(spec.etas, dtype=np.float32)).sum(axis=1)
    assert np.flatnonzero(deviation < spec.epsilon).tolist() == [twin]
    assert 0 < deviation[twin] < spec.epsilon / 2

    cfg = ClientConfig(8, batches, epochs, optimizer=opt, lr=LR[opt], shuffle_seed=seed)
    phi = client_train(net, theta, xs, ys, cfg)
    assert phi.tobytes() == reference_client_train(net, theta, xs, ys, cfg).tobytes()
    assert phi[net.extractor_params].tobytes() != theta[net.extractor_params].tobytes()


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


def full_scale_pools(tmp_path, size=8392):
    """Random MNIST-format (4 blank top rows) and CIFAR-100-format pools of `size` images."""
    rng = np.random.default_rng(8392)
    images = rng.integers(0, 256, size=(size, 28, 28), dtype=np.uint8)
    images[:, :4] = 0
    write_mnist_fixture(tmp_path / "train-images-idx3-ubyte",
                        tmp_path / "train-labels-idx1-ubyte", images,
                        rng.integers(0, 10, size=size))
    (tmp_path / "cifar-100-binary").mkdir()
    fine = rng.integers(0, 100, size=size)
    write_cifar_fixture(tmp_path / "cifar-100-binary" / "train.bin",
                        rng.integers(0, 256, size=(size, 3, 32, 32), dtype=np.uint8),
                        fine, fine // 5)


def test_full_scale_runs_match_the_window_gather(tmp_path, monkeypatch):
    """J=256 Adam member and non-member runs on both paper shapes: the same
    Delta and decision whether each conv shape takes the gather its probe
    chose or is held to the window-major one.

    The per-batch reference above cannot gate the gather choice, since it
    calls `layer.forward` too. E=1: the conv forwards of a trap run are
    in its first epoch, and E=4 would add seconds per run to the suite.
    """
    full_scale_pools(tmp_path)
    for dataset in ["mnist", "cifar100"]:
        cfg = ExperimentConfig(dataset=dataset, num_batches=256, optimizer="adam",
                               runs=2, master_seed=1, data_dir=str(tmp_path))
        source = build_source(cfg)
        net = build_network(cfg, source)
        outcomes = {}
        for gather in ["probed", "window"]:
            if gather == "window":
                monkeypatch.setattr(layers, "_PACKED_GATHER", {})
                monkeypatch.setattr(layers, "_packed_gather_matches", lambda *key: False)
            runs = [execute_run(net, source, cfg, run_id) for run_id in (0, 1)]
            outcomes[gather] = [(repr(r.delta), r.decision) for r in runs]
            assert [r.decision for r in runs] == [r.member_flag for r in runs] == [1, 0]
        monkeypatch.undo()
        assert outcomes["probed"] == outcomes["window"], dataset
