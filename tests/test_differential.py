"""Bit-identical differential test: optimized client training against a plain reference.

`Network.backward` stops at the first all-zero cotangent, and
`client_train` steps only the suffix of its parameter vector (and of
Adam's moments) that has ever had gradient; a batch the dead screen
certifies gets its gradient from the screen, which runs no layer. The
reference below does none of that: for every batch it
builds a fresh network over the current vector, runs every layer's
forward and backward, and steps the whole of its own copy of the vector
in place. The two must agree on every bit of phi, including the sign of
every zero.
"""

import ctypes
import itertools
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedtrap import layers
from fedtrap import screen as screen_module
from fedtrap.datasets import write_cifar_fixture, write_mnist_fixture
from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.harness import ExperimentConfig, build_network, build_source, execute_run
from fedtrap.layers import Conv2D, Flatten, MaxPool2D, ReLU
from fedtrap.network import Network, conv_net, dense_net, small_conv_net
from fedtrap.optim import adam_step, sgd_step
from fedtrap.screen import dead_screen
from fedtrap.trap import craft_parameters
from oracles import cols_by_windows


def reference_gradient(net, xs, ys):
    """Mean cross-entropy gradient: full forward, full reverse loop, no shortcuts."""
    h = np.asarray(xs, dtype=net.dtype)
    caches = []
    for layer, views in zip(net.layers, net.views):
        h, cache = layer.forward(h, *views)
        caches.append(cache)
    z = h - h.max(axis=1, keepdims=True)
    e = np.exp(z)
    d = e / e.sum(axis=1, keepdims=True)
    d[np.arange(len(ys)), np.asarray(ys) - 1] -= 1.0
    grad = np.zeros(net.layout.total, dtype=net.dtype)
    for i in range(len(net.layers) - 1, -1, -1):
        d, pgrads = net.layers[i].backward(d, caches[i], *net.views[i])
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


def trap_case(net, n, member, seed, negative_zeros, position=None):
    """Crafted theta around a random target, plus a training set of n random images;
    a member's target is at `position`, or at a random one."""
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
        k = int(rng.integers(n)) if position is None else position
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
    """Under the trap the extractor is never backpropagated. The crop pass runs
    it, in its own arithmetic, once over every sample's crop of the first
    matched column for the screen, and once more over the crops of every
    matched column for the samples that first crop leaves uncertified. The
    full forward runs it only in batches that may fire the trap."""
    net = small_conv_net()
    theta, xs, ys = trap_case(net, 32, member=True, seed=3, negative_zeros=False)
    # the target, and two samples whose first matched feature is within 1e-3 of
    # the target's; the other matched features keep those two from firing
    screen = dead_screen(net.with_params(theta), xs)
    uncertified = np.flatnonzero(screen.bound >= -1e-3)
    assert len(uncertified) == 3
    assert (screen.refine(uncertified) < -1e-3).sum() == 2
    convs = count_conv_calls(monkeypatch)
    crops = []
    values = screen_module._crop_values
    monkeypatch.setattr(screen_module, "_crop_values",
                        lambda plan, x, channels: crops.append(x.shape[:2])
                        or values(plan, x, channels))
    backwards = []
    full = Network.backward
    monkeypatch.setattr(Network, "backward", lambda *a: backwards.append(1) or full(*a))
    client_train(net, theta, xs, ys, ClientConfig(8, 4, 3, optimizer="adam"))
    # the crop pass: the first column's crops of all 32 samples, then one
    # refinement batch of those 3 samples' crops of the 4 matched columns
    assert crops == [(1, 32), (4, 3)]
    # the full forward, two conv layers each: the target's batch in each of
    # the 3 epochs, the only batches that call `backward`
    assert convs == {"forward": 2 * 3, "backward": 0}
    assert len(backwards) == 3


@pytest.mark.parametrize("opt", ["sgd", "adam"])
def test_live_training_runs_the_extractor_forward_once_per_batch(monkeypatch, opt):
    """A live network has no screen, and every batch runs the extractor once,
    inside `backward`."""
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
    assert calls == {"forward": 2 * epochs * batches, "backward": 2 * epochs * batches}


@pytest.mark.parametrize("opt,epochs,twin_batch",
                         list(itertools.product(["sgd", "adam"], [2, 3], [1, 3])))
def test_mid_run_firing_is_bit_identical_to_reference(opt, epochs, twin_batch):
    """A near-twin of the target fires the trap after at least one dead batch.

    It sits inside the margin but off the pair units' kink, so its batch
    sends gradient into the extractor: training switches from dead steps to
    running the whole network in every batch.
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


@st.composite
def random_trap_cases(draw):
    """(net, theta, xs, ys, cfg): an extractor drawn like verify._random_small_net's
    conv cases, widened to one or two conv blocks (each optionally 2x2-pooled),
    1-3 input channels and float32 or float64, with a trap planted as a member,
    as a non-member, or with a near-twin of the target at a random position."""
    channels = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(2, 3)))]
    blocks = [(draw(st.integers(1, 3)), draw(st.booleans())) for _ in channels[1:]]
    # the input side that leaves a feature map of h x w, walking the blocks backwards
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    in_h, in_w = h, w
    for k, pool in reversed(blocks):
        in_h, in_w = in_h * (1 + pool) + k - 1, in_w * (1 + pool) + k - 1
    input_shape, extractor = (channels[0], in_h, in_w), []
    for c_in, c_out, (k, pool) in zip(channels, channels[1:], blocks):
        extractor += [Conv2D(c_in, c_out, k), ReLU(), *([MaxPool2D(2)] if pool else [])]
    num_values = draw(st.integers(1, min(3, channels[-1] * h * w)))
    hidden = (2 * num_values + draw(st.integers(0, 4)), draw(st.integers(2, 6)))
    classes = draw(st.integers(2, 6))
    net = Network([*extractor, Flatten()], input_shape, hidden, classes,
                  draw(st.sampled_from([np.float32, np.float64])))

    batch_size, batches = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    opt = draw(st.sampled_from(["sgd", "adam"]))
    lr = draw(st.floats(1e-3, 0.1) if opt == "sgd" else st.floats(1e-4, 1e-2))
    case = draw(st.sampled_from(["member", "non-member", "near-twin"]))
    n = batch_size * batches
    position = draw(st.integers(0, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))

    rng = np.random.default_rng(seed)
    x_t = rng.uniform(-1, 1, size=input_shape).astype(np.float32)
    y_t = int(rng.integers(1, classes + 1))
    epsilon = 0.05 if case == "near-twin" else 1e-3
    with warnings.catch_warnings():
        # near-zero matched features are fine: the reference runs the same case
        warnings.simplefilter("ignore", UserWarning)
        theta, spec = craft_parameters(net, (x_t, y_t), num_values, epsilon, seed=seed)
    xs = rng.uniform(-1, 1, size=(n, *input_shape)).astype(np.float32)
    ys = rng.integers(1, classes + 1, size=n)
    if case == "member":
        xs[position], ys[position] = x_t, y_t
    elif case == "near-twin":
        xs[position] = x_t + rng.uniform(-1e-4, 1e-4, size=input_shape).astype(np.float32)
        features = net.with_params(theta).forward_features(xs[position:position + 1])
        deviation = np.abs(features[0, list(spec.component_indices)] - spec.etas).sum()
        assume(deviation < spec.epsilon)
    cfg = ClientConfig(batch_size, batches, draw(st.integers(1, 3)), optimizer=opt, lr=lr,
                       shuffle_seed=seed)
    return net, theta, xs, ys, cfg


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=random_trap_cases())
def test_random_architectures_train_bit_identical_to_reference(case):
    """Every fast path of client_train (the zero-cotangent stop, the suffix
    steps, the dead screen, the per-shape gather probe) on drawn
    architectures, batch counts, optimizers and trap placements."""
    net, theta, xs, ys, cfg = case
    assert_bit_identical(net, theta, xs, ys, cfg)


def test_negative_zero_gradient_below_the_written_suffix_is_stepped(monkeypatch):
    """A -0.0 gradient is written: SGD turns the -0.0 parameter under it into +0.0.

    From the second on, every gradient the client takes, from `backward` or
    from the screen's dead step, gets -0.0 at a conv weight, far below the final
    layer where the trap's gradients end. The target sits in the second
    batch, so that gradient comes from `backward`. A step that skips entries
    whose gradient compares equal to zero leaves that parameter -0.0.
    """
    net = small_conv_net()
    cfg = ClientConfig(8, 4, 2, optimizer="sgd", lr=LR["sgd"], shuffle_seed=6)
    second_batch = np.random.default_rng(cfg.shuffle_seed).permutation(32)[8]
    theta, xs, ys = trap_case(net, 32, member=True, seed=6, negative_zeros=True,
                              position=second_batch)
    index = net.layout.index_of(3, "weight", 0, 0, 0, 0)
    theta[index] = -0.0

    def negative_zero_after_first(grad, calls, name):
        calls.append(name)
        if len(calls) > 1:
            assert grad[index] == 0
            grad[index] = -0.0
        return grad

    def gradient(fn, calls):
        return lambda *args: negative_zero_after_first(fn(*args), calls, "backward")

    def step(*args):
        dead = screen_step(*args)
        if dead is not None:
            negative_zero_after_first(dead[0], client_calls, "dead")
        return dead

    client_calls, reference_calls, screen_step = [], [], screen_module.Screen.step
    monkeypatch.setattr(Network, "backward", gradient(Network.backward, client_calls))
    monkeypatch.setattr(screen_module.Screen, "step", step)
    monkeypatch.setattr(sys.modules[__name__], "reference_gradient",
                        gradient(reference_gradient, reference_calls))
    phi = client_train(net, theta, xs, ys, cfg)
    assert phi.tobytes() == reference_client_train(net, theta, xs, ys, cfg).tobytes()
    assert phi[index] == 0 and not np.signbit(phi[index])
    assert client_calls[:2] == ["dead", "backward"] and len(client_calls) == 8


def sliding_window_forward(self, x, weight, bias):
    """Conv2D.forward as it was before the index-table gather: the gather the
    probe picks, its window-major side over numpy's sliding-window view, and
    the bias broadcast over the GEMM output."""
    n = x.shape[0]
    oc, oh, ow = self.out_shape(x.shape[1:])
    if layers._packed_gather_matches(x.shape, x.dtype, weight.shape, weight.dtype):
        cols = layers._packed_windows(x, self.kernel_size)
    else:
        cols = cols_by_windows(x, self.kernel_size)
    out = cols @ weight.reshape(oc, -1).T + bias
    return out.transpose(0, 2, 1).reshape(n, oc, oh, ow), x


PAPER_SHAPES = {"mnist": ((1, 28, 28), 10), "cifar100": ((3, 32, 32), 100)}


@pytest.mark.parametrize("dataset,case", [("mnist", "member"), ("mnist", "non-member"),
                                          ("mnist", "live"), ("cifar100", "member"),
                                          ("cifar100", "non-member")])
def test_client_training_matches_the_sliding_window_conv_forward(monkeypatch, dataset, case):
    """J=16, E=2, Adam at both paper shapes: phi keeps its bytes when every
    Conv2D forward gathers through sliding windows and broadcasts its bias.

    The live case, a random theta that trains the extractor in every batch,
    runs at the MNIST shape only: at the CIFAR-100 shape it alone takes
    about 2 s, and the trap cases already run both CIFAR-100 convs.
    """
    shape, classes = PAPER_SHAPES[dataset]
    net = conv_net(shape, classes)
    if case == "live":
        net.init_random(16)
        theta = net.params
        rng = np.random.default_rng(16)
        xs = rng.uniform(-1, 1, size=(32 * 16, *shape)).astype(np.float32)
        ys = rng.integers(1, classes + 1, size=32 * 16)
    else:
        theta, xs, ys = trap_case(net, 32 * 16, case == "member", seed=16,
                                  negative_zeros=False)
    cfg = ClientConfig(32, 16, 2, optimizer="adam", shuffle_seed=16)
    phi = client_train(net, theta, xs, ys, cfg)
    monkeypatch.setattr(Conv2D, "forward", sliding_window_forward)
    assert phi.tobytes() == client_train(net, theta, xs, ys, cfg).tobytes()


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
                monkeypatch.setattr(layers, "_packed_gather_matches", lambda *key: False)
            runs = [execute_run(net, source, cfg, run_id) for run_id in (0, 1)]
            outcomes[gather] = [(repr(r.delta), r.decision) for r in runs]
            assert [r.decision for r in runs] == [r.member_flag for r in runs] == [1, 0]
        monkeypatch.undo()
        assert outcomes["probed"] == outcomes["window"], dataset


KERNEL_PROBE = textwrap.dedent("""
    import ctypes, json
    import numpy as np
    from fedtrap.attack import run_attack
    from fedtrap.datasets import sample_run, synth_dataset
    from fedtrap.fedsim import ClientConfig, client_train
    from fedtrap.network import conv_net
    from fedtrap.trap import craft_parameters

    corename = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    net = conv_net((1, 28, 28), 10)
    final_bias = net.layout.slice_of(net.head_linear_indices()[2], "bias")
    pool = synth_dataset(96, 10, (1, 28, 28), seed=21)
    cfg = ClientConfig(8, 4, 2, optimizer="adam", shuffle_seed=21)
    runs = []
    for member in (1, 0):
        draw = sample_run(pool, cfg.num_samples, member, seed=21)
        xs, ys = pool.stacked(draw.rows)
        x_t, y_t = pool.stacked([draw.target_id])
        sample = (x_t[0], int(y_t[0]))
        theta, _ = craft_parameters(net, sample, 4, 1e-3, seed=21)
        phi = client_train(net, theta, xs, ys, cfg)
        outcome, _ = run_attack(net, xs, ys, sample, 4, 1e-3, cfg, 0.1, seed=21)
        untouched = np.delete(phi, final_bias).tobytes() == np.delete(theta, final_bias).tobytes()
        runs.append({"decision": outcome.decision, "delta": outcome.delta.hex(),
                     "untouched": untouched})
    print(json.dumps({"core": corename().decode(), "member": runs[0], "non_member": runs[1]}))
""")


def test_exact_zero_and_decisions_hold_on_another_openblas_kernel():
    """A J=4, E=2 Adam member and non-member run at the MNIST shape, once under
    the host's default OpenBLAS kernel and once under Haswell's, each in its
    own process: OPENBLAS_CORETYPE is read when the library loads.

    The kernels may round the features, and so a member's Delta,
    differently; the non-member's exact zero and both decisions must not
    depend on it.
    """
    if not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                   "scipy_openblas_get_corename64_"):
        pytest.skip("numpy's BLAS is not scipy-openblas")
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    children = {kernel: subprocess.Popen(
        [sys.executable, "-c", KERNEL_PROBE], stdout=subprocess.PIPE, text=True,
        env={**env, "OPENBLAS_CORETYPE": kernel} if kernel else env)
        for kernel in ("", "Haswell")}
    results = {}
    for kernel, child in children.items():
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0, kernel
        results[kernel] = json.loads(out)
    if results["Haswell"]["core"] != "Haswell":
        pytest.skip(f"OpenBLAS runs {results['Haswell']['core']} when asked for Haswell")
    for result in results.values():
        assert result["non_member"]["untouched"], result["core"]
        assert result["non_member"]["delta"] == (0.0).hex(), result["core"]
    default, haswell = results[""], results["Haswell"]
    assert [(r["member"]["decision"], r["non_member"]["decision"])
            for r in (default, haswell)] == [(1, 0), (1, 0)]
    same = default["member"]["delta"] == haswell["member"]["delta"]
    print(f"member Delta under {default['core']} {default['member']['delta']}, under "
          f"Haswell {haswell['member']['delta']}: {'same' if same else 'different'} bytes")
