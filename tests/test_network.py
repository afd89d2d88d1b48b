import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedtrap import verify
from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.harness import derive_seed
from fedtrap.layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU, ShapeError
from fedtrap.network import Network, conv_net, dense_net, small_conv_net
from fedtrap.verify import central_difference_gradient, sample_checkable_case
from oracles import forward, init_dead


def small_dense(dtype=np.float64, in_dim=4, h1=4, h2=3, classes=3):
    return dense_net(in_dim, (h1, h2), classes, dtype=dtype)


# -- forward ---------------------------------------------------------------


def test_dead_network_hidden_activations_all_minus_one():
    net = small_conv_net(dtype=np.float64)
    init_dead(net)
    x = np.random.default_rng(0).uniform(-1, 1, size=(2, 1, 14, 14))
    _, caches = net._run(x, len(net.layers))
    relu_inputs = [c for layer, c in zip(net.layers, caches) if isinstance(layer, ReLU)]
    assert len(relu_inputs) == 4
    for pre in relu_inputs:
        np.testing.assert_array_equal(pre, np.full_like(pre, -1.0))
    logits = forward(net, x)
    np.testing.assert_array_equal(logits, np.full_like(logits, -1.0))


def test_forward_positive_input_passes_through_identity_head():
    net = small_dense(in_dim=3, h1=3, h2=3, classes=3)
    for i in (1, 3, 5):
        weight, _ = net.views[i]
        weight[...] = np.eye(3)
    x = np.array([0.25, 1.5, 3.0])
    np.testing.assert_array_equal(forward(net, x), x)


def test_forward_matches_straight_line_matrix_arithmetic():
    rng = np.random.default_rng(42)
    net = small_dense()
    net.init_random(7)
    x = rng.normal(size=4)
    (w1, b1), (w2, b2), (w3, b3) = net.views[1], net.views[3], net.views[5]
    h1 = np.maximum(w1 @ x + b1, 0)
    h2 = np.maximum(w2 @ h1 + b2, 0)
    expected = w3 @ h2 + b3
    np.testing.assert_allclose(forward(net, x), expected, rtol=1e-12)


def test_forward_features_split_zero_returns_flattened_input():
    net = Network([], (4,), (4, 3), 2, dtype=np.float64)
    assert (net.split_index, net.feature_width) == (0, 4)
    xs = np.array([[1.0, 2.0, 3.0, 4.0], [-1.0, 0.5, 0.0, 2.0]])
    np.testing.assert_array_equal(net.forward_features(xs), xs)


def test_forward_features_dead_conv_stage_is_zero():
    net = small_conv_net(dtype=np.float64)
    init_dead(net)
    xs = np.random.default_rng(1).uniform(-1, 1, size=(3, 1, 14, 14))
    np.testing.assert_array_equal(net.forward_features(xs), np.zeros((3, 32)))


def test_forward_features_matches_instrumented_forward_prefix():
    net = small_conv_net(dtype=np.float64)
    net.init_random(3)
    xs = np.random.default_rng(2).uniform(-1, 1, size=(2, 1, 14, 14))
    h = xs
    for layer, views in zip(net.layers[:net.split_index], net.views):
        h, _ = layer.forward(h, *views)
    np.testing.assert_array_equal(net.forward_features(xs), h.reshape(2, -1))


def test_forward_shape_error_names_layer():
    net = small_conv_net()
    with pytest.raises(ShapeError, match=r"input shape"):
        net.forward_features(np.zeros((2, 9, 9), dtype=np.float32))


@pytest.mark.parametrize("build, sample_shape", [
    (lambda: small_conv_net(dtype=np.float64), (1, 14, 14)),
    (lambda: dense_net(4, (4, 3), 3, dtype=np.float64), (4,)),
])
def test_single_sample_without_batch_axis_is_rejected(build, sample_shape):
    net = build()
    net.init_random(6)
    x = np.zeros(sample_shape)
    for call in (lambda: net.forward_features(x), lambda: net.loss(x, 1),
                 lambda: net.backward(x, 1)):
        with pytest.raises(ShapeError, match=r"not a batch"):
            call()
    assert net.forward_features(x[None]).shape == (1, net.feature_width)


def test_network_rejects_mismatched_chain():
    extractor = [Conv2D(1, 2, 3), ReLU(), Conv2D(3, 4, 3), Flatten()]
    with pytest.raises(ShapeError, match=r"layer 2 \(conv2d\)"):
        Network(extractor, (1, 8, 8), (4, 3), 2)
    with pytest.raises(ShapeError, match=r"layer 0 \(conv2d\): conv2d kernel 5 larger than "
                                         r"input 4x6"):
        Network([Conv2D(1, 2, 5), Flatten()], (1, 4, 6), (4, 3), 2)
    for first in (Conv2D(1, 2, 3), MaxPool2D(2)):
        with pytest.raises(ShapeError, match=rf"layer 0 \({first.kind}\): {first.kind} "
                                             r"expects \(C,H,W\) input, got \(8,\)"):
            Network([first, Flatten()], (8,), (4, 3), 2)


def test_network_rejects_non_flat_extractor_at_first_head_linear():
    with pytest.raises(ShapeError, match=r"layer 1 \(linear\)"):
        Network([Conv2D(1, 2, 3)], (1, 5, 5), (4, 3), 2)


# -- loss ------------------------------------------------------------------


def test_loss_uniform_logits_is_log_num_classes():
    net = dense_net(4, (4, 3), 10, dtype=np.float64)
    init_dead(net)  # all logits -1
    xs = np.random.default_rng(0).normal(size=(3, 4))
    assert net.loss(xs, [7, 1, 10]) == pytest.approx(math.log(10), abs=1e-12)


def test_loss_single_lifted_logit_closed_form():
    # logits: b at the target, 0 elsewhere -> loss = -b + log(L-1+e^b)
    b, classes = 0.7, 10
    net = dense_net(3, (3, 3), classes, dtype=np.float64)
    init_dead(net)
    for _, bias in (net.views[1], net.views[3], net.views[5]):
        bias[...] = 0.0
    net.views[5][1][4] = b
    x = np.zeros((1, 3))
    expected = -b + math.log(classes - 1 + math.exp(b))
    assert net.loss(x, 5) == pytest.approx(expected, abs=1e-12)
    assert net.loss(x, 2) == pytest.approx(math.log(classes - 1 + math.exp(b)) - 0.0,
                                           abs=1e-12)


def test_loss_shift_invariance():
    net = small_dense()
    net.init_random(5)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4))
    base = net.loss(x, [2, 3])
    for c in (0.5, -3.0, 100.0):
        shifted = net.with_params(net.params)
        shifted.views[5][1][...] = net.views[5][1] + c
        assert abs(shifted.loss(x, [2, 3]) - base) < 1e-12


def test_loss_rejects_label_out_of_range():
    net = small_dense()
    net.init_random(0)
    with pytest.raises(ValueError, match="labels"):
        net.loss(np.zeros((1, 4)), 4)
    with pytest.raises(ValueError, match="labels"):
        net.loss(np.zeros((1, 4)), 0)


def test_loss_and_backward_reject_label_count_mismatch():
    net = small_dense()
    net.init_random(0)
    xs = np.zeros((3, 4))
    for call in (net.loss, net.backward):
        with pytest.raises(ValueError, match="batch and label counts differ"):
            call(xs, [1, 2])
        with pytest.raises(ValueError, match="batch and label counts differ"):
            call(xs[:1], [1, 2])


@pytest.mark.parametrize("ys", [[1.9, 2.5, 3.999, 4.2], [1.0, 2.0, 3.0, 4.0], ["1", "2", "3", "4"],
                                [True, True, True, True], np.array([1, 2, 3, 4], dtype=object)],
                         ids=["fractional", "whole floats", "strings", "booleans", "objects"])
def test_labels_that_are_not_an_integer_array_are_rejected(ys):
    """A float, string, boolean or object label is not cast to a class:
    1.9 would train as class 1. `loss`, `backward` and `client_train` all
    raise before a layer runs."""
    net = small_conv_net()
    net.init_random(3)
    xs = np.random.default_rng(3).uniform(-1, 1, size=(4, *net.input_shape)).astype(np.float32)
    for call in (net.loss, net.backward,
                 lambda xs, ys: client_train(net, net.params, xs, ys, ClientConfig(2, 2, 1))):
        with pytest.raises(ValueError, match="labels must be integers"):
            call(xs, ys)
    for labels in ([1, 2, 3, 4], np.array([1, 2, 3, 4], dtype=np.uint8)):
        assert net.backward(xs, labels).tobytes() == net.backward(xs, np.arange(1, 5)).tobytes()


# -- backward ----------------------------------------------------------------


def test_backward_dead_network_zero_except_final_biases():
    net = small_conv_net(dtype=np.float64)
    init_dead(net)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, size=(5, 1, 14, 14))
    ys = rng.integers(1, 11, size=5)
    grad = net.backward(xs, ys)
    final_bias = net.layout.slice_of(net.head_linear_indices()[2], "bias")
    mask = np.ones_like(grad, dtype=bool)
    mask[final_bias] = False
    np.testing.assert_array_equal(grad[mask], 0.0)
    assert np.any(grad[final_bias] != 0.0)


def test_backward_duplicated_sample_matches_single():
    # BLAS picks shape-dependent accumulation orders, so "identical" here
    # means agreement to the last couple of ulps, not bitwise
    net = small_dense()
    net.init_random(9)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 4))
    y = np.array([2])
    single = net.backward(x, y)
    for k in (2, 3, 4):
        dup = net.backward(np.repeat(x, k, axis=0), np.repeat(y, k))
        np.testing.assert_allclose(dup, single, rtol=1e-13, atol=1e-18)


def test_backward_rejects_empty_batch():
    net = small_dense()
    net.init_random(0)
    with pytest.raises(ValueError, match="empty"):
        net.backward(np.zeros((0, 4)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("call", ["forward_features", "loss", "backward"])
@pytest.mark.parametrize("build, input_shape", [
    (lambda: small_conv_net(dtype=np.float64), (1, 14, 14)),
    (lambda: dense_net(4, (4, 3), 3, dtype=np.float64), (4,)),
])
def test_an_empty_batch_is_rejected_before_any_layer_runs(monkeypatch, build, input_shape,
                                                          call):
    net = build()
    net.init_random(6)

    def no_layer(self, x, *params):
        raise AssertionError(f"{self.kind} ran")
    for cls in (Conv2D, Flatten, Linear, MaxPool2D, ReLU):
        monkeypatch.setattr(cls, "forward", no_layer)
    args = (np.zeros((0, *input_shape)),) + (() if call == "forward_features" else ([],))
    with pytest.raises(ShapeError, match=r"not a batch .* empty"):
        getattr(net, call)(*args)


@pytest.mark.parametrize("case_seed", range(5))
def test_backward_matches_central_differences(case_seed):
    net, xs, ys = sample_checkable_case(case_seed)
    analytic = net.backward(xs, ys)
    numeric = central_difference_gradient(net, xs, ys)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = diff > np.maximum(1e-4 * scale, 1e-8)
    assert not bad.any(), f"max rel err {np.max(diff / np.maximum(scale, 1e-300))}"


# -- parameter vector ---------------------------------------------------------


def test_layers_view_the_flat_parameter_vector():
    net = small_conv_net()
    h2 = net.head_linear_indices()[1]
    net.params[net.layout.index_of(h2, "bias", 0)] = 2.5
    net.params[net.layout.index_of(0, "weight", 1, 0, 2, 2)] = -3.0
    assert net.views[h2][1][0] == 2.5
    assert net.views[0][0][1, 0, 2, 2] == -3.0
    net.init_random(13)
    for i, layer in enumerate(net.layers):
        assert not hasattr(layer, "weight") and not hasattr(layer, "bias")
        for name, view in zip(layer.param_shapes, net.views[i], strict=True):
            assert np.shares_memory(view, net.params)
            assert np.array_equal(net.params[net.layout.slice_of(i, name)], view.ravel())


def test_with_params_owns_a_copy_in_the_vectors_dtype():
    net = small_conv_net()
    net.init_random(14)
    source = net.params.copy()
    v = np.arange(net.layout.total, dtype=np.float64)
    work = net.with_params(v)
    assert work.dtype == np.float64 and work.params.dtype == np.float64
    assert work.params.tobytes() == v.tobytes()
    assert work.views[0][0].dtype == np.float64
    work.params[:] = -1.0
    work.init_random(15)
    work.views[-1][1][0] = 7.0
    assert np.array_equal(v, np.arange(net.layout.total, dtype=np.float64))
    assert net.params.tobytes() == source.tobytes()
    assert net.dtype == np.float32
    assert not np.shares_memory(work.params, v)
    assert not np.shares_memory(work.params, net.params)


def test_a_network_built_from_another_networks_layers_leaves_it_unchanged():
    extractor = [Conv2D(1, 2, 3), ReLU(), MaxPool2D(2), Flatten()]
    a = Network(extractor, (1, 8, 8), (8, 5), 3)
    a.init_random(1)
    x = np.random.default_rng(1).uniform(-1, 1, size=(2, 1, 8, 8)).astype(np.float32)
    features = a.forward_features(x)
    assert features.any()
    Network(extractor, (1, 8, 8), (8, 5), 3)
    assert a.forward_features(x).tobytes() == features.tobytes()


def test_an_unpickled_network_computes_from_its_own_params():
    """A worker started with spawn or forkserver gets its network by pickle;
    a write to the copy's `params` must reach its forward, and only its."""
    net = small_conv_net()
    net.init_random(3)
    x = np.random.default_rng(3).uniform(-1, 1, size=(2, 1, 14, 14)).astype(np.float32)
    features = net.forward_features(x)
    copy = pickle.loads(pickle.dumps(net))
    assert copy.forward_features(x).tobytes() == features.tobytes()
    copy.params[:] = 0.0
    assert not copy.forward_features(x).any()
    assert net.forward_features(x).tobytes() == features.tobytes()
    assert all(np.shares_memory(view, copy.params) for views in copy.views for view in views)


def test_repr_names_the_layers_input_shape_dtype_and_parameter_count():
    assert repr(small_conv_net()) == (
        "Network(layers=[conv2d, relu, maxpool2d, conv2d, relu, maxpool2d, flatten, "
        "linear, relu, linear, relu, linear], input_shape=(1, 14, 14), dtype=float32, "
        "params=1698)")
    assert repr(dense_net(4, (4, 3), 3, dtype=np.float64)) == (
        "Network(layers=[flatten, linear, relu, linear, relu, linear], input_shape=(4,), "
        "dtype=float64, params=47)")


def test_with_params_rejects_wrong_length():
    net = small_conv_net()
    with pytest.raises(ValueError, match="length"):
        net.with_params(np.zeros(3, dtype=np.float32))
    with pytest.raises(ValueError, match="length"):
        net.with_params(np.zeros((1, net.layout.total), dtype=np.float32))


def test_layout_index_round_trips_through_flat_vector():
    net = small_conv_net()
    net.init_random(21)
    vec = net.params
    h2 = net.head_linear_indices()[1]
    idx = net.layout.index_of(h2, "bias", 0)
    assert vec[idx] == net.views[h2][1][0]
    cidx = net.layout.index_of(0, "weight", 1, 0, 2, 2)
    assert vec[cidx] == net.views[0][0][1, 0, 2, 2]
    for coords in [(), (0, 0), (1, 0, 2)]:  # not one coordinate per axis
        with pytest.raises(ValueError, match="multi_index"):
            net.layout.index_of(0, "weight" if coords else "bias", *coords)
    with pytest.raises(KeyError, match="layer 1 has no parameter 'weight'"):
        net.layout.entry(1, "weight")  # a ReLU


LAYOUT_PROBE = """
import json
from fedtrap.network import small_conv_net
net = small_conv_net()
entries = [(e.layer_index, e.name, list(e.shape), e.offset) for e in net.layout.entries]
print(json.dumps(entries))
"""


def test_layout_is_stable_across_processes():
    net = small_conv_net()
    here = [(e.layer_index, e.name, list(e.shape), e.offset) for e in net.layout.entries]
    # the child imports fedtrap from this checkout even when it is not installed
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", LAYOUT_PROBE],
                         capture_output=True, text=True, check=True, env=env)
    import json
    assert json.loads(out.stdout) == [list(e) for e in map(list, here)]


# -- stock architectures -------------------------------------------------------


def test_gradient_check_suite_architectures_are_pinned():
    # the suite's cases, without the central differences that check them
    cases = [sample_checkable_case(derive_seed(0, i)) for i in range(20)]
    assert [net.layout.total for net, _, _ in cases] == [
        91, 92, 64, 693, 377, 528, 686, 697, 86, 83,
        89, 490, 111, 704, 352, 161, 377, 740, 521, 82]


def test_checkable_cases_clear_the_kink_and_tie_margins(monkeypatch):
    """With margins wide enough that most draws are resampled, every returned
    case clears them, by a forward pass and pool windows of the test's own."""
    monkeypatch.setattr(verify, "KINK_MARGIN", 1e-2)
    monkeypatch.setattr(verify, "POOL_MARGIN", 1e-2)
    for seed in range(12):
        net, h, _ = sample_checkable_case(seed)
        for layer, views in zip(net.layers, net.views):
            if isinstance(layer, ReLU):
                assert np.abs(h).min() >= 1e-2
            if isinstance(layer, MaxPool2D):
                k = layer.window
                windows = np.stack([h[:, :, i::k, j::k] for i in range(k) for j in range(k)])
                top2 = np.sort(windows, axis=0)[-2:]
                assert (top2[1] - top2[0]).min() >= 1e-2
            h, _ = layer.forward(h, *views)


def test_conv_net_feature_widths_match_contract():
    assert conv_net((1, 28, 28), 10).feature_width == 256
    assert conv_net((3, 32, 32), 100).feature_width == 400
    assert small_conv_net().feature_width == 32


TWO_BLOCK_KINDS = ["conv2d", "relu", "maxpool2d", "conv2d", "relu", "maxpool2d", "flatten",
                   "linear", "relu", "linear", "relu", "linear"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build, total, extractor_stop", [
    (lambda dtype: conv_net((1, 28, 28), 10, dtype=dtype), 44426, 2572),
    (lambda dtype: conv_net((3, 32, 32), 100, dtype=dtype), 69656, 2872),
    (lambda dtype: small_conv_net(dtype=dtype), 1698, 336),
])
def test_stock_architectures_are_pinned(build, total, extractor_stop, dtype):
    net = build(dtype)
    assert [layer.kind for layer in net.layers] == TWO_BLOCK_KINDS
    assert (net.layout.total, net.extractor_params.stop) == (total, extractor_stop)
    # a fresh network's parameters are +0.0 in its own dtype
    assert net.dtype == net.params.dtype == dtype
    assert net.params.tobytes() == bytes(net.params.nbytes)


def test_finite_outputs_on_finite_inputs():
    net = conv_net((1, 28, 28), 10)
    net.init_random(2)
    xs = np.random.default_rng(3).uniform(-1, 1, size=(4, 1, 28, 28)).astype(np.float32)
    logits = forward(net, xs)
    assert np.isfinite(logits).all()
    grad = net.backward(xs, np.array([1, 2, 3, 4]))
    assert np.isfinite(grad).all()
