import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedtrap.layers import Flatten, Linear, ReLU, ShapeError
from fedtrap.network import Network, conv_net, dense_net, small_conv_net
from fedtrap.verify import (central_difference_gradient, relu_preactivations,
                            sample_checkable_case)


def small_dense(dtype=np.float64, in_dim=4, h1=4, h2=3, classes=3):
    return dense_net(in_dim, (h1, h2), classes, dtype=dtype)


# -- forward ---------------------------------------------------------------


def test_dead_network_hidden_activations_all_minus_one():
    net = small_conv_net(dtype=np.float64)
    net.init_dead()
    x = np.random.default_rng(0).uniform(-1, 1, size=(2, 1, 14, 14))
    for pre in relu_preactivations(net, x):
        np.testing.assert_array_equal(pre, np.full_like(pre, -1.0))
    logits = net.forward(x)
    np.testing.assert_array_equal(logits, np.full_like(logits, -1.0))


def test_forward_positive_input_passes_through_identity_head():
    net = small_dense(in_dim=3, h1=3, h2=3, classes=3)
    for i in (1, 3, 5):
        net.layers[i].weight[...] = np.eye(3)
    x = np.array([0.25, 1.5, 3.0])
    np.testing.assert_array_equal(net.forward(x), x)


def test_forward_matches_straight_line_matrix_arithmetic():
    rng = np.random.default_rng(42)
    net = small_dense()
    net.init_random(7)
    x = rng.normal(size=4)
    w1, b1 = net.layers[1].weight, net.layers[1].bias
    w2, b2 = net.layers[3].weight, net.layers[3].bias
    w3, b3 = net.layers[5].weight, net.layers[5].bias
    h1 = np.maximum(w1 @ x + b1, 0)
    h2 = np.maximum(w2 @ h1 + b2, 0)
    expected = w3 @ h2 + b3
    np.testing.assert_allclose(net.forward(x), expected, rtol=1e-12)


def test_forward_features_split_zero_returns_flattened_input():
    layers = [Linear(4, 4, dtype=np.float64), ReLU(),
              Linear(4, 3, dtype=np.float64), ReLU(),
              Linear(3, 2, dtype=np.float64)]
    net = Network(layers, split_index=0, num_classes=2, input_shape=(4,),
                  dtype=np.float64)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(net.forward_features(x), x)


def test_forward_features_dead_conv_stage_is_zero():
    net = small_conv_net(dtype=np.float64)
    net.init_dead()
    x = np.random.default_rng(1).uniform(-1, 1, size=(1, 14, 14))
    np.testing.assert_array_equal(net.forward_features(x), np.zeros(32))


def test_forward_features_matches_instrumented_forward_prefix():
    net = small_conv_net(dtype=np.float64)
    net.init_random(3)
    x = np.random.default_rng(2).uniform(-1, 1, size=(1, 14, 14))
    h = x[None]
    for layer in net.layers[:net.split_index]:
        h, _ = layer.forward(h)
    np.testing.assert_array_equal(net.forward_features(x), h.reshape(-1))


def test_forward_shape_error_names_layer():
    net = small_conv_net()
    with pytest.raises(ShapeError, match=r"input shape"):
        net.forward(np.zeros((2, 9, 9), dtype=np.float32))


def test_network_rejects_mismatched_chain():
    layers = [Flatten(), Linear(10, 8), ReLU(), Linear(9, 4), ReLU(), Linear(4, 2)]
    with pytest.raises(ShapeError, match=r"layer 3 \(linear\)"):
        Network(layers, 1, 2, (10,))


# -- loss ------------------------------------------------------------------


def test_loss_uniform_logits_is_log_num_classes():
    net = dense_net(4, (4, 3), 10, dtype=np.float64)
    net.init_dead()  # all logits -1
    x = np.random.default_rng(0).normal(size=4)
    assert net.loss(x, 7) == pytest.approx(math.log(10), abs=1e-12)


def test_loss_single_lifted_logit_closed_form():
    # logits: b at the target, 0 elsewhere -> loss = -b + log(L-1+e^b)
    b, classes = 0.7, 10
    net = dense_net(3, (3, 3), classes, dtype=np.float64)
    net.init_dead()
    for layer in (net.layers[1], net.layers[3], net.layers[5]):
        layer.bias[...] = 0.0
    net.layers[5].bias[4] = b
    x = np.zeros(3)
    expected = -b + math.log(classes - 1 + math.exp(b))
    assert net.loss(x, 5) == pytest.approx(expected, abs=1e-12)
    assert net.loss(x, 2) == pytest.approx(math.log(classes - 1 + math.exp(b)) - 0.0,
                                           abs=1e-12)


def test_loss_shift_invariance():
    net = small_dense()
    net.init_random(5)
    rng = np.random.default_rng(8)
    x = rng.normal(size=4)
    base = net.loss(x, 2)
    for c in (0.5, -3.0, 100.0):
        shifted = net.with_params(net.params)
        shifted.layers[5].bias[...] = net.layers[5].bias + c
        assert abs(shifted.loss(x, 2) - base) < 1e-12


def test_loss_rejects_label_out_of_range():
    net = small_dense()
    net.init_random(0)
    with pytest.raises(ValueError, match="labels"):
        net.loss(np.zeros(4), 4)
    with pytest.raises(ValueError, match="labels"):
        net.loss(np.zeros(4), 0)


# -- backward ----------------------------------------------------------------


def test_backward_dead_network_zero_except_final_biases():
    net = small_conv_net(dtype=np.float64)
    net.init_dead()
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


@pytest.mark.parametrize("case_seed", range(5))
def test_backward_matches_central_differences(case_seed):
    net, xs, ys = sample_checkable_case(case_seed)
    analytic = net.backward(xs, ys)
    numeric = central_difference_gradient(net, xs, ys, step=1e-5)
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
    assert net.layers[h2].bias[0] == 2.5
    assert net.layers[0].weight[1, 0, 2, 2] == -3.0
    net.init_random(13)
    for e in net.layout.entries:
        layer_array = net.layers[e.layer_index].params()[e.name]
        assert np.shares_memory(layer_array, net.params)
        assert np.array_equal(net.params[net.layout.slice_of(e.layer_index, e.name)],
                              layer_array.ravel())


def test_with_params_owns_a_copy_in_the_vectors_dtype():
    net = small_conv_net()
    net.init_random(14)
    source = net.params.copy()
    v = np.arange(net.num_params(), dtype=np.float64)
    work = net.with_params(v)
    assert work.dtype == np.float64 and work.params.dtype == np.float64
    assert work.params.tobytes() == v.tobytes()
    assert work.layers[0].weight.dtype == np.float64
    work.params[:] = -1.0
    work.init_random(15)
    work.layers[-1].bias[0] = 7.0
    assert np.array_equal(v, np.arange(net.num_params(), dtype=np.float64))
    assert net.params.tobytes() == source.tobytes()
    assert net.dtype == np.float32
    assert not np.shares_memory(work.params, v)
    assert not np.shares_memory(work.params, net.params)


def test_with_params_rejects_wrong_length():
    net = small_conv_net()
    with pytest.raises(ValueError, match="length"):
        net.with_params(np.zeros(3, dtype=np.float32))
    with pytest.raises(ValueError, match="length"):
        net.with_params(np.zeros((1, net.num_params()), dtype=np.float32))


def test_layout_index_round_trips_through_flat_vector():
    net = small_conv_net()
    net.init_random(21)
    vec = net.params
    h2 = net.head_linear_indices()[1]
    idx = net.layout.index_of(h2, "bias", 0)
    assert vec[idx] == net.layers[h2].bias[0]
    cidx = net.layout.index_of(0, "weight", 1, 0, 2, 2)
    assert vec[cidx] == net.layers[0].weight[1, 0, 2, 2]


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


def test_conv_net_feature_widths_match_contract():
    assert conv_net((1, 28, 28), 10).feature_width == 256
    assert conv_net((3, 32, 32), 100).feature_width == 400
    assert small_conv_net().feature_width == 32


def test_finite_outputs_on_finite_inputs():
    net = conv_net((1, 28, 28), 10)
    net.init_random(2)
    xs = np.random.default_rng(3).uniform(-1, 1, size=(4, 1, 28, 28)).astype(np.float32)
    logits = net.forward(xs)
    assert np.isfinite(logits).all()
    grad = net.backward(xs, np.array([1, 2, 3, 4]))
    assert np.isfinite(grad).all()
