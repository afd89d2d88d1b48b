import ctypes
import itertools

import numpy as np
import pytest

from fedtrap import layers
from fedtrap.layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU, ShapeError
from fedtrap.network import conv_net, small_conv_net
from oracles import cols_by_windows, conv_by_windows


def conv_by_loops(x, weight, bias):
    """Direct triple-loop valid convolution, written independently of the layer."""
    n, c, h, w = x.shape
    oc, _, k, _ = weight.shape
    out = np.zeros((n, oc, h - k + 1, w - k + 1), dtype=np.float64)
    for ni in range(n):
        for f in range(oc):
            for i in range(h - k + 1):
                for j in range(w - k + 1):
                    out[ni, f, i, j] = np.sum(
                        x[ni, :, i:i + k, j:j + k] * weight[f]) + bias[f]
    return out


def test_conv2d_matches_direct_loops():
    rng = np.random.default_rng(3)
    layer = Conv2D(2, 3, 3)
    layer.weight, layer.bias = (rng.uniform(-1, 1, shape)
                                for shape in layer.param_shapes.values())
    x = rng.normal(size=(4, 2, 6, 5))
    out, _ = layer.forward(x)
    expected = conv_by_loops(x, layer.weight, layer.bias)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def stock_convs(dtype):
    """(name, layer, input shape) for both convs of every stock conv network."""
    nets = {"mnist": conv_net((1, 28, 28), 10, dtype=dtype),
            "cifar100": conv_net((3, 32, 32), 100, dtype=dtype),
            "small": small_conv_net(dtype=dtype)}
    for name, net in nets.items():
        net.init_random(len(name))
        shape = net.input_shape
        for i, layer in enumerate(net.layers[:net.split_index]):
            if isinstance(layer, Conv2D):
                yield f"{name}.{i}", layer, shape
            shape = layer.out_shape(shape)


def assert_conv_matches_window_reference(layer, x, seed):
    out, cache = layer.forward(x)
    expected, ref_cols = conv_by_windows(layer, x)
    assert out.dtype == x.dtype and out.tobytes() == expected.tobytes()
    assert cache[1].shape == ref_cols.shape
    assert np.ascontiguousarray(cache[1]).tobytes() == ref_cols.tobytes()
    dout = np.random.default_rng(seed).normal(size=out.shape).astype(x.dtype)
    dx, grads = layer.backward(dout, cache)
    ref_dx, ref_grads = layer.backward(dout, (x.shape, ref_cols))
    assert dx.tobytes() == ref_dx.tobytes()
    for name in ("weight", "bias"):
        assert grads[name].tobytes() == ref_grads[name].tobytes()


@pytest.mark.parametrize("batch", [1, 2, 32])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stock_convs_match_the_window_gather_byte_for_byte(dtype, batch):
    """Whichever gather each shape takes, the forward, its cached cols and
    the backward's dx, dw and db keep the bytes of the window-major gather."""
    for seed, (name, layer, shape) in enumerate(stock_convs(dtype)):
        x = np.random.default_rng(seed).uniform(-1, 1, (batch, *shape)).astype(dtype)
        assert_conv_matches_window_reference(layer, x, seed)


def count_probes(monkeypatch, matches=None):
    """Empty the gather cache and count the probes; `matches` overrides their answer."""
    probe = layers._packed_gather_matches
    keys = []

    def counting(*key):
        keys.append(key)
        return probe(*key) if matches is None else matches

    monkeypatch.setattr(layers, "_PACKED_GATHER", {})
    monkeypatch.setattr(layers, "_packed_gather_matches", counting)
    return keys


def test_a_probe_mismatch_falls_back_to_the_window_gather(monkeypatch):
    keys = count_probes(monkeypatch, matches=False)
    for seed, (name, layer, shape) in enumerate(stock_convs(np.float32)):
        x = np.random.default_rng(seed).uniform(-1, 1, (4, *shape)).astype(np.float32)
        assert_conv_matches_window_reference(layer, x, seed)
        assert layer.forward(x)[1][1].flags.c_contiguous, name
    assert len(keys) == 6


def test_the_probe_runs_once_per_shape(monkeypatch):
    keys = count_probes(monkeypatch)
    layer = next(stock_convs(np.float32))[1]
    rng = np.random.default_rng(0)
    for batch in [8, 8, 3, 8, 3]:
        layer.forward(rng.uniform(-1, 1, (batch, 1, 28, 28)).astype(np.float32))
    layer.forward(rng.uniform(-1, 1, (8, 1, 28, 28)))  # float64 input, float32 weight
    assert [k[0][0] for k in keys] == [8, 3, 8]
    assert keys[0][1:] == (np.float32, (6, 1, 5, 5), np.float32)
    assert keys[2][1] == np.float64


def test_conv_net_first_convs_take_the_packed_gather_on_scipy_openblas(monkeypatch):
    """On this BLAS the probe accepts the packed gather at every stock first
    conv. A probe that stops reproducing the forward's operand layouts
    loses that, and the speed-up with it, without changing a byte."""
    if not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                   "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's BLAS is not scipy-openblas")
    count_probes(monkeypatch)
    for shape, classes in [((1, 28, 28), 10), ((3, 32, 32), 100)]:
        net = conv_net(shape, classes)
        net.init_random(0)
        x = np.random.default_rng(0).uniform(-1, 1, (32, *shape)).astype(np.float32)
        _, (_, cols) = net.layers[0].forward(x)
        assert not cols.flags.c_contiguous, shape


def input_layouts(x):
    """x C-ordered, in the transposed memory order of a Conv2D output (which
    the ReLU after it keeps), and as a strided slice of a bigger array."""
    n, c, h, w = x.shape
    yield "c-order", np.ascontiguousarray(x)
    by_position = np.ascontiguousarray(x.reshape(n, c, h * w).transpose(0, 2, 1))
    yield "conv-output", by_position.transpose(0, 2, 1).reshape(n, c, h, w)
    big = np.zeros((2 * n, c, 2 * h, w + 3), dtype=x.dtype)
    big[::2, :, ::2, 3:] = x
    yield "strided", big[::2, :, ::2, 3:]


@pytest.mark.parametrize("dtype,weight_dtype", [(np.float32, np.float32),
                                                (np.float64, np.float64),
                                                (np.float64, np.float32)])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("c,h,w,k", [(2, 6, 6, 1), (2, 5, 5, 5), (3, 7, 9, 3), (2, 4, 9, 4)],
                         ids=["k=1", "k=h=w", "h<w", "k=h<w"])
def test_window_gather_matches_sliding_windows_on_any_memory_layout(c, h, w, k, batch,
                                                                    dtype, weight_dtype):
    rng = np.random.default_rng(c * h * w * k + batch)
    x = rng.uniform(-1, 1, (batch, c, h, w)).astype(dtype)
    layer = Conv2D(c, 4, k)
    layer.weight, layer.bias = (rng.uniform(-1, 1, shape).astype(weight_dtype)
                                for shape in layer.param_shapes.values())
    for seed, (name, view) in enumerate(input_layouts(x)):
        assert view.tobytes() == x.tobytes()
        assert view.flags.c_contiguous == (name == "c-order")
        cols = layers._windows(view, k)
        assert cols.flags.c_contiguous, name
        assert cols.tobytes() == cols_by_windows(view, k).tobytes(), name
        assert_conv_matches_window_reference(layer, view, seed)


def count_window_tables(monkeypatch):
    """Empty the window-index cache and count the tables built."""
    build = layers._window_index
    keys = []

    def counting(*key):
        keys.append(key)
        return build(*key)

    monkeypatch.setattr(layers, "_WINDOW_INDEX", {})
    monkeypatch.setattr(layers, "_window_index", counting)
    return keys


def test_the_window_table_is_built_once_per_input_geometry(monkeypatch):
    """Across batch sizes and input dtypes, and whether the probe or the
    forward gathers first."""
    count_probes(monkeypatch, matches=False)
    keys = count_window_tables(monkeypatch)
    mnist = list(stock_convs(np.float32))[:2]
    rng = np.random.default_rng(0)
    for batch, dtype in [(8, np.float32), (3, np.float32), (8, np.float64), (1, np.float32)]:
        for _, layer, shape in mnist:
            layer.forward(rng.uniform(-1, 1, (batch, *shape)).astype(dtype))
    assert keys == [(1, 28, 28, 5), (6, 12, 12, 5)]
    count_probes(monkeypatch)
    mnist[1][1].forward(rng.uniform(-1, 1, (5, 6, 12, 12)).astype(np.float32))
    assert len(keys) == 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_signed_zero_and_infinite_biases_keep_the_broadcast_add_bytes(dtype):
    """Biases of +0.0, -0.0, +inf and -inf, added to the exact zeros of
    all-zero weight rows and to generic GEMM outputs."""
    rng = np.random.default_rng(5)
    layer = Conv2D(2, 8, 3)
    layer.weight = rng.uniform(-1, 1, layer.param_shapes["weight"]).astype(dtype)
    layer.weight[:4] = 0.0
    layer.bias = np.array([0.0, -0.0, np.inf, -np.inf] * 2, dtype=dtype)
    x = rng.uniform(-1, 1, (3, 2, 7, 6)).astype(dtype)
    out, _ = layer.forward(x)
    expected, _ = conv_by_windows(layer, x)
    assert out.tobytes() == expected.tobytes()
    assert out.strides == expected.strides
    assert (out[:, [0, 1]] == 0).all()
    assert np.isposinf(out[:, [2, 6]]).all() and np.isneginf(out[:, [3, 7]]).all()


def test_conv2d_rejects_wrong_channels():
    layer = Conv2D(2, 3, 3)
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((1, 5, 6, 6), dtype=np.float32))


def test_maxpool_values_and_gradient_routing():
    x = np.array([[[[1.0, 2.0, 5.0, 3.0],
                    [4.0, 0.0, 1.0, 2.0],
                    [9.0, 8.0, 7.0, 6.0],
                    [0.0, 1.0, 2.0, 3.0]]]])
    layer = MaxPool2D(2)
    out, cache = layer.forward(x)
    np.testing.assert_array_equal(out[0, 0], [[4.0, 5.0], [9.0, 7.0]])
    dout = np.array([[[[1.0, 10.0], [100.0, 1000.0]]]])
    dx, _ = layer.backward(dout, cache)
    expected = np.zeros_like(x)
    expected[0, 0, 1, 0] = 1.0      # 4 sits at (1,0)
    expected[0, 0, 0, 2] = 10.0     # 5 sits at (0,2)
    expected[0, 0, 2, 0] = 100.0    # 9 sits at (2,0)
    expected[0, 0, 2, 2] = 1000.0   # 7 sits at (2,2)
    np.testing.assert_array_equal(dx, expected)


def test_maxpool_tie_routes_to_first_position():
    x = np.full((1, 1, 2, 2), 3.0)
    layer = MaxPool2D(2)
    out, cache = layer.forward(x)
    assert out[0, 0, 0, 0] == 3.0
    dx, _ = layer.backward(np.ones((1, 1, 1, 1)), cache)
    np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def pool_by_argmax(x, k):
    """Window reshape, first-index argmax and gather: an independent reference pool.

    Returns the pooled values and the routing index, one per window.
    """
    n, c, h, w = x.shape
    win = (x.reshape(n, c, h // k, k, w // k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h // k, w // k, k * k))
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def route_by_index(dout, idx, k):
    """Gradient that puts each dout entry at its window's reference position."""
    n, c, oh, ow = dout.shape
    dx = np.zeros((n, c, oh, k, ow, k), dtype=dout.dtype)
    a, b = np.divmod(idx, k)
    nn, cc, ii, jj = np.indices(dout.shape)
    dx[nn, cc, ii, a, jj, b] = dout
    return dx.reshape(n, c, oh * k, ow * k)


SIGNED_EDGES = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])


def every_2x2_window():
    """One sample per window over SIGNED_EDGES: all 6**4 of them, ties in every order."""
    windows = np.array(list(itertools.product(SIGNED_EDGES, repeat=4)))
    return windows.reshape(-1, 1, 2, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_maxpool_matches_argmax_reference_byte_for_byte(k, dtype):
    rng = np.random.default_rng(k)
    inputs = [rng.choice(SIGNED_EDGES, size=shape)
              for shape in [(1, 1, k, k), (3, 2, 2 * k, 5 * k), (5, 3, 4 * k, 3 * k)]]
    if k == 2:
        inputs.append(every_2x2_window())
    layer = MaxPool2D(k)
    for x in inputs:
        x = x.astype(dtype)
        out, cache = layer.forward(x)
        expected, idx = pool_by_argmax(x, k)
        assert out.dtype == dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        dout = rng.normal(size=out.shape).astype(dtype)
        dx, _ = layer.backward(dout, cache)
        assert dx.tobytes() == route_by_index(dout, idx, k).tobytes()


@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_nan_window_gives_nan_at_the_same_positions(k):
    rng = np.random.default_rng(k)
    x = rng.choice(np.append(SIGNED_EDGES, np.nan), size=(4, 2, 3 * k, 2 * k))
    out, _ = MaxPool2D(k).forward(x)
    expected, _ = pool_by_argmax(x, k)
    nan = np.isnan(expected)
    assert nan.any() and (~nan).any()
    np.testing.assert_array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window", [(-0.0, 0.0, 0.0, 0.0), (0.0, -0.0, -0.0, -0.0)])
def test_maxpool_signed_zero_tie_keeps_and_routes_to_first_position(window, dtype):
    x = np.array(window, dtype=dtype).reshape(1, 1, 2, 2)
    layer = MaxPool2D(2)
    out, cache = layer.forward(x)
    assert out.tobytes() == x[:, :, :1, :1].tobytes()
    dx, _ = layer.backward(np.ones((1, 1, 1, 1), dtype=dtype), cache)
    np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_rejects_indivisible_input():
    with pytest.raises(ShapeError):
        MaxPool2D(2).forward(np.zeros((1, 1, 5, 4)))


def test_relu_derivative_is_zero_at_exactly_zero():
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    out, cache = layer.forward(x)
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
    dx, _ = layer.backward(np.ones_like(x), cache)
    np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])


def test_linear_identity_weight_passes_input_through():
    layer = Linear(3, 3)
    layer.weight, layer.bias = np.eye(3), np.zeros(layer.param_shapes["bias"])
    x = np.array([[0.5, -2.0, 7.0]])
    out, _ = layer.forward(x)
    np.testing.assert_array_equal(out, x)


def test_linear_gradients_hand_case():
    layer = Linear(2, 1)
    layer.weight, layer.bias = np.array([[3.0, -1.0]]), np.zeros(layer.param_shapes["bias"])
    x = np.array([[2.0, 5.0]])
    out, cache = layer.forward(x)
    assert out[0, 0] == 1.0
    dx, grads = layer.backward(np.array([[2.0]]), cache)
    np.testing.assert_array_equal(grads["weight"], [[4.0, 10.0]])
    np.testing.assert_array_equal(grads["bias"], [2.0])
    np.testing.assert_array_equal(dx, [[6.0, -2.0]])


def test_flatten_round_trip():
    x = np.arange(24.0).reshape(1, 2, 3, 4)
    layer = Flatten()
    out, cache = layer.forward(x)
    assert out.shape == (1, 24)
    back, _ = layer.backward(out, cache)
    np.testing.assert_array_equal(back, x)
