import ctypes
import itertools

import numpy as np
import pytest

from fedtrap import layers
from fedtrap.layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU, ShapeError
from fedtrap.network import Network, conv_net, small_conv_net
from oracles import cols_by_windows, conv_backward_by_windows, conv_by_windows


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
    weight, bias = (rng.uniform(-1, 1, shape) for shape in layer.param_shapes.values())
    x = rng.normal(size=(4, 2, 6, 5))
    out, _ = layer.forward(x, weight, bias)
    expected = conv_by_loops(x, weight, bias)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def stock_convs(dtype):
    """(name, layer, its parameter views, input shape) for both convs of every
    stock conv network."""
    nets = {"mnist": conv_net((1, 28, 28), 10, dtype=dtype),
            "cifar100": conv_net((3, 32, 32), 100, dtype=dtype),
            "small": small_conv_net(dtype=dtype)}
    for name, net in nets.items():
        net.init_random(len(name))
        shape = net.input_shape
        for i, layer in enumerate(net.layers[:net.split_index]):
            if isinstance(layer, Conv2D):
                yield f"{name}.{i}", layer, net.views[i], shape
            shape = layer.out_shape(shape)


def record_gathers(monkeypatch):
    """Wrap both gathers; the list gets the name of each one called on an
    array, paired with that array, so the probe's own calls can be told apart."""
    calls = []
    for name in ("_windows", "_packed_windows"):
        gather = getattr(layers, name)
        monkeypatch.setattr(layers, name, lambda x, k, name=name, gather=gather:
                            calls.append((name, x)) or gather(x, k))
    return calls


def gathers_on(calls, x):
    return [name for name, arg in calls if arg is x]


def assert_conv_matches_window_reference(layer, params, x, seed):
    out, cache = layer.forward(x, *params)
    expected, ref_cols = conv_by_windows(layer, x, *params)
    assert out.dtype == x.dtype and out.tobytes() == expected.tobytes()
    assert cache is x
    dout = np.random.default_rng(seed).normal(size=out.shape).astype(x.dtype)
    dx, grads = layer.backward(dout, cache, *params)
    ref_dx, ref_grads = conv_backward_by_windows(layer, dout, x, ref_cols, params[0])
    assert dx.tobytes() == ref_dx.tobytes()
    for name in ("weight", "bias"):
        assert grads[name].tobytes() == ref_grads[name].tobytes()


@pytest.mark.parametrize("batch", [1, 2, 32])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stock_convs_match_the_window_gather_byte_for_byte(dtype, batch):
    """Whichever gather each shape takes, the forward and the backward's dx,
    dw and db keep the bytes of the window-major gather."""
    for seed, (name, layer, params, shape) in enumerate(stock_convs(dtype)):
        x = np.random.default_rng(seed).uniform(-1, 1, (batch, *shape)).astype(dtype)
        assert_conv_matches_window_reference(layer, params, x, seed)


def test_a_probe_mismatch_falls_back_to_the_window_gather(monkeypatch):
    keys = []
    monkeypatch.setattr(layers, "_packed_gather_matches", lambda *key: keys.append(key) or False)
    calls = record_gathers(monkeypatch)
    for seed, (name, layer, params, shape) in enumerate(stock_convs(np.float32)):
        x = np.random.default_rng(seed).uniform(-1, 1, (4, *shape)).astype(np.float32)
        assert_conv_matches_window_reference(layer, params, x, seed)
        # one window gather in the forward, one in the backward
        assert gathers_on(calls, x) == ["_windows", "_windows"], name
    assert len(set(keys)) == 6


def test_the_probe_runs_once_per_shape():
    probe = layers._packed_gather_matches
    probe.cache_clear()
    _, layer, params, _ = next(stock_convs(np.float32))
    rng = np.random.default_rng(0)
    for batch in [8, 8, 3, 8, 3]:
        layer.forward(rng.uniform(-1, 1, (batch, 1, 28, 28)).astype(np.float32), *params)
    layer.forward(rng.uniform(-1, 1, (8, 1, 28, 28)), *params)  # float64 input, float32 weight
    assert probe.cache_info()[:4] == (3, 3, None, 3)  # hits, misses, maxsize, currsize
    # the keys are (input shape, input dtype, weight shape, weight dtype)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    for key in [((8, 1, 28, 28), f32), ((3, 1, 28, 28), f32), ((8, 1, 28, 28), f64)]:
        probe(*key, (6, 1, 5, 5), f32)
    assert probe.cache_info().misses == 3


def test_conv_net_first_convs_take_the_packed_gather_on_scipy_openblas(monkeypatch):
    """On this BLAS the forward of every stock first conv takes the packed
    gather, and its backward the window gather. A probe that stops
    reproducing the forward's operand layouts loses that, and the speed-up
    with it, without changing a byte."""
    if not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                   "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's BLAS is not scipy-openblas")
    layers._packed_gather_matches.cache_clear()
    calls = record_gathers(monkeypatch)
    for shape, classes in [((1, 28, 28), 10), ((3, 32, 32), 100)]:
        net = conv_net(shape, classes)
        net.init_random(0)
        x = np.random.default_rng(0).uniform(-1, 1, (32, *shape)).astype(np.float32)
        out, cache = net.layers[0].forward(x, *net.views[0])
        assert gathers_on(calls, x) == ["_packed_windows"], shape
        net.layers[0].backward(np.ones_like(out), cache, *net.views[0])
        assert gathers_on(calls, x) == ["_packed_windows", "_windows"], shape


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
    params = tuple(rng.uniform(-1, 1, shape).astype(weight_dtype)
                   for shape in layer.param_shapes.values())
    for seed, (name, view) in enumerate(input_layouts(x)):
        assert view.tobytes() == x.tobytes()
        assert view.flags.c_contiguous == (name == "c-order")
        cols = layers._windows(view, k)
        assert cols.flags.c_contiguous, name
        assert cols.tobytes() == cols_by_windows(view, k).tobytes(), name
        assert_conv_matches_window_reference(layer, params, view, seed)


def test_the_window_table_is_built_once_per_input_geometry(monkeypatch):
    """Across batch sizes and input dtypes, and whether the probe or the
    forward gathers first."""
    monkeypatch.setattr(layers, "_packed_gather_matches", lambda *key: False)
    build = layers._window_index
    build.cache_clear()
    mnist = list(stock_convs(np.float32))[:2]
    rng = np.random.default_rng(0)
    for batch, dtype in [(8, np.float32), (3, np.float32), (8, np.float64), (1, np.float32)]:
        for _, layer, params, shape in mnist:
            layer.forward(rng.uniform(-1, 1, (batch, *shape)).astype(dtype), *params)
    assert build.cache_info()[:4] == (6, 2, None, 2)  # hits, misses, maxsize, currsize
    for key in [(1, 28, 28, 5), (6, 12, 12, 5)]:
        assert not build(*key).flags.writeable  # one shared table per key
    assert build.cache_info().misses == 2
    monkeypatch.undo()
    layers._packed_gather_matches.cache_clear()
    _, layer, params, _ = mnist[1]
    layer.forward(rng.uniform(-1, 1, (5, 6, 12, 12)).astype(np.float32), *params)
    assert build.cache_info().misses == 2


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_signed_zero_and_infinite_biases_keep_the_broadcast_add_bytes(dtype, n):
    """Biases of +0.0, -0.0, +inf and -inf, added to the exact zeros of
    all-zero weight rows and to generic GEMM outputs."""
    rng = np.random.default_rng(5)
    layer = Conv2D(2, 8, 3)
    weight = rng.uniform(-1, 1, layer.param_shapes["weight"]).astype(dtype)
    weight[:4] = 0.0
    bias = np.array([0.0, -0.0, np.inf, -np.inf] * 2, dtype=dtype)
    x = rng.uniform(-1, 1, (n, 2, 7, 6)).astype(dtype)
    out, _ = layer.forward(x, weight, bias)
    expected, _ = conv_by_windows(layer, x, weight, bias)
    assert out.tobytes() == expected.tobytes()
    assert out.strides == expected.strides
    assert (out[:, [0, 1]] == 0).all()
    assert np.isposinf(out[:, [2, 6]]).all() and np.isneginf(out[:, [3, 7]]).all()


@pytest.mark.parametrize("build", [lambda: Conv2D(0, 2, 3), lambda: Conv2D(1, 0, 3),
                                   lambda: Conv2D(1, 2, 0), lambda: MaxPool2D(0),
                                   lambda: Linear(0, 2), lambda: Linear(2, -1)])
def test_constructors_reject_a_size_that_is_not_positive(build):
    with pytest.raises(ValueError, match="must be positive"):
        build()


def test_conv2d_rejects_wrong_channels():
    layer = Conv2D(2, 3, 3)
    params = (np.zeros(shape, dtype=np.float32) for shape in layer.param_shapes.values())
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((1, 5, 6, 6), dtype=np.float32), *params)


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
    """The pool trusts its input's shape; the network checks it when it is built."""
    with pytest.raises(ShapeError, match=r"layer 2 \(maxpool2d\)"):
        Network([Conv2D(1, 2, 2), ReLU(), MaxPool2D(2), Flatten()], (1, 6, 5), (4, 3), 2)


def test_relu_derivative_is_zero_at_exactly_zero():
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    out, cache = layer.forward(x)
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
    dx, _ = layer.backward(np.ones_like(x), cache)
    np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])


def test_linear_identity_weight_passes_input_through():
    layer = Linear(3, 3)
    weight, bias = np.eye(3), np.zeros(layer.param_shapes["bias"])
    x = np.array([[0.5, -2.0, 7.0]])
    out, _ = layer.forward(x, weight, bias)
    np.testing.assert_array_equal(out, x)


def test_linear_gradients_hand_case():
    layer = Linear(2, 1)
    weight, bias = np.array([[3.0, -1.0]]), np.zeros(layer.param_shapes["bias"])
    x = np.array([[2.0, 5.0]])
    out, cache = layer.forward(x, weight, bias)
    assert out[0, 0] == 1.0
    dx, grads = layer.backward(np.array([[2.0]]), cache, weight, bias)
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
