import itertools

import numpy as np
import pytest

from fedtrap.layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU, ShapeError


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
    layer = Conv2D(2, 3, 3, dtype=np.float64)
    layer.init_random(rng)
    x = rng.normal(size=(4, 2, 6, 5))
    out, _ = layer.forward(x)
    expected = conv_by_loops(x, layer.weight, layer.bias)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


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
    layer = Linear(3, 3, dtype=np.float64)
    layer.weight[...] = np.eye(3)
    x = np.array([[0.5, -2.0, 7.0]])
    out, _ = layer.forward(x)
    np.testing.assert_array_equal(out, x)


def test_linear_gradients_hand_case():
    layer = Linear(2, 1, dtype=np.float64)
    layer.weight[...] = [[3.0, -1.0]]
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
