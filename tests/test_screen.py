"""The dead screen: its certificate, where it engages, and what it leaves to `backward`.

Every training case here is also compared byte for byte with the plain
reference loop of `test_differential`, which runs every layer of every
batch. The counts of `backward` calls and of the screen's dead steps show
which path each batch took. The dead step's own bytes are compared with
`backward`'s on the batch.
"""

import warnings

import numpy as np
import pytest

from fedtrap import screen as screen_module
from fedtrap.attack import run_attack
from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU, ShapeError
from fedtrap.network import Network, conv_net, dense_net, small_conv_net
from fedtrap.screen import (_CROP_CHUNK, Screen, _crop_pass, _crop_plan, _field, dead_screen,
                            extractor_bound)
from fedtrap.trap import craft_parameters, epsilon_flat_index
from test_differential import reference_client_train


def trapped(net, seed, num_values=4, epsilon=1e-3):
    """(theta, target image, target label, screened column)."""
    rng = np.random.default_rng(seed)
    x_t = rng.uniform(-1, 1, size=net.input_shape).astype(np.float32)
    y_t = int(rng.integers(1, net.num_classes + 1))
    with warnings.catch_warnings():
        # near-zero matched features are fine: nothing here depends on them
        warnings.simplefilter("ignore", UserWarning)
        theta, spec = craft_parameters(net, (x_t, y_t), num_values, epsilon, seed=seed)
    return theta, x_t, y_t, spec.component_indices[0]


def images(net, n, seed):
    rng = np.random.default_rng([seed, 1])  # not the stream `trapped` draws its target from
    xs = rng.uniform(-1, 1, size=(n, *net.input_shape)).astype(np.float32)
    return xs, rng.integers(1, net.num_classes + 1, size=n)


def count_paths(monkeypatch):
    """Batches that called `backward`, and batches whose gradient the screen gave."""
    calls = {"backward": 0, "dead": 0}
    backward, step = Network.backward, Screen.step

    def counting_backward(*args, **kwargs):
        calls["backward"] += 1
        return backward(*args, **kwargs)

    def counting_step(*args, **kwargs):
        dead = step(*args, **kwargs)
        calls["dead"] += dead is not None
        return dead

    monkeypatch.setattr(Network, "backward", counting_backward)
    monkeypatch.setattr(Screen, "step", counting_step)
    return calls


def train_both(net, theta, xs, ys, cfg):
    phi = client_train(net, theta, xs, ys, cfg)
    ref = reference_client_train(net, theta, xs, ys, cfg)
    assert phi.tobytes() == ref.tobytes()
    return phi


def count_crop_rows(monkeypatch):
    """The number of crops in every batch the crop pass runs."""
    rows = []
    values = screen_module._crop_values

    def wrapped(plan, crops, channels):
        rows.append(crops.shape[0] * crops.shape[1])
        return values(plan, crops, channels)

    monkeypatch.setattr(screen_module, "_crop_values", wrapped)
    return rows


def matched_columns(net, theta):
    """The column each of the trap's pairs reads, in pair order."""
    w1, _ = net.with_params(theta).views[net.head_linear_indices()[0]]
    pairs = np.count_nonzero(w1.any(axis=1)) // 2
    return [int(np.flatnonzero(w1[2 * m])[0]) for m in range(pairs)]


def moved_trap(net, theta, x, deviations):
    """`theta` with pair m's threshold η_m moved to x's matched feature plus
    deviations[m], so that x lies sum(|deviations|) from the trap in ℓ1."""
    work = net.with_params(theta)
    _, b1 = work.views[net.head_linear_indices()[0]]
    features = work.forward_features(x[None])[0]
    for m, (column, d) in enumerate(zip(matched_columns(net, theta), deviations)):
        eta = np.float32(features[column] + d)
        b1[2 * m], b1[2 * m + 1] = -eta, eta
    return work.params


def second_hidden_input(net, params, xs):
    """The full forward's second hidden pre-activations, (n, hidden[1])."""
    work = net.with_params(params)
    _, caches = work._run(np.asarray(xs, dtype=net.dtype), len(net.layers))
    return caches[net.head_linear_indices()[1] + 1]  # a ReLU's cache is its input


# -- the certificate ---------------------------------------------------------------


def unpooled_net():
    """An unpooled block each side of a pooled one, on a non-square input."""
    return Network([Conv2D(2, 3, 3), ReLU(), Conv2D(3, 3, 2), ReLU(), MaxPool2D(2),
                    Conv2D(3, 4, 2), ReLU(), Flatten()], (2, 13, 11), (8, 6), 3)


@pytest.mark.parametrize("build", [
    lambda: conv_net((1, 28, 28), 10), lambda: conv_net((3, 32, 32), 100),
    lambda: small_conv_net(), unpooled_net],
    ids=["mnist", "cifar100", "small", "unpooled"])
def test_every_crop_feature_is_within_the_bound_of_the_full_feature(build):
    """For every column, the extractor's own layers run on the column's
    receptive field of each sample give the full forward's feature to within
    2E, and both lie within F + E in magnitude. The crop pass's banded
    arithmetic, in one call over every field whose batches mix the fields'
    crops over several chunks, is within 2E of both."""
    net = build()
    net.init_random(7)
    xs, _ = images(net, 12, seed=7)
    full = net.forward_features(xs).astype(np.float64)
    features, error = extractor_bound(net, float(np.abs(xs).max()))
    assert error > 0
    assert (np.abs(full) <= features + error).all()
    plan = _crop_plan(net)
    fields = [_field(plan, column) for column in range(net.feature_width)]
    layers = np.empty_like(full)
    for column, (box, channel) in enumerate(fields):
        crop, _ = net._run(xs[(slice(None), *box)], net.split_index)
        assert crop.shape[1] == plan.shape[0]  # one cell of every channel
        layers[:, column] = crop[:, channel]
    assert (np.abs(layers - full) <= 2 * error).all()
    assert len(xs) > max(1, _CROP_CHUNK // len(fields))
    values = _crop_pass(plan, xs, fields)
    assert values.shape == full.shape and values.dtype == np.float64
    assert (np.abs(values - full) <= 2 * error).all()
    assert (np.abs(values - layers) <= 2 * error).all()


def test_a_field_is_the_crop_one_feature_reads_and_its_channel():
    mnist, cifar = _crop_plan(conv_net((1, 28, 28), 10)), _crop_plan(conv_net((3, 32, 32), 100))
    assert (mnist.size, mnist.stride, cifar.size, cifar.stride) == (16, 4, 16, 4)
    assert _field(mnist, 255) == ((slice(None), slice(12, 28), slice(12, 28)), 15)
    assert _field(cifar, 399) == ((slice(None), slice(16, 32), slice(16, 32)), 15)
    assert _field(cifar, 25 + 5 + 2) == ((slice(None), slice(4, 20), slice(8, 24)), 1)
    unpooled = _crop_plan(unpooled_net())
    assert (unpooled.size, unpooled.stride, unpooled.shape) == (7, 2, (4, 4, 3))
    assert _field(unpooled, 12 + 3 * 2 + 1) == ((slice(None), slice(4, 11), slice(2, 9)), 1)


def mixed_net():
    """A pool and a ReLU before the first conv, a conv with no pool, and a
    last conv pooled twice before its ReLU."""
    return Network([MaxPool2D(2), ReLU(), Conv2D(2, 3, 4), ReLU(), Conv2D(3, 4, 1),
                    MaxPool2D(2), MaxPool2D(2), ReLU(), Flatten()], (2, 22, 22), (8, 6), 3)


def linear_net():
    """A Flatten, then a Linear layer and its ReLU, before the head."""
    return Network([Flatten(), Linear(12, 10), ReLU()], (3, 2, 2), (8, 6), 3)


@pytest.mark.parametrize("build", [lambda: dense_net(20, (12, 8), 10), mixed_net, linear_net],
                         ids=["dense", "mixed", "linear"])
def test_an_extractor_that_is_not_conv_relu_blocks_then_flatten_gets_no_screen(
        monkeypatch, build):
    """No crop plan, so no screen: a trapped network trains through `backward`
    in every batch, with the reference loop's bytes."""
    net = build()
    theta, *_ = trapped(net, seed=29)
    xs, ys = images(net, 16, seed=29)
    assert _crop_plan(net) is None
    assert dead_screen(net.with_params(theta), xs) is None
    calls = count_paths(monkeypatch)
    train_both(net, theta, xs, ys, ClientConfig(4, 4, 2))
    assert calls == {"backward": 8, "dead": 0}


def test_samples_at_the_certified_threshold_take_the_full_path_whenever_they_fire(
        monkeypatch):
    """The margin b2 is swept, a few ulps at a time, across two thresholds of one
    sample: where the screen stops certifying it, and where it starts to fire.
    Moving b2 moves the sample against both. A batch is certified exactly while
    b2 lies below every sample's certified threshold, and a batch that fires
    is never certified; the other sample of that batch is certified throughout."""
    net = small_conv_net()
    theta, x_t, y_t, column = trapped(net, seed=21, num_values=1)
    xs, ys = images(net, 8, seed=21)
    margin = epsilon_flat_index(net)
    bound = dead_screen(net.with_params(theta), xs).bound
    pair = np.array([np.argmax(bound), np.argmin(bound)])  # nearest the target, farthest
    xs, ys = xs[pair], ys[pair]
    screen = dead_screen(net.with_params(theta), xs)   # the screen training builds
    params = theta.copy()
    params[margin] = 0
    deviation = -float(second_hidden_input(net, params, xs)[0, 0])
    certified = -screen.bound[0]           # b2 below this certifies the near sample
    assert 0 < certified < deviation < -screen.bound[1]

    def around(value, ulps=3):
        f32 = np.float32(value)
        below = [f32] + [f32 := np.nextafter(f32, np.float32(0)) for _ in range(ulps)]
        f32 = np.float32(value)
        above = [f32 := np.nextafter(f32, np.float32(np.inf)) for _ in range(ulps)]
        return below[::-1] + above

    calls = count_paths(monkeypatch)
    cfg = ClientConfig(2, 1, 3)
    for eps in around(certified) + around(deviation):
        params = theta.copy()
        params[margin] = eps
        dead = screen.step(params, params.size, np.array([0, 1]), ys) is not None
        fires = (second_hidden_input(net, params, xs)[:, 0] > 0).any()
        assert dead == (eps < certified) and not (dead and fires)
        assert screen.step(params, params.size, np.array([1]), ys[1:]) is not None
        calls.update(backward=0, dead=0)
        train_both(net, params, xs, ys, cfg)
        assert calls == ({"backward": 0, "dead": 3} if dead
                         else {"backward": 3, "dead": 0})
    assert fires  # the sweep ends inside the firing threshold


def test_crop_and_full_features_that_differ_are_covered(monkeypatch):
    """At the CIFAR-100 shape the crop pass and the full forward round some
    features differently. A trap planted at the full forward's value of such a
    feature fires for that sample with a margin below the difference, so a
    screen that took the crop's value as exact would certify a firing batch."""
    net = conv_net((3, 32, 32), 100)
    net.init_random(3, stop=net.split_index)
    xs, ys = images(net, 16, seed=3)
    full = net.forward_features(xs)
    plan = _crop_plan(net)
    fields = [_field(plan, column) for column in range(net.feature_width)]
    crops = _crop_pass(plan, xs, fields)
    sample, column = np.unravel_index(np.argmax(np.abs(crops - full)), full.shape)
    gap = abs(float(crops[sample, column]) - float(full[sample, column]))
    if gap == 0:
        pytest.skip("this BLAS rounds every crop feature as the full forward does")
    theta, _ = craft_parameters(net, (xs[sample], int(ys[sample])), 1, gap / 2, seed=3)
    work = net.with_params(theta)
    w1, b1 = work.views[net.head_linear_indices()[0]]
    w1[:2] = 0  # the trap's one pair, moved to that feature
    w1[0, column], w1[1, column] = 1, -1
    b1[0], b1[1] = -full[sample, column], full[sample, column]
    theta = work.params
    calls = count_paths(monkeypatch)
    pair = np.array([sample, (sample + 1) % 16])
    train_both(net, theta, xs[pair], ys[pair], ClientConfig(2, 1, 2, lr=1e-9))
    assert calls == {"backward": 2, "dead": 0}


@pytest.mark.parametrize("final_bias", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("other_rows", [-1.0, 0.0, -0.0, np.float32(1e-45)],
                         ids=["-1", "+0", "-0", "subnormal"])
def test_a_signed_zero_final_bias_and_zero_row_biases(monkeypatch, final_bias, other_rows):
    """A final bias of exactly +0.0 or -0.0 gives `backward`'s bytes from the dead
    step. The rows with no weight may have a bias of exactly ±0.0 and stay zero;
    one positive subnormal bias makes them live: no screen is built, and every
    batch takes `backward`."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=5)
    work = net.with_params(theta)
    work.views[len(net.layers) - 1][1][...] = final_bias
    work.views[net.head_linear_indices()[1]][1][1:] = other_rows
    xs, ys = images(net, 16, seed=5)
    assert (dead_screen(work, xs) is None) == (other_rows > 0)
    calls = count_paths(monkeypatch)
    for opt in ("sgd", "adam"):
        train_both(net, work.params, xs, ys, ClientConfig(4, 4, 2, optimizer=opt))
    dead = other_rows <= 0
    assert calls == {"backward": 0 if dead else 16, "dead": 16 if dead else 0}


@pytest.mark.parametrize("written", ["final bias", "final weight", "other row"])
def test_a_step_reads_again_what_the_written_suffix_can_hold(written):
    """A step reads again `params[lo:]` and, while `lo` is below the final bias,
    b2's other rows: an infinite final bias under `lo` at the final bias, or
    an infinite final weight or a positive subnormal bias on another row under
    `lo` at b2's offset, refuses a batch that is otherwise certified."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=5)
    xs, ys = images(net, 8, seed=5)
    screen = dead_screen(net.with_params(theta), xs)
    rows = np.arange(len(xs))
    for lo in (screen.final.start, screen.stop):
        assert screen.step(theta, lo, rows, ys) is not None
    params = theta.copy()
    if written == "final bias":
        lo = screen.final.start
        params[lo + 3] = np.inf
    elif written == "final weight":
        lo = screen.stop
        params[net.layout.entry(len(net.layers) - 1, "weight").offset + 5] = np.inf
    else:
        lo = screen.stop
        params[screen.others[0]] = np.float32(1e-45)
    assert screen.step(params, lo, rows, ys) is None


def test_a_margin_moved_by_an_earlier_firing_batch_is_read_again(monkeypatch):
    """Under Adam the target's firing in the first batch moves ε, and the moments
    keep moving it in the dead batches that follow. A sample the screen certifies
    under the crafted ε fires under the moved one, and its batch takes `backward`."""
    net = small_conv_net()
    theta, x_t, y_t, column = trapped(net, seed=8, num_values=1)
    epsilon = float(theta[epsilon_flat_index(net)])
    cfg = ClientConfig(4, 4, 1, optimizer="adam", shuffle_seed=8)
    order = np.random.default_rng(cfg.shuffle_seed).permutation(16)
    xs, ys = images(net, 16, seed=8)
    xs[order[0]], ys[order[0]] = x_t, y_t
    eta = net.with_params(theta).forward_features(x_t[None])[0, column]
    noise = np.random.default_rng(9).uniform(-1, 1, size=x_t.shape).astype(np.float32)

    def deviation(scale):
        twin = (x_t + np.float32(scale) * noise)[None]
        return abs(float(net.with_params(theta).forward_features(twin)[0, column] - eta))
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:  # a twin at deviation 2.5 ε, in the last batch
        lo, hi = (lo, (lo + hi) / 2) if deviation((lo + hi) / 2) > 2.5 * epsilon \
            else ((lo + hi) / 2, hi)
    xs[order[12]] = x_t + np.float32(hi) * noise
    assert 2.4 * epsilon < deviation(hi) < 2.6 * epsilon
    assert dead_screen(net.with_params(theta), xs).bound[order[12]] < -epsilon

    calls = count_paths(monkeypatch)
    phi = train_both(net, theta, xs, ys, cfg)
    assert phi[epsilon_flat_index(net)] > 2.6 * epsilon
    assert calls == {"backward": 2, "dead": 2}  # the target's batch, the twin's


# -- the dead step ----------------------------------------------------------------


def dead_step(net, xs, ys):
    """The screen's gradient of `xs` as one batch under `net`'s parameters, and
    where its writes start; the batch must be certified."""
    dead = dead_screen(net, xs).step(net.params, net.params.size, np.arange(len(xs)), ys)
    assert dead is not None
    return dead


@pytest.mark.parametrize("final_bias", [None, 0.0, -0.0, "random"],
                         ids=["crafted", "+0", "-0", "random"])
@pytest.mark.parametrize("batch", [1, 8, 33])
def test_the_dead_step_is_backward_when_the_second_hidden_relu_is_zero(batch, final_bias):
    net = small_conv_net()
    theta, *_ = trapped(net, seed=5)
    net = net.with_params(theta)
    bias = net.views[-1][1]
    rng = np.random.default_rng(batch)
    if final_bias == "random":
        bias[...] = rng.normal(size=bias.shape)
    elif final_bias is not None:
        bias[...] = final_bias
    xs = rng.uniform(-1, 1, size=(batch, *net.input_shape)).astype(np.float32)
    ys = rng.integers(1, net.num_classes + 1, size=batch)
    assert (second_hidden_input(net, net.params, xs) <= 0).all()
    grad, start = dead_step(net, xs, ys)
    assert start == net.layout.entry(len(net.layers) - 1, "bias").offset
    assert grad.tobytes() == net.backward(xs, ys).tobytes()


@pytest.mark.parametrize("classes", [10, 37, 100])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 1.0, 10.0, 50.0])
def test_the_dead_steps_softmax_of_one_row_is_backwards_on_random_final_biases(
        classes, dtype, scale):
    """The dead step runs the softmax on the one row b3 and repeats it to B
    rows; `backward` runs it on B rows. Random final biases, some entries +0.0,
    -0.0 or subnormal, give the same bytes at every batch size drawn, for
    heads of 10, 37 and 100 classes (CIFAR-100's): the softmax reads the
    head's width alone, so a small extractor serves them all."""
    net = small_conv_net(num_classes=classes)
    theta, *_ = trapped(net, seed=5)
    net = net.with_params(theta.astype(dtype))
    bias = net.views[-1][1]
    rng = np.random.default_rng([7, int(scale * 1000), np.dtype(dtype).itemsize])
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, -0.0, tiny, -tiny, 1000 * tiny, -77 * tiny], dtype)
    for _ in range(60):
        bias[...] = rng.normal(scale=scale, size=bias.shape)
        picked = rng.random(bias.shape) < 0.3
        bias[picked] = rng.choice(specials, size=int(picked.sum()))
        batch = int(rng.integers(1, 34))
        xs = rng.uniform(-1, 1, size=(batch, *net.input_shape)).astype(dtype)
        ys = rng.integers(1, classes + 1, size=batch)
        grad, _ = dead_step(net, xs, ys)
        assert grad.tobytes() == net.backward(xs, ys).tobytes()


def test_a_dead_step_takes_labels_checked_once_per_call(monkeypatch):
    """The dead step checks no labels: `client_train` checks them once, so a
    call whose every batch is dead raises before its first step."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=5)
    rng = np.random.default_rng(6)
    xs = rng.uniform(-1, 1, size=(8, *net.input_shape)).astype(np.float32)
    cfg = ClientConfig(2, 4, 2)
    calls = count_paths(monkeypatch)
    client_train(net, theta, xs, np.ones(8, dtype=np.int64), cfg)
    assert calls == {"backward": 0, "dead": 8}
    calls.update(backward=0, dead=0)
    for bad in (0, net.num_classes + 1):
        ys = np.ones(8, dtype=np.int64)
        ys[5] = bad
        with pytest.raises(ValueError, match="labels must lie in"):
            client_train(net, theta, xs, ys, cfg)
    assert calls == {"backward": 0, "dead": 0}


# -- refinement with every matched column ---------------------------------------


@pytest.mark.parametrize("other", [0.7, 5.0], ids=["split", "far"])
def test_a_sample_near_the_trap_on_the_first_column_only_is_certified_after_refinement(
        monkeypatch, other):
    """The sample lies 0.7ε from η on the first matched column, which alone
    cannot certify it, and `other`·ε from it on the second. The refined bound
    sums every column: 1.4ε certifies the sample where neither column would
    alone, and 5.7ε where the second would. Every batch is then dead."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=23)
    epsilon = float(theta[epsilon_flat_index(net)])
    xs, ys = images(net, 8, seed=23)
    theta = moved_trap(net, theta, xs[0], [0.7 * epsilon, other * epsilon, 0, 0])
    bound = dead_screen(net.with_params(theta), xs).bound
    assert bound[0] >= -epsilon and (bound[1:] < -epsilon).all()
    calls = count_paths(monkeypatch)
    train_both(net, theta, xs, ys, ClientConfig(2, 4, 2))
    assert calls == {"backward": 0, "dead": 8}


def test_a_sample_near_the_trap_on_every_column_stays_live(monkeypatch):
    """0.2ε from η on each of the four matched columns is 0.8ε in all: the
    sample fires the trap, off the pair units' kink, so from its batch on the
    extractor is written and every batch takes `backward`."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=23)
    epsilon = float(theta[epsilon_flat_index(net)])
    xs, ys = images(net, 8, seed=23)
    theta = moved_trap(net, theta, xs[0], [0.2 * epsilon] * 4)
    assert second_hidden_input(net, theta, xs)[0, 0] > 0
    cfg = ClientConfig(2, 4, 2)
    first = int(np.argmax(np.random.default_rng(cfg.shuffle_seed).permutation(8) == 0)) // 2
    calls = count_paths(monkeypatch)
    phi = train_both(net, theta, xs, ys, cfg)
    assert calls == {"backward": 8 - first, "dead": first}
    assert phi[net.extractor_params].tobytes() != theta[net.extractor_params].tobytes()


def test_refinement_crops_only_the_samples_left_uncertified(monkeypatch):
    """Two of 16 samples, in different batches, share their first matched
    column's receptive field, and so lie 0.7ε from η there. The first batch
    that holds one refines both at once: one extractor batch of the two
    samples' crops of each of the four matched columns, 2 × 4 = 8 crops.
    Nothing is refined again."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=21)
    epsilon = float(theta[epsilon_flat_index(net)])
    columns = matched_columns(net, theta)
    box, _ = _field(_crop_plan(net), columns[0])
    assert len(columns) == 4
    xs, ys = images(net, 16, seed=21)
    cfg = ClientConfig(4, 4, 2)
    batch = np.argsort(np.random.default_rng(cfg.shuffle_seed).permutation(16)) // 4
    near = [int(i) for i in np.flatnonzero(batch == 0)[:1]] + \
           [int(i) for i in np.flatnonzero(batch == 3)[:1]]
    xs[near[1]][box] = xs[near[0]][box]
    theta = moved_trap(net, theta, xs[near[0]], [0.7 * epsilon, 0.7 * epsilon, 0, 0])
    bound = dead_screen(net.with_params(theta), xs).bound
    assert np.flatnonzero(bound >= -epsilon).tolist() == sorted(near)
    calls = count_paths(monkeypatch)
    rows = count_crop_rows(monkeypatch)
    train_both(net, theta, xs, ys, cfg)
    assert rows == [16, 2 * 4]
    assert calls == {"backward": 0, "dead": 8}


def test_a_refined_sample_goes_back_to_backward_when_the_margin_rises_past_its_bound(
        monkeypatch):
    """The last test with four matched columns. The twin and a decoy match the
    target on the first column's receptive field, and lie 2.5ε and 5ε from it
    over the other columns. The target's batch refines all three under the
    crafted ε, which certifies the twin and the decoy. ε then rises past the
    twin's refined bound, and its batch takes `backward`; the decoy's stays dead."""
    net = small_conv_net()
    theta, x_t, y_t, column = trapped(net, seed=8)
    epsilon = float(theta[epsilon_flat_index(net)])
    columns = matched_columns(net, theta)
    cfg = ClientConfig(4, 4, 1, optimizer="adam", shuffle_seed=8)
    order = np.random.default_rng(cfg.shuffle_seed).permutation(16)
    xs, ys = images(net, 16, seed=8)
    xs[order[0]], ys[order[0]] = x_t, y_t
    work = net.with_params(theta)
    eta = work.forward_features(x_t[None])[0, columns]
    noise = np.random.default_rng(9).uniform(-1, 1, size=x_t.shape).astype(np.float32)
    box, _ = _field(_crop_plan(net), column)
    noise[box] = 0

    def deviation(scale):
        twin = (x_t + np.float32(scale) * noise)[None]
        return float(np.abs(work.forward_features(twin)[0, columns] - eta).sum())

    def away(multiple):
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-9:
            lo, hi = (lo, (lo + hi) / 2) if deviation((lo + hi) / 2) > multiple * epsilon \
                else ((lo + hi) / 2, hi)
        assert multiple - 0.1 < deviation(hi) / epsilon < multiple + 0.1
        return x_t + np.float32(hi) * noise

    xs[order[12]], xs[order[8]] = away(2.5), away(5)
    screen = dead_screen(work, xs)
    assert (screen.bound[order[[0, 8, 12]]] >= -epsilon).all()
    assert (screen.refine(order[[8, 12]]) < -epsilon).all()
    calls = count_paths(monkeypatch)
    rows = count_crop_rows(monkeypatch)
    phi = train_both(net, theta, xs, ys, cfg)
    assert phi[epsilon_flat_index(net)] > 2.6 * epsilon
    assert calls == {"backward": 2, "dead": 2}  # the target's batch, the twin's
    assert len(columns) == 4 and rows == [16, 3 * 4]  # one batch: 3 samples' 4 crops


def test_a_refined_sample_keeps_its_one_column_bound_where_that_is_lower(monkeypatch):
    """At η on every column, the target's all-column bound carries more float64
    slack than its one-column bound. Under a negative b2 between the two, the
    target is dead, and the screen certifies it from the one-column bound it
    kept when a positive b2 had it refined."""
    net = small_conv_net()
    theta, x_t, y_t, _ = trapped(net, seed=25)
    xs, ys = images(net, 4, seed=25)
    xs[0], ys[0] = x_t, y_t
    screen = dead_screen(net.with_params(theta), xs)
    one, every = screen.bound[0], screen.refine(np.array([0]))[0]
    assert 0 < one < every
    params = theta.copy()
    assert screen.step(params, params.size, np.array([0]), ys[:1]) is None
    assert screen.refined[0]
    margin = epsilon_flat_index(net)
    params[margin] = -np.float32((one + every) / 2)
    assert one < -params[margin] <= every
    assert screen.step(params, params.size, np.array([0]), ys[:1]) is not None
    assert second_hidden_input(net, params, xs[:1])[0, 0] <= 0
    calls = count_paths(monkeypatch)
    train_both(net, params, xs, ys, ClientConfig(2, 2, 1))
    assert calls == {"backward": 0, "dead": 2}


def test_a_unit_reading_the_first_column_and_another_is_left_out_of_the_bound(monkeypatch):
    """The first unit of the live row reads its pair's column and one more.
    The certificate's sum may drop any of the row's units, so the screen drops
    that one: its bounds are those of the head with the unit cut from the row,
    the next unit's column is screened, and the batches are dead."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=27)
    columns = matched_columns(net, theta)
    other = next(j for j in range(net.feature_width) if j not in columns)
    work = net.with_params(theta)
    (w1, _), (w2, _) = (work.views[i] for i in net.head_linear_indices()[:2])
    w1[0, other] = 0.5
    cut = net.with_params(work.params)
    cut.views[net.head_linear_indices()[1]][0][0, 0] = 0
    xs, ys = images(net, 16, seed=27)
    screen, without = dead_screen(work, xs), dead_screen(cut, xs)
    assert screen is not None and w2[0, 0] < 0
    assert screen.bound.tobytes() == without.bound.tobytes()
    every = np.arange(16)
    assert screen.refine(every).tobytes() == without.refine(every).tobytes()
    calls = count_paths(monkeypatch)
    train_both(net, work.params, xs, ys, ClientConfig(4, 4, 2))
    assert calls == {"backward": 0, "dead": 8}


# -- where the screen stays off ----------------------------------------------------


def test_a_live_network_and_a_positive_live_row_weight_leave_the_screen_off(monkeypatch):
    net = small_conv_net()
    net.init_random(11)
    xs, ys = images(net, 16, seed=11)
    assert dead_screen(net, xs) is None

    theta, _, _, column = trapped(net, seed=11)
    work = net.with_params(theta)
    (w1, b1), (w2, _) = (work.views[i] for i in net.head_linear_indices()[:2])
    other = (column + 1) % net.feature_width
    w1[9, other], b1[9], w2[0, 9] = 1.0, 10.0, 1.0   # an unscreened unit that lifts the row
    assert (second_hidden_input(net, work.params, xs)[:, 0] > 0).all()
    assert dead_screen(work, xs) is None
    calls = count_paths(monkeypatch)
    train_both(net, work.params, xs, ys, ClientConfig(4, 4, 2))
    assert calls == {"backward": 8, "dead": 0}


@pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf])
def test_a_non_finite_pixel_is_never_certified_and_the_run_still_raises(pixel):
    """The pixel lies outside the screened column's receptive field, so only the
    full forward reads it: its features turn NaN, the client's reply is not
    finite, and the attack raises."""
    net = small_conv_net()
    theta, x_t, y_t, column = trapped(net, seed=13)
    xs, ys = images(net, 16, seed=13)
    box, _ = _field(_crop_plan(net), column)
    outside = [(i, j) for i in range(14) for j in range(14)
               if not (box[1].start <= i < box[1].stop and box[2].start <= j < box[2].stop)]
    xs[3, 0, outside[0][0], outside[0][1]] = pixel
    assert dead_screen(net.with_params(theta), xs) is None
    cfg = ClientConfig(4, 4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = client_train(net, theta, xs, ys, cfg)
        assert phi.tobytes() == reference_client_train(net, theta, xs, ys, cfg).tobytes()
        with pytest.raises(FloatingPointError, match="non-finite"):
            run_attack(net, xs, ys, (x_t, y_t), 4, 1e-3, cfg, 1.0, seed=13)
    assert not np.isfinite(phi).all()


@pytest.mark.parametrize("scale", ["extractor", "first hidden"])
def test_weights_big_enough_to_overflow_are_never_certified(scale):
    """Extractor weights of 1e20 overflow the features; an unread first-hidden
    unit with weights of 1e38 overflows to inf, and the live row's zero weight
    on it gives NaN. The reply is not finite either way."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=15)
    work = net.with_params(theta)
    if scale == "extractor":
        work.params[net.extractor_params] *= np.float32(1e20)
    else:
        w1, _ = work.views[net.head_linear_indices()[0]]
        w1[20] = np.float32(1e38)
    xs, ys = images(net, 16, seed=15)
    assert dead_screen(work, xs) is None
    cfg = ClientConfig(4, 4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = client_train(net, work.params, xs, ys, cfg)
        assert phi.tobytes() == reference_client_train(net, work.params, xs, ys, cfg).tobytes()
    assert not np.isfinite(phi).all()


def test_a_one_step_call_builds_no_screen(monkeypatch):
    """FedSGD and the reference step: the crop pass would cover the one batch's
    samples, so a live batch would pay it on top of its forward."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=17)
    xs, ys = images(net, 8, seed=17)
    calls = count_paths(monkeypatch)
    train_both(net, theta, xs, ys, ClientConfig(8, 1, 1))
    assert calls == {"backward": 1, "dead": 0}


@pytest.mark.parametrize("shape", [(2, 14, 14), (1, 16, 16), (196,)], ids=["channels", "wider", "flat"])
def test_images_of_the_wrong_shape_raise_before_any_batch_is_certified(shape):
    """The screened column's crop fits inside a wider or deeper image, so
    the screen checks the batch shape as `backward` does."""
    net = small_conv_net()
    theta, *_ = trapped(net, seed=19)
    xs = np.zeros((16, *shape), dtype=np.float32)
    ys = np.ones(16, dtype=np.int64)
    with pytest.raises(ShapeError, match="input shape"):
        dead_screen(net.with_params(theta), xs)
    with pytest.raises(ShapeError, match="input shape"):
        client_train(net, theta, xs, ys, ClientConfig(4, 4, 2))
