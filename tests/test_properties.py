"""Property test of the exact-zero invariant that the backward shortcuts rely on.

A training set that never fires the planted trap must leave every
parameter except the final-layer biases bit-identical, for any head
width, learning rate, optimizer and number of epochs.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.network import dense_net, small_conv_net
from fedtrap.optim import AdamConfig, SGDConfig
from fedtrap.trap import craft_parameters

# input sides for which both small_conv_net conv/pool stages divide evenly
CONV_SIDES = (10, 14, 18)


@st.composite
def architectures(draw):
    classes = draw(st.integers(2, 10))
    if draw(st.booleans()):
        in_dim = draw(st.integers(4, 40))
        hidden = (draw(st.integers(2, 32)), draw(st.integers(1, 16)))
        return dense_net(in_dim, hidden, classes)
    side = draw(st.sampled_from(CONV_SIDES))
    return small_conv_net((draw(st.integers(1, 3)), side, side), classes)


optimizers = st.one_of(
    st.floats(1e-4, 1.0).map(lambda lr: SGDConfig(lr=lr)),
    st.floats(1e-5, 1e-1).map(lambda lr: AdamConfig(lr=lr)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(net=architectures(), opt=optimizers, epochs=st.integers(1, 3),
       batches=st.integers(1, 3), batch_size=st.integers(1, 4),
       num_values=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_non_triggering_training_changes_only_final_biases(net, opt, epochs, batches,
                                                           batch_size, num_values, seed):
    first_hidden = net.layers[net.head_linear_indices()[0]]
    assume(2 * num_values <= first_hidden.out_dim)
    rng = np.random.default_rng(seed)
    x_t = rng.uniform(-1, 1, size=net.input_shape).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        theta, spec = craft_parameters(net, (x_t, 1), num_values, 1e-3, seed=seed)
    n = batch_size * batches
    xs = rng.uniform(-1, 1, size=(n, *net.input_shape)).astype(np.float32)
    ys = rng.integers(1, net.num_classes + 1, size=n)

    probe = net.copy()
    probe.set_flat(theta)
    feats = probe.forward_features(xs)[:, list(spec.component_indices)]
    deviation = np.abs(feats - np.array(spec.etas, np.float32)).sum(axis=1)
    assume((deviation > spec.epsilon).all())

    phi = client_train(net, theta, xs, ys,
                       ClientConfig(batch_size, batches, epochs, optimizer=opt,
                                    shuffle_seed=seed))
    final_bias = net.layout.slice_of(net.head_linear_indices()[2], "bias")
    assert phi[:final_bias.start].tobytes() == theta[:final_bias.start].tobytes()
    assert phi[final_bias.stop:].tobytes() == theta[final_bias.stop:].tobytes()
