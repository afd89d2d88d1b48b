"""Property tests of the attack's two invariants.

A training set that never fires the planted trap must leave every
parameter except the final-layer biases bit-identical, for any head
width, learning rate, optimizer and number of epochs. And a client whose
training overflowed is never read as a decision, member or not. A
falsifying example of either is reported like any other failure.
"""

import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedtrap.attack import run_attack
from fedtrap.datasets import sample_run, synth_dataset
from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.network import dense_net, small_conv_net
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
    st.tuples(st.just("sgd"), st.floats(1e-4, 1.0)),
    st.tuples(st.just("adam"), st.floats(1e-5, 1e-1)))


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

    probe = net.with_params(theta)
    feats = probe.forward_features(xs)[:, list(spec.component_indices)]
    deviation = np.abs(feats - np.array(spec.etas, np.float32)).sum(axis=1)
    assume((deviation > spec.epsilon).all())

    phi = client_train(net, theta, xs, ys,
                       ClientConfig(batch_size, batches, epochs, optimizer=opt[0],
                                    lr=opt[1], shuffle_seed=seed))
    final_bias = net.layout.slice_of(net.head_linear_indices()[2], "bias")
    assert phi[:final_bias.start].tobytes() == theta[:final_bias.start].tobytes()
    assert phi[final_bias.stop:].tobytes() == theta[final_bias.stop:].tobytes()


POOL = synth_dataset(96, seed=3)
POOL_NET = small_conv_net()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(opt=st.sampled_from(["sgd", "adam"]), batches=st.integers(1, 4),
       epochs=st.integers(1, 3), lr=st.floats(1e-3, 3e38), member=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_a_client_with_non_finite_parameters_never_yields_a_decision(opt, batches, epochs,
                                                                     lr, member, seed):
    """`run_attack` raises FloatingPointError or returns with a finite phi; phi
    is recomputed here from the same inputs, since client training is
    deterministic."""
    assume(batches * epochs >= 2)
    draw = sample_run(POOL, 8 * batches, member, seed)
    xs, ys = POOL.stacked(draw.rows)
    x_t, y_t = POOL.stacked([draw.target_id])
    sample = (x_t[0], int(y_t[0]))
    cfg = ClientConfig(8, batches, epochs, optimizer=opt, lr=lr, shuffle_seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        theta, _ = craft_parameters(POOL_NET, sample, 4, 1e-3, seed)
        phi = client_train(POOL_NET, theta, xs, ys, cfg)
        try:
            run_attack(POOL_NET, xs, ys, sample, 4, 1e-3, cfg, 0.1, seed)
        except FloatingPointError:
            return
    assert np.isfinite(phi).all()


def test_a_failing_property_is_reported_next_to_the_others(tmp_path):
    """Under this project's warning filters, a failing `@given` test is one
    failure in the summary, not an INTERNALERROR that ends the session, and a
    DeprecationWarning from anywhere else still fails its test."""
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        import warnings
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None, max_examples=5)
        @given(st.integers(0, 10))
        def test_fails(n):
            assert n < 0

        @settings(derandomize=True, database=None, max_examples=5)
        @given(st.integers(0, 10))
        def test_passes(n):
            assert n >= 0

        def test_deprecation_is_an_error():
            warnings.warn("deprecated here", DeprecationWarning)
        """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    for outcome in ("FAILED test_pair.py::test_fails", "PASSED test_pair.py::test_passes",
                    "FAILED test_pair.py::test_deprecation_is_an_error"):
        assert outcome in proc.stdout, proc.stdout
    assert "2 failed, 1 passed" in proc.stdout
