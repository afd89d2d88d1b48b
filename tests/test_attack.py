import numpy as np
import pytest

from fedtrap.attack import (AttackOutcome, DegenerateTrapError, decide,
                            decision_statistic, reference_eps, run_attack)
from fedtrap.datasets import sample_run, synth_dataset
from fedtrap.fedsim import ClientConfig
from fedtrap.network import small_conv_net
from fedtrap.trap import craft_parameters, epsilon_flat_index


def crafted_setup(seed=7, label=3, M=4, eps=1e-3, dtype=np.float32):
    net = small_conv_net(dtype=dtype)
    rng = np.random.default_rng(seed)
    x_t = rng.uniform(-1, 1, size=(1, 14, 14)).astype(dtype)
    theta, spec = craft_parameters(net, (x_t, label), M, eps, seed=seed + 100)
    return net, x_t, label, theta, spec


# -- reference step ------------------------------------------------------------


def test_reference_eps_sgd_increases_margin():
    net, x_t, y_t, theta, spec = crafted_setup()
    cfg = ClientConfig(32, 1, 1, optimizer="sgd", lr=1e-2)
    ref = reference_eps(net, theta, (x_t, y_t), cfg)
    # the target self-triggers and the descent direction raises the margin:
    # step = -lr * (softmax_target - 1) ~= +lr * 0.9 for 10 classes
    assert ref > spec.epsilon
    assert ref - spec.epsilon == pytest.approx(1e-2 * 0.9, rel=0.01)


def test_reference_eps_adam_moves_by_about_lr():
    net, x_t, y_t, theta, spec = crafted_setup()
    cfg = ClientConfig(32, 1, 1, optimizer="adam", lr=1e-3)
    ref = reference_eps(net, theta, (x_t, y_t), cfg)
    assert abs(ref - spec.epsilon) == pytest.approx(1e-3, rel=1e-3)
    assert ref > spec.epsilon


def test_reference_eps_non_triggering_sample_is_exact_fixed_point():
    net, x_t, y_t, theta, spec = crafted_setup()
    idx = epsilon_flat_index(net)
    other = np.random.default_rng(1).uniform(-1, 1, size=(1, 14, 14)).astype(np.float32)
    for opt in ("sgd", "adam"):
        cfg = ClientConfig(32, 1, 1, optimizer=opt)
        assert reference_eps(net, theta, (other, y_t), cfg) == theta[idx]


# -- decision statistic -----------------------------------------------------------


def test_decision_statistic_zero_numerator():
    assert decision_statistic(1e-3, 1e-3, 2e-3, 32) == 0.0


def test_decision_statistic_batch_factor_cancels():
    # client moved by one B-th of the reference move
    eps, ref = 1e-3, 1e-3 + 0.009
    client = 1e-3 + 0.009 / 32
    assert decision_statistic(eps, client, ref, 32) == pytest.approx(1.0, rel=1e-12)


def test_decision_statistic_rejects_zero_denominator():
    with pytest.raises(DegenerateTrapError):
        decision_statistic(1e-3, 5e-3, 1e-3, 32)


@pytest.mark.parametrize("eps, client, ref", [
    (1e-3, 1e-3, np.inf), (1e-3, 1e-3, -np.inf), (1e-3, np.nan, 2e-3),
    (1e-3, -np.inf, 2e-3), (np.nan, 1e-3, 2e-3)])
def test_decision_statistic_rejects_a_non_finite_margin(eps, client, ref):
    # an infinite reference step would otherwise give Delta = 0 / inf = 0
    with pytest.raises(FloatingPointError, match="not finite"):
        decision_statistic(eps, client, ref, 32)


def test_decision_is_invariant_to_common_rescaling():
    # a shared learning-rate change scales both margin moves by one factor
    eps = 1e-3
    base = decision_statistic(eps, eps + 3e-4, eps + 9e-3, 32)
    for scale in (0.1, 2.0, 7.5):
        scaled = decision_statistic(eps, eps + scale * 3e-4,
                                    eps + scale * 9e-3, 32)
        assert scaled == pytest.approx(base, rel=1e-12)
        assert decide(scaled, 0.1) == decide(base, 0.1)


def test_decide_threshold_semantics():
    assert decide(0.0, 0.1) == 0
    assert decide(0.1, 0.1) == 1    # boundary is a member call
    assert decide(0.23, 0.1) == 1
    with pytest.raises(ValueError):
        decide(-0.5, 0.1)


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_decide_rejects_non_finite_delta(delta):
    # a diverged client must not read as "non-member"
    with pytest.raises(ValueError, match="not finite"):
        decide(delta, 0.1)


@pytest.mark.parametrize("xi", [0.0, -1.0, float("nan"), float("inf")])
def test_decide_rejects_bad_threshold(xi):
    # a NaN threshold would read every member as "non-member"
    with pytest.raises(ValueError, match="threshold xi must be finite and positive"):
        decide(0.5, xi)


# -- end-to-end ---------------------------------------------------------------------


def run_once(member: bool, opt="sgd", J=2, E=1, seed=123, M=4):
    source = synth_dataset(200, seed=seed)
    draw = sample_run(source, 64, int(member), seed=seed + 1)
    xs, ys = source.stacked(draw.rows)
    x_t, y_t = source.stacked([draw.target_id])
    net = small_conv_net()
    client_cfg = ClientConfig(32, J, E, optimizer=opt, shuffle_seed=seed + 2)
    outcome, spec = run_attack(net, xs, ys, (x_t[0], int(y_t[0])), M, 1e-3, client_cfg,
                               0.1, seed=seed + 3)
    return outcome, spec


def test_run_attack_member_is_detected():
    for opt in ("sgd", "adam"):
        outcome, _ = run_once(member=True, opt=opt)
        assert outcome.decision == 1
        assert outcome.delta >= 0.1
        assert outcome.eps_client != outcome.eps_initial


def test_run_attack_non_member_delta_is_exactly_zero():
    for opt in ("sgd", "adam"):
        outcome, _ = run_once(member=False, opt=opt)
        assert outcome.delta == 0.0
        assert outcome.decision == 0
        assert outcome.eps_client == outcome.eps_initial


def test_run_attack_duplicate_of_target_outside_draw_false_positives():
    # the documented failure mode: a byte-identical copy of the target hides
    # in the client data even though the target itself was not drawn
    source = synth_dataset(200, seed=9)
    draw = sample_run(source, 64, 0, seed=10)
    xs, ys = source.stacked(draw.rows)
    x_t, y_t = source.stacked([draw.target_id])
    xs[5] = x_t[0]  # plant the duplicate
    net = small_conv_net()
    outcome, _ = run_attack(net, xs, ys, (x_t[0], int(y_t[0])), 4, 1e-3,
                            ClientConfig(32, 2, 1, shuffle_seed=1), 0.1, seed=11)
    assert outcome.decision == 1


def test_outcome_invariants():
    outcome, _ = run_once(member=True)
    assert isinstance(outcome, AttackOutcome)
    assert outcome.delta >= 0
    assert outcome.decision == (1 if outcome.delta >= 0.1 else 0)
    assert outcome.eps_initial == pytest.approx(1e-3)


def stroke_image(rng):
    """Black canvas with a few textured rectangles, like handwritten-digit data."""
    img = np.zeros((1, 14, 14), dtype=np.uint8)
    for _ in range(rng.integers(1, 3)):
        r, c = rng.integers(0, 10, size=2)
        h, w = rng.integers(2, 5, size=2)
        img[0, r:r + h, c:c + w] = rng.integers(180, 256, size=(h, w))
    return img


def test_single_matched_value_collapses_on_structured_images():
    # images sharing exactly-blank patches produce exactly equal feature
    # values, so a one-component trap fires for unrelated samples; four
    # components restore perfect rejection (why real image data breaks M=1)
    from fedtrap.datasets import Dataset

    rng = np.random.default_rng(0)
    images, labels = [], []
    for _ in range(1100):
        images.append(stroke_image(rng))
        labels.append(rng.integers(1, 11))
    source = Dataset(np.stack(images), np.array(labels, dtype=np.int64), "synthetic", 10)
    net = small_conv_net()
    false_positives = {1: 0, 4: 0}
    runs = 12
    for M in false_positives:
        for k in range(runs):
            draw = sample_run(source, 512, 0, seed=k)
            xs, ys = source.stacked(draw.rows)
            x_t, y_t = source.stacked([draw.target_id])
            outcome, _ = run_attack(net, xs, ys, (x_t[0], int(y_t[0])), M, 1e-3,
                                    ClientConfig(32, 16, 1, shuffle_seed=k),
                                    0.1, seed=1000 + k)
            false_positives[M] += outcome.decision
    assert false_positives[1] / runs > 0.5
    assert false_positives[4] == 0
