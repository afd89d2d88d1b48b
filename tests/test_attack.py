import numpy as np
import pytest

from fedtrap.attack import (AttackOutcome, DecisionConfig, DegenerateTrapError,
                            decide, decision_statistic, reference_eps, run_attack)
from fedtrap.datasets import normalize, sample_run, synth_dataset
from fedtrap.fedsim import ClientConfig
from fedtrap.network import small_conv_net
from fedtrap.optim import AdamConfig, SGDConfig
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
    cfg = ClientConfig(32, 1, 1, optimizer=SGDConfig(lr=1e-2))
    idx = epsilon_flat_index(net, spec)
    ref = reference_eps(net, theta, (x_t, y_t), cfg, idx)
    # the target self-triggers and the descent direction raises the margin:
    # step = -lr * (softmax_target - 1) ~= +lr * 0.9 for 10 classes
    assert ref > spec.epsilon
    assert ref - spec.epsilon == pytest.approx(1e-2 * 0.9, rel=0.01)


def test_reference_eps_adam_moves_by_about_lr():
    net, x_t, y_t, theta, spec = crafted_setup()
    cfg = ClientConfig(32, 1, 1, optimizer=AdamConfig(lr=1e-3))
    idx = epsilon_flat_index(net, spec)
    ref = reference_eps(net, theta, (x_t, y_t), cfg, idx)
    assert abs(ref - spec.epsilon) == pytest.approx(1e-3, rel=1e-3)
    assert ref > spec.epsilon


def test_reference_eps_non_triggering_sample_is_exact_fixed_point():
    net, x_t, y_t, theta, spec = crafted_setup()
    idx = epsilon_flat_index(net, spec)
    other = np.random.default_rng(1).uniform(-1, 1, size=(1, 14, 14)).astype(np.float32)
    for opt in (SGDConfig(), AdamConfig()):
        cfg = ClientConfig(32, 1, 1, optimizer=opt)
        assert reference_eps(net, theta, (other, y_t), cfg, idx) == theta[idx]


def test_reference_eps_rejects_bad_index():
    net, x_t, y_t, theta, _ = crafted_setup()
    cfg = ClientConfig(32, 1, 1)
    with pytest.raises(ValueError, match="index"):
        reference_eps(net, theta, (x_t, y_t), cfg, net.num_params() + 5)


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


# -- end-to-end ---------------------------------------------------------------------


def run_once(member: bool, opt=SGDConfig(), J=2, E=1, seed=123, M=4):
    source = normalize(synth_dataset(200, seed=seed))
    draw = sample_run(source, 64, int(member), seed=seed + 1)
    xs, ys = draw.training_set.stacked()
    net = small_conv_net()
    client_cfg = ClientConfig(32, J, E, optimizer=opt, shuffle_seed=seed + 2)
    outcome, spec = run_attack(net, xs, ys, (draw.target.image, draw.target.label),
                               M, 1e-3, client_cfg, DecisionConfig(), seed=seed + 3)
    return outcome, spec


def test_run_attack_member_is_detected():
    for opt in (SGDConfig(), AdamConfig()):
        outcome, _ = run_once(member=True, opt=opt)
        assert outcome.decision == 1
        assert outcome.delta >= 0.1
        assert outcome.eps_client != outcome.eps_initial


def test_run_attack_non_member_delta_is_exactly_zero():
    for opt in (SGDConfig(), AdamConfig()):
        outcome, _ = run_once(member=False, opt=opt)
        assert outcome.delta == 0.0
        assert outcome.decision == 0
        assert outcome.eps_client == outcome.eps_initial


def test_run_attack_duplicate_of_target_outside_draw_false_positives():
    # the documented failure mode: a byte-identical copy of the target hides
    # in the client data even though the target itself was not drawn
    source = normalize(synth_dataset(200, seed=9))
    draw = sample_run(source, 64, 0, seed=10)
    xs, ys = draw.training_set.stacked()
    xs = xs.copy()
    xs[5] = draw.target.image  # plant the duplicate
    net = small_conv_net()
    outcome, _ = run_attack(net, xs, ys, (draw.target.image, draw.target.label),
                            4, 1e-3, ClientConfig(32, 2, 1, shuffle_seed=1),
                            DecisionConfig(), seed=11)
    assert outcome.decision == 1


def test_outcome_invariants():
    outcome, _ = run_once(member=True)
    assert isinstance(outcome, AttackOutcome)
    assert outcome.delta >= 0
    assert outcome.decision == (1 if outcome.delta >= 0.1 else 0)
    assert outcome.eps_initial == pytest.approx(1e-3)


def stroke_image(rng):
    """Black canvas with a few textured rectangles, like handwritten-digit data."""
    img = np.zeros((1, 14, 14), dtype=np.float32)
    for _ in range(rng.integers(1, 3)):
        r, c = rng.integers(0, 10, size=2)
        h, w = rng.integers(2, 5, size=2)
        img[0, r:r + h, c:c + w] = rng.integers(180, 256, size=(h, w))
    return img


def test_single_matched_value_collapses_on_structured_images():
    # images sharing exactly-blank patches produce exactly equal feature
    # values, so a one-component trap fires for unrelated samples; four
    # components restore perfect rejection (why real image data breaks M=1)
    from fedtrap.datasets import Dataset, Sample

    rng = np.random.default_rng(0)
    samples = tuple(Sample(stroke_image(rng), int(rng.integers(1, 11)), i)
                    for i in range(1100))
    source = normalize(Dataset(samples, "synthetic", 10))
    net = small_conv_net()
    false_positives = {1: 0, 4: 0}
    runs = 12
    for M in false_positives:
        for k in range(runs):
            draw = sample_run(source, 512, 0, seed=k)
            xs, ys = draw.training_set.stacked()
            outcome, _ = run_attack(net, xs, ys,
                                    (draw.target.image, draw.target.label),
                                    M, 1e-3, ClientConfig(32, 16, 1, shuffle_seed=k),
                                    DecisionConfig(), seed=1000 + k)
            false_positives[M] += outcome.decision
    assert false_positives[1] / runs > 0.5
    assert false_positives[4] == 0
