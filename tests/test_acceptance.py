"""Acceptance suite: one test per exit criterion.

Each test prints a single `criterion N [...]: PASS/FAIL` line (run pytest
with -s to see them live). Criteria that need the real MNIST/CIFAR-100
files look under $FEDTRAP_DATA_DIR (default ./data) and skip with an
explicit reason when the files are absent; everything else runs on
synthetic data and is self-contained.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fedtrap.attack import decision_statistic, reference_eps, run_attack
from fedtrap.cli import build_parser
from fedtrap.datasets import (Dataset, find_exact_duplicates, load_cifar, sample_run,
                              synth_dataset)
from fedtrap.fedsim import ClientConfig, client_train
from fedtrap.harness import ExperimentConfig, run_experiment
from fedtrap.network import dense_net, small_conv_net
from fedtrap.optim import DEFAULT_LR, sgd_step
from fedtrap.trap import craft_parameters, epsilon_flat_index
from fedtrap.verify import run_gradient_check_suite
from oracles import forward, logit_grad, trap_eps_grad_oracle, trap_output_oracle

DATA_DIR = Path(os.environ.get("FEDTRAP_DATA_DIR", "data"))
MASTER_SEED = 20240


@contextmanager
def criterion(number, label):
    try:
        yield
    except pytest.skip.Exception:
        print(f"criterion {number:2d} [{label}]: SKIP")
        raise
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    else:
        print(f"criterion {number:2d} [{label}]: PASS")


def mnist_paths():
    return (DATA_DIR / "train-images-idx3-ubyte",
            DATA_DIR / "train-labels-idx1-ubyte")


def mnist_available():
    return all(p.exists() for p in mnist_paths())


def cifar100_paths():
    return (DATA_DIR / "cifar-100-binary" / "train.bin",
            DATA_DIR / "cifar-100-binary" / "test.bin")


def cifar100_available():
    return all(p.exists() for p in cifar100_paths())


# -- shared desk-scale experiment grid ------------------------------------------


_GRID_CACHE = {}


def desk_grid(dataset, num_values=4, optimizers=("sgd", "adam"),
              epochs=(1, 2)):
    """All (optimizer, J, E) runs for one dataset at the desk scale."""
    key = (dataset, num_values, optimizers, epochs)
    if key not in _GRID_CACHE:
        out = {}
        for opt in optimizers:
            for J in (1, 16):
                for E in epochs:
                    cfg = ExperimentConfig(
                        dataset=dataset, num_values=num_values, num_batches=J,
                        epochs=E, optimizer=opt, runs=40, master_seed=MASTER_SEED,
                        data_dir=str(DATA_DIR))
                    out[(opt, J, E)] = run_experiment(cfg)
        _GRID_CACHE[key] = out
    return _GRID_CACHE[key]


# -- criteria --------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness vs central differences"):
        started = time.perf_counter()
        results = run_gradient_check_suite(num_networks=20, seed=MASTER_SEED)
        elapsed = time.perf_counter() - started
        assert len(results) == 20
        for r in results:
            assert r.num_params <= 2000
            assert r.passed, f"max relative error {r.max_rel_error}"
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_closed_form_equivalence():
    with criterion(2, "trap output and margin derivative match closed forms"):
        rng = np.random.default_rng(MASTER_SEED)
        net = dense_net(12, (24, 16), 10, dtype=np.float64)
        checked = triggered = 0
        while checked < 1000:
            m = int(rng.integers(1, 9))
            x_t = rng.normal(size=12)
            eps = float(rng.uniform(1e-3, 0.5))
            y_t = int(rng.integers(1, 11))
            theta, spec = craft_parameters(net, (x_t, y_t), m, eps,
                                           seed=int(rng.integers(2 ** 31)))
            work = net.with_params(theta)
            x = x_t + rng.normal(scale=rng.choice([1e-4, 0.03, 0.5]), size=12)
            a = x[list(spec.component_indices)]
            deviation = float(np.abs(a - np.array(spec.etas)).sum())
            logit = forward(work, x)[y_t - 1]
            assert logit - (-1.0) == pytest.approx(
                trap_output_oracle(a, spec.etas, eps), abs=1e-10)
            if abs(deviation - eps) > 1e-9:
                indicator = trap_eps_grad_oracle(a, spec.etas, eps)
                got = logit_grad(work, x, y_t - 1)[epsilon_flat_index(net)]
                assert got == indicator
                triggered += indicator
            checked += 1
        assert triggered > 100 and triggered < 900  # both branches exercised


def test_criterion_3_gradient_zeroing_under_training():
    with criterion(3, "non-triggering training leaves the trap bit-identical"):
        net = small_conv_net()
        rng = np.random.default_rng(MASTER_SEED + 1)
        x_t = rng.uniform(-1, 1, size=(1, 14, 14)).astype(np.float32)
        theta, spec = craft_parameters(net, (x_t, 5), 4, 1e-3, seed=77)
        eps_idx = epsilon_flat_index(net)
        final_bias = net.layout.slice_of(net.head_linear_indices()[2], "bias")
        mask = np.ones(net.layout.total, dtype=bool)
        mask[final_bias] = False
        probe = net.with_params(theta)
        etas32 = np.array(spec.etas, dtype=np.float32)
        ref_cfg = ClientConfig(1, 1, 1, optimizer="sgd")
        eps_ref = reference_eps(net, theta, (x_t, 5), ref_cfg)

        batches = 0
        while batches < 100:
            xs = rng.uniform(-1, 1, size=(16, 1, 14, 14)).astype(np.float32)
            feats = probe.forward_features(xs)[:, list(spec.component_indices)]
            if (np.abs(feats - etas32).sum(axis=1) <= spec.epsilon).any():
                continue  # astronomically unlikely; resample to keep the premise
            ys = rng.integers(1, 11, size=16)
            epochs = (1, 2, 4)[batches % 3]
            for opt in ("sgd", "adam"):
                cfg = ClientConfig(8, 2, epochs, optimizer=opt,
                                   shuffle_seed=batches)
                phi = client_train(net, theta, xs, ys, cfg)
                assert np.array_equal(phi[mask], theta[mask])
                assert phi[eps_idx] == theta[eps_idx]
                assert decision_statistic(theta[eps_idx], phi[eps_idx],
                                          eps_ref, 8) == 0.0
            batches += 1


def check_perfect_grid(grid):
    for (opt, J, E), (records, report) in grid.items():
        label = f"{opt} J={J} E={E}"
        assert report.fpr == 0.00, f"{label}: FPR {report.fpr}"
        assert report.fnr == 0.00, f"{label}: FNR {report.fnr}"
        assert report.accuracy == 100.00, f"{label}: Acc {report.accuracy}"
        assert report.auc == 1.00, f"{label}: AUC {report.auc}"
        assert all(r.delta == 0.0 for r in records if r.member_flag == 0), \
            f"{label}: non-member delta not exactly zero"


def test_criterion_4_perfect_accuracy_desk_scale():
    with criterion(4, "perfect accuracy at desk scale (M=4 grid)"):
        started = time.perf_counter()
        check_perfect_grid(desk_grid("synthetic"))
        if mnist_available():
            check_perfect_grid(desk_grid("mnist"))
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"grid took {elapsed:.0f}s"
        if not mnist_available():
            print("criterion 4 detail: all 8 synthetic experiments exactly "
                  "0.00/0.00/100.00/1.00; MNIST half needs the IDX files")
            pytest.skip(f"MNIST files absent from {DATA_DIR}; synthetic half "
                        "passed, MNIST half did not run")


def member_deltas(grid, only=None):
    out = []
    for key, (records, _) in grid.items():
        if only is None or key in only:
            out += [r.delta for r in records if r.member_flag == 1]
    return out


def test_criterion_5_member_margin():
    with criterion(5, "every member run clears the decision threshold"):
        deltas = member_deltas(desk_grid("synthetic"))
        if mnist_available():
            deltas += member_deltas(desk_grid("mnist"))
        assert len(deltas) >= 160
        assert min(deltas) >= 0.1, f"min member delta {min(deltas)}"


def test_criterion_6_more_matched_values_strengthen_the_margin():
    with criterion(6, "M=8 member margin"):
        sgd_e1 = (("sgd", 1, 1), ("sgd", 16, 1))
        # Some targets have fewer than 8 nonzero feature components, so
        # crafting matches a zero value and warns. That is the case this
        # criterion measures, so the warning is expected, not a fault.
        with pytest.warns(UserWarning, match="fewer nonzero feature components"):
            m8 = member_deltas(desk_grid("synthetic", num_values=8,
                                         optimizers=("sgd",), epochs=(1,)),
                               only=sgd_e1)
            if mnist_available():
                m8 += member_deltas(desk_grid("mnist", num_values=8,
                                              optimizers=("sgd",), epochs=(1,)),
                                    only=sgd_e1)
        primary = min(m8) >= 1.00 - 1e-3
        if primary:
            print(f"criterion 6 outcome: primary bound holds "
                  f"(min member delta at M=8 is {min(m8):.6f} >= 0.999)")
        else:
            m4 = member_deltas(desk_grid("synthetic"), only=sgd_e1)
            if mnist_available():
                m4 += member_deltas(desk_grid("mnist"), only=sgd_e1)
            print(f"criterion 6 outcome: fallback ordering "
                  f"(min at M=8 {min(m8):.6f} >= min at M=4 {min(m4):.6f})")
            assert min(m8) >= min(m4)


def test_criterion_7_single_matched_value_collapses():
    with criterion(7, "M=1 degrades to heavy false positives on MNIST"):
        if not mnist_available():
            pytest.skip(f"MNIST files absent from {DATA_DIR}; the collapse "
                        "relies on real-data feature collisions")
        cfg = ExperimentConfig(dataset="mnist", num_values=1, num_batches=16,
                               epochs=1, optimizer="sgd", runs=40,
                               master_seed=MASTER_SEED, data_dir=str(DATA_DIR))
        _, report = run_experiment(cfg)
        assert report.fpr > 50.0, f"FPR {report.fpr}"


def test_criterion_8_single_step_special_case():
    with criterion(8, "E=1 J=1 is exactly one SGD step and yields delta 1"):
        # 64-bit: the client pass IS one SGD step on the batch-mean gradient
        net64 = small_conv_net(dtype=np.float64)
        net64.init_random(MASTER_SEED)
        theta = net64.params
        rng = np.random.default_rng(MASTER_SEED)
        xs = rng.uniform(-1, 1, size=(32, 1, 14, 14))
        ys = rng.integers(1, 11, size=32)
        lr = DEFAULT_LR["sgd"]
        # the gradient over the client's one-epoch order
        order = np.random.default_rng(0).permutation(32)
        work = net64.with_params(theta)
        grad = work.backward(xs[order], ys[order])
        phi = client_train(net64, theta, xs, ys, ClientConfig(32, 1, 1, lr=lr, shuffle_seed=0))
        expected = theta.copy()
        sgd_step(expected, grad, lr)
        assert np.array_equal(phi, expected)
        # the literal delta form is exact up to the single rounding of
        # theta - lr*grad, i.e. one ulp of theta per component
        slack = np.spacing(np.abs(theta))
        assert (np.abs((theta - phi) - lr * grad) <= slack).all()
        assert np.array_equal((theta - phi)[grad == 0], np.zeros((grad == 0).sum()))

        # synthetic run with exactly one triggering sample in one batch
        source = synth_dataset(200, seed=MASTER_SEED + 2)
        draw = sample_run(source, 32, 1, seed=MASTER_SEED + 3)
        xs, ys = source.stacked(draw.rows)
        x_t, y_t = source.stacked([draw.target_id])
        target = (x_t[0], int(y_t[0]))
        net = small_conv_net()
        outcome, spec = run_attack(net, xs, ys, target, 4, 1e-3,
                                   ClientConfig(32, 1, 1, optimizer="sgd"),
                                   0.1, seed=MASTER_SEED + 4)
        theta_trap, _ = craft_parameters(net, target, 4, 1e-3, seed=MASTER_SEED + 4)
        probe = net.with_params(theta_trap)
        feats = probe.forward_features(xs)[:, list(spec.component_indices)]
        devs = np.abs(feats - np.array(spec.etas, np.float32)).sum(axis=1)
        assert int((devs <= spec.epsilon).sum()) == 1
        assert outcome.delta == pytest.approx(1.0, abs=1e-6)


def test_criterion_9_duplicate_scanner():
    if cifar100_available():
        with criterion(9, "CIFAR-100 exact duplicates"):
            train = load_cifar(cifar100_paths()[0], "cifar100-fine", split="train")
            test = load_cifar(cifar100_paths()[1], "cifar100-fine", split="test")
            report = find_exact_duplicates(train, test)
            pairs = report.within_train_pairs()
            assert len(pairs) == 14
            assert len(report.mismatched_within) == 9
            assert report.cross_images == 10
            assert len(report.mismatched_cross) == 6
            assert (4348, 30931) in pairs
            assert train.label_name(int(train.labels[4348])) == "aquarium_fish"
            assert train.label_name(int(train.labels[30931])) == "aquarium_fish"
    else:
        with criterion(9, "duplicate scanner (planted substitute; CIFAR-100 absent)"):
            rng = np.random.default_rng(MASTER_SEED)
            imgs = rng.integers(0, 256, size=(40, 3, 32, 32)).astype(np.uint8)
            imgs[31] = imgs[7]   # within-train pair, different labels below
            labels = list(rng.integers(1, 101, size=40))
            labels[7], labels[31] = 12, 57
            labels = np.array(labels, dtype=np.int64)
            train = Dataset(imgs, labels, "train", 100)
            test_imgs = rng.integers(0, 256, size=(10, 3, 32, 32)).astype(np.uint8)
            test_imgs[4] = imgs[20]
            test = Dataset(test_imgs, labels[:10], "test", 100)
            report = find_exact_duplicates(train, test)
            assert report.within_train_pairs() == [(7, 31)]
            assert report.mismatched_within == ((7, 31),)
            assert report.cross_split == ((20, 4),)
            assert report.cross_images == 1


def test_criterion_10_full_scale_path_is_runnable():
    with criterion(10, "full-scale replication settings are expressible"):
        for J in (1, 4, 16, 64, 128, 256):
            cfg = ExperimentConfig(dataset="mnist", num_values=4, num_batches=J,
                                   epochs=1, batch_size=32, runs=400,
                                   master_seed=1)
            assert cfg.num_samples == 32 * J
        args = build_parser().parse_args(
            ["experiment", "--dataset", "mnist", "--M", "4", "--J", "256",
             "--E", "1", "--runs", "400", "--seed", "1", "--out", "full.csv"])
        assert args.J == 256 and args.runs == 400
        for E in (1, 2, 4):
            ExperimentConfig(dataset="mnist", num_batches=128, epochs=E, runs=400)
