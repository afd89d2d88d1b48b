import json

import numpy as np
import pytest

from fedtrap.cli import main as cli_main
from fedtrap.harness import (ExperimentConfig, MetricsReport, RunRecord,
                             compute_metrics, derive_seed, emit_results,
                             mann_whitney_auc, parse_results, run_experiment)


def record(run_id, t, delta, t_hat, seed=0):
    return RunRecord(run_id=run_id, member_flag=t, delta=delta, decision=t_hat,
                     wall_time=0.0, seed=seed)


# -- metrics ------------------------------------------------------------------


def test_metrics_perfect_separation():
    records = [record(i, 1, 1.0, 1) for i in range(5)]
    records += [record(5 + i, 0, 0.0, 0) for i in range(5)]
    rep = compute_metrics(records)
    assert (rep.fpr, rep.fnr, rep.accuracy, rep.auc) == (0.0, 0.0, 100.0, 1.0)
    assert rep.false_positives == 0 and rep.false_negatives == 0


def test_metrics_identical_distributions_auc_half():
    deltas = [0.3, 0.5, 0.7, 0.9]
    records = [record(i, 1, d, 1) for i, d in enumerate(deltas)]
    records += [record(10 + i, 0, d, 1) for i, d in enumerate(deltas)]
    assert compute_metrics(records).auc == 0.5


def test_metrics_hand_counted_confusion():
    # 5 negatives with 2 false positives, 5 positives with 1 false negative
    records = [record(i, 0, 0.5, 1) for i in range(2)]
    records += [record(2 + i, 0, 0.0, 0) for i in range(3)]
    records += [record(5, 1, 0.05, 0)]
    records += [record(6 + i, 1, 0.9, 1) for i in range(4)]
    rep = compute_metrics(records)
    assert rep.fpr == 40.0
    assert rep.fnr == 20.0
    assert rep.accuracy == 70.0
    assert rep.false_positives == 2 and rep.false_negatives == 1


def test_metrics_requires_both_classes():
    with pytest.raises(ValueError, match="AUC"):
        compute_metrics([record(0, 1, 1.0, 1), record(1, 1, 1.0, 1)])


@pytest.mark.parametrize("members,nonmembers", [([np.nan, 5.0], [0.0, 0.0]),
                                                ([1.0], [np.inf])])
def test_auc_rejects_non_finite_deltas(members, nonmembers):
    with pytest.raises(ValueError, match="finite"):
        mann_whitney_auc(members, nonmembers)


def test_auc_matches_sklearn_on_random_records():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = rng.integers(0, 2, size=40)
        if t.min() == t.max():
            continue
        deltas = np.round(rng.exponential(size=40), 2)  # rounding forces ties
        ours = mann_whitney_auc(deltas[t == 1], deltas[t == 0])
        theirs = sklearn_metrics.roc_auc_score(t, deltas)
        assert ours == pytest.approx(theirs, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(6)
    pos = rng.exponential(size=15)
    neg = rng.exponential(size=12)
    base = mann_whitney_auc(pos, neg)
    assert mann_whitney_auc(np.exp(pos), np.exp(neg)) == pytest.approx(base)
    assert mann_whitney_auc(10 + 2 * pos, 10 + 2 * neg) == pytest.approx(base)


# -- config -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="synthetic", num_batches=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="synthetic", runs=5)  # odd
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="imagenet")
    cfg = ExperimentConfig(dataset="synthetic", optimizer="adam")
    assert cfg.effective_lr == 1e-3
    assert cfg.echo()["lr_source"] == "assumed default"
    assert ExperimentConfig(dataset="synthetic", lr=0.5).echo()["lr_source"] == "user"


def test_full_scale_config_is_expressible():
    # the large-scale settings must validate even though CI never runs them
    cfg = ExperimentConfig(dataset="mnist", num_values=4, num_batches=256,
                           epochs=1, batch_size=32, runs=400, master_seed=1)
    assert cfg.num_samples == 8192
    assert cfg.runs == 400


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    seeds = {derive_seed(0, i) for i in range(100)}
    assert len(seeds) == 100


# -- experiment ------------------------------------------------------------------


def tiny_cfg(**kw):
    base = dict(dataset="synthetic", num_values=4, num_batches=1, epochs=1,
                batch_size=8, runs=4, master_seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def test_failed_run_reports_its_seed(monkeypatch):
    import fedtrap.harness as harness_mod

    def boom(*args, **kwargs):
        raise ValueError("teardown")

    monkeypatch.setattr(harness_mod, "run_attack", boom)
    with pytest.raises(RuntimeError, match=r"run 0 \(seed \d+\) failed"):
        run_experiment(tiny_cfg())


def test_run_experiment_smoke_and_determinism():
    records, report = run_experiment(tiny_cfg())
    records2, _ = run_experiment(tiny_cfg())
    assert [(r.run_id, r.member_flag, r.delta, r.decision, r.seed) for r in records] == \
        [(r.run_id, r.member_flag, r.delta, r.decision, r.seed) for r in records2]
    assert len(records) == 4
    assert {r.member_flag for r in records} == {0, 1}
    assert isinstance(report, MetricsReport)


def test_run_experiment_worker_pool_matches_serial():
    serial, _ = run_experiment(tiny_cfg())
    pooled, _ = run_experiment(tiny_cfg(workers=2))
    assert [(r.run_id, r.delta) for r in serial] == [(r.run_id, r.delta) for r in pooled]


def test_metric_identities_on_random_record_sets():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        t = rng.integers(0, 2, size=n)
        if t.min() == t.max():
            continue
        t_hat = rng.integers(0, 2, size=n)
        records = [record(i, int(t[i]), float(rng.uniform()), int(t_hat[i]))
                   for i in range(n)]
        rep = compute_metrics(records)
        fp = int(((t == 0) & (t_hat == 1)).sum())
        fn = int(((t == 1) & (t_hat == 0)).sum())
        assert rep.fpr == round(100 * fp / (t == 0).sum(), 2)
        assert rep.fnr == round(100 * fn / (t == 1).sum(), 2)
        assert rep.accuracy == round(100 - 100 * (fp + fn) / n, 2)


def test_desk_scale_experiment_runtime():
    import time
    started = time.perf_counter()
    _, report = run_experiment(ExperimentConfig(dataset="synthetic", num_values=4,
                                                num_batches=4, epochs=1, runs=40,
                                                master_seed=9))
    assert time.perf_counter() - started < 120.0
    assert (report.fpr, report.fnr, report.accuracy, report.auc) == \
        (0.0, 0.0, 100.0, 1.0)


def test_run_experiment_through_idx_files(tmp_path):
    # end-to-end over the mnist-format path: IDX pair on disk -> loader ->
    # 28x28 conv architecture -> attack runs
    from fedtrap.datasets import write_mnist_fixture

    rng = np.random.default_rng(11)
    write_mnist_fixture(tmp_path / "train-images-idx3-ubyte",
                        tmp_path / "train-labels-idx1-ubyte",
                        rng.integers(0, 256, size=(120, 28, 28), dtype=np.uint8),
                        rng.integers(0, 10, size=120, dtype=np.uint8))
    cfg = ExperimentConfig(dataset="mnist", num_values=4, num_batches=1,
                           epochs=1, batch_size=16, runs=4, master_seed=5,
                           data_dir=str(tmp_path))
    records, report = run_experiment(cfg)
    assert len(records) == 4
    assert report.accuracy == 100.0
    assert all(r.delta == 0.0 for r in records if r.member_flag == 0)


def test_emit_results_round_trip(tmp_path):
    cfg = tiny_cfg()
    records, report = run_experiment(cfg)
    out = tmp_path / "results.csv"
    emit_results(records, report, cfg, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("run_id,dataset,optimizer,M,J,E,B,epsilon,xi,seed,t,delta,t_hat")
    assert len(lines) == 1 + len(records)
    reparsed = parse_results(out)
    assert [(r.run_id, r.member_flag, r.delta, r.decision, r.seed) for r in reparsed] == \
        [(r.run_id, r.member_flag, r.delta, r.decision, r.seed) for r in records]
    summary = json.loads((tmp_path / "results.csv.summary.json").read_text())
    assert summary["metrics"]["accuracy"] == report.accuracy
    assert summary["config"]["lr_source"] == "assumed default"


def test_emit_results_empty_records(tmp_path):
    out = tmp_path / "empty.csv"
    emit_results([], None, tiny_cfg(), out)
    assert out.read_text().splitlines() == [",".join(
        ("run_id", "dataset", "optimizer", "M", "J", "E", "B",
         "epsilon", "xi", "seed", "t", "delta", "t_hat"))]


# -- CLI ---------------------------------------------------------------------------


def test_cli_experiment_smoke(tmp_path):
    out = tmp_path / "r.csv"
    code = cli_main(["experiment", "--dataset", "synthetic", "--M", "4", "--J", "1",
                     "--E", "1", "--B", "8", "--runs", "4", "--seed", "7",
                     "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "r.csv.summary.json").exists()


def test_cli_rejects_bad_config():
    assert cli_main(["experiment", "--J", "0", "--runs", "4"]) == 1
    assert cli_main(["experiment", "--runs", "5"]) == 1
    assert cli_main(["experiment", "--no-such-flag"]) == 1
    assert cli_main(["no-such-command"]) == 1


@pytest.mark.parametrize("command", ["experiment", "attack-one"])
def test_cli_configuration_errors_exit_1_in_every_subcommand(command, tmp_path, capsys):
    from fedtrap.datasets import write_mnist_fixture

    rng = np.random.default_rng(3)
    write_mnist_fixture(tmp_path / "train-images-idx3-ubyte",
                        tmp_path / "train-labels-idx1-ubyte",
                        rng.integers(0, 256, size=(40, 28, 28), dtype=np.uint8),
                        rng.integers(0, 10, size=40, dtype=np.uint8))
    assert cli_main([command, "--M", "100"]) == 1
    assert "too narrow" in capsys.readouterr().err
    # a 40-image pool cannot hold N = 64 training samples plus a target
    assert cli_main([command, "--dataset", "mnist", "--data-dir", str(tmp_path),
                     "--J", "2"]) == 1
    assert "has only 40 samples" in capsys.readouterr().err


def test_cli_attack_one_prints_outcome(capsys):
    code = cli_main(["attack-one", "--dataset", "synthetic", "--B", "8",
                     "--member", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "member_flag=1" in out and "delta=" in out


def test_cli_fixtures_then_dedup_finds_planted_pair(tmp_path, capsys):
    assert cli_main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code = cli_main(["dedup", "--format", "cifar100-fine",
                     "--train", str(tmp_path / "fixture_cifar100_train.bin"),
                     "--test", str(tmp_path / "fixture_cifar100_test.bin")])
    assert code == 0
    captured = capsys.readouterr()
    rows = [l for l in captured.out.splitlines() if l.startswith("within_train")]
    assert len(rows) == 1
    assert "within-train pairs: 1" in captured.err
    assert "cross-split images: 1" in captured.err


def test_cli_gradcheck_small(capsys):
    assert cli_main(["gradcheck", "--networks", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 2
