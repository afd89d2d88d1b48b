import ctypes
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from fedtrap import cli, harness
from fedtrap.cli import main as cli_main
from fedtrap.datasets import write_cifar_fixture
from fedtrap.harness import (ExperimentConfig, MetricsReport, RunRecord,
                             compute_metrics, derive_seed, emit_results,
                             mann_whitney_auc, parse_results, run_experiment)


def record(run_id, t, delta, t_hat, seed=0):
    return RunRecord(run_id=run_id, member_flag=t, delta=delta, decision=t_hat,
                     seed=seed)


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


@pytest.mark.parametrize("flags", [[1, 1], [0, 0], []])
def test_auc_and_metrics_reject_a_side_with_no_delta(flags):
    members = [1.0 for t in flags if t]
    nonmembers = [1.0 for t in flags if not t]
    with pytest.raises(ValueError, match="one member and one non-member"):
        mann_whitney_auc(members, nonmembers)
    with pytest.raises(ValueError, match="one member and one non-member"):
        compute_metrics([record(i, t, 1.0, t) for i, t in enumerate(flags)])


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


def test_auc_matches_scipy_mann_whitney_on_tied_random_sets():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    for _ in range(50):
        pos = rng.integers(0, 6, size=int(rng.integers(1, 30))) / 4  # heavy ties
        neg = rng.integers(0, 6, size=int(rng.integers(1, 30))) / 4
        u = stats.mannwhitneyu(pos, neg).statistic
        assert mann_whitney_auc(pos, neg) == u / (len(pos) * len(neg))


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
    with pytest.raises(ValueError, match="M must be >= 1"):
        ExperimentConfig(dataset="synthetic", num_values=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ExperimentConfig(dataset="synthetic", workers=0)
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
    # both paths return records in run-id order without sorting them
    assert [r.run_id for r in pooled] == list(range(len(pooled)))


def test_workers_reuse_the_parents_pool_and_network(monkeypatch):
    import fedtrap.harness as harness_mod

    parent = os.getpid()

    def parent_only(build):
        def wrapped(*args):
            if os.getpid() != parent:
                raise AssertionError(f"worker called {build.__name__}")
            return build(*args)
        return wrapped

    serial, _ = run_experiment(tiny_cfg())
    # forked workers see these patches, so a rebuild in a worker would raise
    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    monkeypatch.setattr(harness_mod, "build_source", parent_only(harness_mod.build_source))
    monkeypatch.setattr(harness_mod, "build_network", parent_only(harness_mod.build_network))
    pooled, _ = run_experiment(tiny_cfg(workers=2))
    assert pooled == serial


def test_spawned_workers_match_serial(monkeypatch):
    import fedtrap.harness as harness_mod

    # spawn pickles the pool and network once per worker instead of sharing pages
    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    pooled, _ = run_experiment(tiny_cfg(workers=2))
    serial, _ = run_experiment(tiny_cfg())
    assert pooled == serial


def openblas_threads(count=None):
    """This process's scipy-openblas thread count, after setting it to `count` if given."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    if count is not None:
        set_threads = lib.scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(count)
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


def test_workers_run_a_single_blas_thread():
    import fedtrap.harness as harness_mod

    if not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                   "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's BLAS is not scipy-openblas")
    before = openblas_threads()
    try:
        # a worker forked from a two-thread parent starts with two
        assert openblas_threads(2) == 2
        cfg = tiny_cfg(workers=2)
        source = harness_mod.build_source(cfg)
        net = harness_mod.build_network(cfg, source)
        with ProcessPoolExecutor(max_workers=1, initializer=harness_mod._worker_init,
                                 initargs=(net, source, cfg)) as pool:
            assert pool.submit(openblas_threads).result(timeout=120) == 1
        assert openblas_threads() == 2
    finally:
        openblas_threads(before)


def test_worker_pool_is_no_larger_than_the_run_count(monkeypatch):
    import fedtrap.harness as harness_mod

    started = []

    class InlinePool:
        """Records the pool size and runs the workers' calls in this process."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness_mod, "_WORKER", {})
    # the fake runs the initializer here; keep this process's BLAS threads
    monkeypatch.setattr(harness_mod, "_single_blas_thread", lambda: None)
    cfg = tiny_cfg(workers=1000)
    pooled, _ = run_experiment(cfg)
    assert started == [cfg.runs]
    assert cfg.echo()["workers"] == 1000
    serial, _ = run_experiment(tiny_cfg())
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
    # non-finite or non-positive numbers are configuration errors, not failed runs
    for flag, value in [("--xi", "nan"), ("--xi", "inf"), ("--lr", "0"), ("--lr", "-1"),
                        ("--lr", "nan"), ("--eps", "nan"), ("--eps", "inf")]:
        assert cli_main([command, "--B", "8", flag, value]) == 1, (flag, value)
        assert capsys.readouterr().err.startswith("error: ")
    # a negative number in scientific notation is a value, not a flag
    for flag, value in [("--lr", "-1e-3"), ("--eps", "-1e-3")]:
        assert cli_main([command, "--B", "8", flag, value]) == 1, (flag, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite and positive" in err, (flag, err)
    # a value that rounds to infinity or zero in the network's float32 is a bad value
    for flag, value, name in [("--eps", "1e39", "epsilon"), ("--lr", "1e39", "lr"),
                              ("--eps", "1e-46", "epsilon"), ("--lr", "1e-46", "lr")]:
        assert cli_main([command, "--B", "8", flag, value]) == 1, (flag, value)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} ") and "in float32" in err, (flag, err)
    # a negative master seed names its flag instead of failing inside numpy
    assert cli_main([command, "--B", "8", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_cli_dedup_and_gradcheck_configuration_errors_exit_1(capsys):
    # a path the chosen --format needs is missing: the message names the flag
    for argv, flag in [(["dedup"], "--train"),
                       (["dedup", "--format", "cifar10", "--train", "x.bin"], "--test"),
                       (["dedup", "--format", "mnist", "--train-images", "i",
                         "--train-labels", "l", "--test-images", "j"], "--test-labels")]:
        assert cli_main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"needs {flag}" in err, argv
    for networks in ("0", "-1"):
        assert cli_main(["gradcheck", "--networks", networks]) == 1
        assert "--networks must be >= 1" in capsys.readouterr().err
    assert cli_main(["gradcheck", "--networks", "1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_cli_paths_that_cannot_be_opened_exit_1(tmp_path, capsys, monkeypatch):
    """A missing file, a directory, a file used as a directory or a denied
    path is a configuration error, not a failed run."""
    assert cli_main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    test_bin = str(tmp_path / "fixture_cifar100_test.bin")
    for train, kind in [(tmp_path / "missing.bin", "No such file"),
                        (tmp_path, "Is a directory"),
                        (tmp_path / "fixture_cifar10.bin" / "x", "Not a directory")]:
        argv = ["dedup", "--format", "cifar100-fine", "--train", str(train), "--test", test_bin]
        assert cli_main(argv) == 1, kind
        err = capsys.readouterr().err
        assert err.startswith("error: ") and kind in err, err
    # an output directory that is a regular file
    assert cli_main(["fixtures", "--out-dir", test_bin]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err, err
    # an output that cannot be written fails before the first run
    runs = []
    execute_run = harness.execute_run
    monkeypatch.setattr(harness, "execute_run",
                        lambda *args: runs.append(args[-1]) or execute_run(*args))
    (tmp_path / "taken.csv.summary.json").mkdir()
    argv = ["experiment", "--dataset", "synthetic", "--M", "4", "--B", "8", "--runs", "2"]
    for out, kind in [(tmp_path, "Is a directory"),
                      (tmp_path / "fixture_cifar10.bin" / "results.csv", "Not a directory"),
                      (tmp_path / "taken.csv", "Is a directory")]:
        assert cli_main([*argv, "--out", str(out)]) == 1, kind
        err = capsys.readouterr().err
        assert err.startswith("error: ") and kind in err, err
        assert runs == [], kind
    assert not (tmp_path / "taken.csv").exists()
    assert cli_main([*argv, "--out", str(tmp_path / "new" / "results.csv")]) == 0
    assert runs == [0, 1]

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "load_cifar", denied)
    assert cli_main(["dedup", "--format", "cifar100-fine", "--train", test_bin,
                     "--test", test_bin]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    # the child imports fedtrap from this checkout even when it is not installed
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    argv = ["attack-one", "--dataset", "synthetic", "--B", "8", "--seed", "1"]
    out = subprocess.run([sys.executable, "-m", "fedtrap", *argv], cwd=tmp_path,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert cli_main(argv) == 0
    assert out.stdout == capsys.readouterr().out


def test_cli_attack_one_prints_outcome(capsys):
    code = cli_main(["attack-one", "--dataset", "synthetic", "--B", "8",
                     "--member", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "member_flag=1" in out and "delta=" in out


def test_cli_attack_one_on_a_cifar10_batch_file(tmp_path, capsys):
    """`--dataset cifar10` reads `cifar-10-batches-bin/data_batch_1.bin` under
    `--data-dir`: a member is detected and a non-member's Delta is exactly 0."""
    rng = np.random.default_rng(10)
    (tmp_path / "cifar-10-batches-bin").mkdir()
    write_cifar_fixture(tmp_path / "cifar-10-batches-bin" / "data_batch_1.bin",
                        rng.integers(0, 256, size=(40, 3, 32, 32), dtype=np.uint8),
                        fine_labels=rng.integers(0, 10, size=40))
    for seed in ["1", "2", "3"]:
        for flag, expected in [("--member", "member_flag=1 delta=0.99"),
                               ("--non-member", "member_flag=0 delta=0.0 decision=0")]:
            assert cli_main(["attack-one", "--dataset", "cifar10", "--data-dir", str(tmp_path),
                             "--B", "8", flag, "--seed", seed]) == 0
            out = capsys.readouterr().out
            assert out.startswith(expected), (seed, out)
            assert f"decision={int(flag == '--member')}" in out


def test_cli_client_that_overflowed_is_a_runtime_error(capsys):
    """Adam at lr 1e38 drives two final biases of this non-member run's reply
    to -inf while the margin stays put; that must not read as Delta = 0."""
    argv = ["attack-one", "--dataset", "synthetic", "--B", "8", "--J", "4", "--E", "2",
            "--opt", "adam", "--lr", "1e38", "--seed", "5", "--non-member"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("runtime error: ") and "non-finite" in captured.err


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


DEDUP_HEADER = "kind,train_id,other_id,label_a,label_b"
FIXTURE_DEDUP = {
    # cifar100-fine: a within-train pair (train rows 1 and 3) and train row 0
    # shared with test row 2; labels are the CIFAR-100 fine names
    "cifar100-fine": (
        ["--train", "fixture_cifar100_train.bin", "--test", "fixture_cifar100_test.bin"],
        ["within_train,1,3,beaver,bed", "cross_split,0,2,aquarium_fish,aquarium_fish"],
        "within-train pairs: 1 (1 with differing labels); "
        "cross-split images: 1 (0 with differing labels)"),
    # the one-file formats are scanned against themselves: every row is its
    # own cross-split copy
    "cifar10": (
        ["--train", "fixture_cifar10.bin", "--test", "fixture_cifar10.bin"],
        ["cross_split,0,0,2,2", "cross_split,1,1,9,9"],
        "within-train pairs: 0 (0 with differing labels); "
        "cross-split images: 2 (0 with differing labels)"),
    "mnist": (
        ["--train-images", "fixture-images-idx3-ubyte",
         "--train-labels", "fixture-labels-idx1-ubyte",
         "--test-images", "fixture-images-idx3-ubyte",
         "--test-labels", "fixture-labels-idx1-ubyte"],
        [f"cross_split,{i},{i},{label},{label}" for i, label in enumerate([1, 4, 8, 10])],
        "within-train pairs: 0 (0 with differing labels); "
        "cross-split images: 4 (0 with differing labels)"),
}


@pytest.mark.parametrize("fmt", sorted(FIXTURE_DEDUP))
def test_cli_dedup_on_fixtures_pins_csv_and_summary(fmt, tmp_path, capsys):
    assert cli_main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    paths, rows, summary = FIXTURE_DEDUP[fmt]
    argv = [a if a.startswith("--") else str(tmp_path / a) for a in paths]
    assert cli_main(["dedup", "--format", fmt, *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n".join([DEDUP_HEADER, *rows]) + "\n"
    assert captured.err == summary + "\n"
    # --out writes the same bytes to a file
    out = tmp_path / "dedup.csv"
    assert cli_main(["dedup", "--format", fmt, *argv, "--out", str(out)]) == 0
    assert out.read_text() == captured.out


def test_cli_gradcheck_small(capsys):
    assert cli_main(["gradcheck", "--networks", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 2
