"""Command-line entry point.

Subcommands: experiment (many seeded runs -> CSV + summary), attack-one
(single run, prints the outcome), dedup (exact-duplicate scan -> CSV),
gradcheck (finite-difference suite), fixtures (tiny files in the real
binary formats). Exit codes: 0 ok, 1 configuration error (also a path
that is missing, a directory, not a directory or not permitted), 2
runtime error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import harness
from .datasets import (duplicate_report_rows, find_exact_duplicates, load_cifar,
                       load_mnist_idx, write_cifar_fixture, write_mnist_fixture)
from .verify import run_gradient_check_suite


class _Parser(argparse.ArgumentParser):
    """Reads every dash-digit token as a value: argparse before Python 3.13
    takes `-1e-3` for a flag, so `--lr -1e-3` never reached its range check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="synthetic",
                   choices=["mnist", "cifar10", "cifar100", "synthetic"])
    p.add_argument("--M", type=int, default=4, help="number of matched values")
    p.add_argument("--J", type=int, default=1, help="mini-batches per epoch")
    p.add_argument("--E", type=int, default=1, help="epochs")
    p.add_argument("--B", type=int, default=32, help="batch size")
    p.add_argument("--opt", default="sgd", choices=["sgd", "adam"])
    p.add_argument("--lr", type=float, default=None,
                   help="learning rate (default: optimizer's standard value)")
    p.add_argument("--eps", type=float, default=1e-3, help="trap margin")
    p.add_argument("--xi", type=float, default=0.1, help="decision threshold")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--data-dir", default=None, help="directory with dataset files")


def _experiment_config(args, runs: int, workers: int = 1) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        dataset=args.dataset, num_values=args.M, num_batches=args.J,
        epochs=args.E, batch_size=args.B, optimizer=args.opt, lr=args.lr,
        epsilon=args.eps, threshold=args.xi, runs=runs,
        master_seed=args.seed, data_dir=args.data_dir, workers=workers)


def cmd_experiment(args) -> int:
    cfg = _experiment_config(args, runs=args.runs, workers=args.workers)
    harness.check_outputs_writable(args.out)
    records, report = harness.run_experiment(cfg)
    harness.emit_results(records, report, cfg, args.out)
    print(f"wrote {len(records)} runs to {args.out}")
    print(f"FPR={report.fpr:.2f} FNR={report.fnr:.2f} "
          f"Acc={report.accuracy:.2f} AUC={report.auc:.2f}")
    return 0


def cmd_attack_one(args) -> int:
    cfg = _experiment_config(args, runs=2)
    source = harness.build_source(cfg)
    net = harness.build_network(cfg, source)
    record = harness.execute_run(net, source, cfg, run_id=0 if args.member else 1)
    print(f"member_flag={record.member_flag} delta={record.delta!r} "
          f"decision={record.decision} seed={record.seed}")
    return 0


def cmd_dedup(args) -> int:
    needed = (("train_images", "train_labels", "test_images", "test_labels")
              if args.format == "mnist" else ("train", "test"))
    if missing := [name for name in needed if getattr(args, name) is None]:
        raise ValueError(f"--format {args.format} needs --{missing[0].replace('_', '-')}")
    if args.format == "mnist":
        train = load_mnist_idx(args.train_images, args.train_labels, split="train")
        test = load_mnist_idx(args.test_images, args.test_labels, split="test")
    else:
        train = load_cifar(args.train, args.format, split="train")
        test = load_cifar(args.test, args.format, split="test")
    report = find_exact_duplicates(train, test)
    rows = duplicate_report_rows(report, train, test)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        print("kind,train_id,other_id,label_a,label_b", file=out)
        for row in rows:
            print(",".join(str(v) for v in row), file=out)
    finally:
        if args.out:
            out.close()
    print(f"within-train pairs: {len(report.within_train_pairs())} "
          f"({len(report.mismatched_within)} with differing labels); "
          f"cross-split images: {report.cross_images} "
          f"({len(report.mismatched_cross)} with differing labels)",
          file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    if args.networks < 1:
        raise ValueError("--networks must be >= 1")
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    results = run_gradient_check_suite(args.networks, seed=args.seed)
    ok = True
    for i, r in enumerate(results):
        status = "ok" if r.passed else "FAIL"
        print(f"net {i:2d}: {r.num_params:5d} params  "
              f"max rel err {r.max_rel_error:.3e}  {status}")
        ok &= r.passed
    return 0 if ok else 2


def cmd_fixtures(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)

    mnist_imgs = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
    mnist_lbls = np.array([0, 3, 7, 9], dtype=np.uint8)
    write_mnist_fixture(out / "fixture-images-idx3-ubyte",
                        out / "fixture-labels-idx1-ubyte", mnist_imgs, mnist_lbls)

    c10_imgs = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
    write_cifar_fixture(out / "fixture_cifar10.bin", c10_imgs,
                        fine_labels=np.array([1, 8], dtype=np.uint8))

    # cifar100-format train/test pair with a planted within-train duplicate
    # (different labels) and one image shared across the splits
    c100_train = rng.integers(0, 256, size=(5, 3, 32, 32), dtype=np.uint8)
    c100_train[3] = c100_train[1]
    c100_test = rng.integers(0, 256, size=(3, 3, 32, 32), dtype=np.uint8)
    c100_test[2] = c100_train[0]
    write_cifar_fixture(out / "fixture_cifar100_train.bin", c100_train,
                        fine_labels=np.array([1, 4, 9, 5, 2], dtype=np.uint8),
                        coarse_labels=np.zeros(5, dtype=np.uint8))
    write_cifar_fixture(out / "fixture_cifar100_test.bin", c100_test,
                        fine_labels=np.array([6, 7, 1], dtype=np.uint8),
                        coarse_labels=np.zeros(3, dtype=np.uint8))
    for name in ("fixture-images-idx3-ubyte", "fixture-labels-idx1-ubyte",
                 "fixture_cifar10.bin", "fixture_cifar100_train.bin",
                 "fixture_cifar100_test.bin"):
        print(out / name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedtrap",
                     description="Trap-network membership-inference laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="run many seeded attack runs")
    _add_experiment_flags(p)
    p.add_argument("--runs", type=int, default=40)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="results.csv")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("attack-one", help="run a single attack and print the outcome")
    _add_experiment_flags(p)
    member = p.add_mutually_exclusive_group()
    member.add_argument("--member", dest="member", action="store_true", default=True)
    member.add_argument("--non-member", dest="member", action="store_false")
    p.set_defaults(func=cmd_attack_one)

    p = sub.add_parser("dedup", help="scan for byte-identical images")
    p.add_argument("--format", default="cifar100-fine",
                   choices=["cifar10", "cifar100-fine", "mnist"])
    p.add_argument("--train", help="train .bin (cifar formats)")
    p.add_argument("--test", help="test .bin (cifar formats)")
    p.add_argument("--train-images", help="train images idx file (mnist format)")
    p.add_argument("--train-labels", help="train labels idx file (mnist format)")
    p.add_argument("--test-images", help="test images idx file (mnist format)")
    p.add_argument("--test-labels", help="test labels idx file (mnist format)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--networks", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fixtures", help="write tiny parser fixtures")
    p.add_argument("--out-dir", default="fixtures")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the documented config-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
