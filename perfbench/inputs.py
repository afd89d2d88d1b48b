"""Seeded benchmark inputs in the real MNIST (IDX) and CIFAR-100 binary formats.

Images are uniform random bytes, so two images are byte-identical only
where a duplicate was planted. The planted ids and labels come from
`plan_duplicates`, which draws them from the seed alone, so the expected
duplicate report is known without reading the files back.

The files are written by a separate process (`python -m perfbench.inputs
<spec>`), so generation never counts toward the measuring process's peak
memory.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedtrap.datasets import write_cifar_fixture, write_mnist_fixture

# CIFAR-100 counts the paper reports: 14 within-train pairs (9 with
# differing labels) and 10 images shared with the test split (6 with
# differing labels).
CIFAR_PLANT = dict(within_pairs=14, within_mismatched=9, cross=10, cross_mismatched=6)
# The MNIST train file is also the attack pool. A non-member target whose
# twin sits in the drawn training set would fire the trap, so the pool
# carries no within-train duplicates; only test images copy train images.
MNIST_PLANT = dict(within_pairs=0, within_mismatched=0, cross=10, cross_mismatched=6)

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
CIFAR_SCAN_FILES = ("cifar-100-binary/train.bin", "cifar-100-binary/test.bin")
# harness.build_source reads <data_dir>/cifar-100-binary/train.bin
CIFAR_POOL_DIR = "pool"


@dataclass(frozen=True)
class Sizes:
    """Record counts of every generated file."""

    mnist_train: int
    mnist_test: int
    cifar_train: int
    cifar_test: int
    cifar_pool: int


@dataclass(frozen=True)
class Plan:
    """Planted duplicates; labels are the raw bytes written to the files."""

    within: tuple[tuple[tuple[int, int], ...], ...]   # groups of (train_id, label)
    cross: tuple[tuple[int, int, int, int], ...]      # (train_id, test_id, train_label, test_label)


def plan_duplicates(seed: int, num_train: int, num_test: int, num_classes: int,
                    within_pairs: int, within_mismatched: int, cross: int,
                    cross_mismatched: int) -> Plan:
    """Distinct train ids for every planted image, so no cross pair multiplies."""
    rng = np.random.default_rng([seed, 1])
    train_ids = [int(i) for i in rng.choice(num_train, 2 * within_pairs + cross, replace=False)]
    test_ids = [int(i) for i in rng.choice(num_test, cross, replace=False)]
    labels = [int(v) for v in rng.integers(0, num_classes, 2 * within_pairs + cross)]

    def other(label: int) -> int:
        return (label + 1) % num_classes

    within = []
    for p in range(within_pairs):
        a, b = train_ids[2 * p], train_ids[2 * p + 1]
        la = labels[2 * p]
        within.append(((a, la), (b, other(la) if p < within_mismatched else la)))
    crossed = []
    for c in range(cross):
        a, la = train_ids[2 * within_pairs + c], labels[2 * within_pairs + c]
        crossed.append((a, test_ids[c], la, other(la) if c < cross_mismatched else la))
    return Plan(within=tuple(within), cross=tuple(crossed))


def expected_report(plan: Plan) -> dict:
    """The DuplicateReport fields find_exact_duplicates must return for `plan`."""
    groups = [tuple(sorted(i for i, _ in g)) for g in plan.within]
    mism = [tuple(sorted(i for i, _ in g)) for g in plan.within
            if len({label for _, label in g}) > 1]
    return {
        "within_train": tuple(sorted(groups)),
        "cross_split": tuple(sorted((a, b) for a, b, _, _ in plan.cross)),
        "mismatched_within": tuple(sorted(mism)),
        "mismatched_cross": tuple(sorted((a, b) for a, b, la, lb in plan.cross if la != lb)),
        "cross_images": len(plan.cross),
    }


def scan_plan(data: str, seed: int, sizes: Sizes) -> Plan:
    if data == "mnist":
        return plan_duplicates(seed, sizes.mnist_train, sizes.mnist_test, 10, **MNIST_PLANT)
    return plan_duplicates(seed, sizes.cifar_train, sizes.cifar_test, 100, **CIFAR_PLANT)


def _random_split(rng: np.random.Generator, n: int, shape: tuple[int, ...],
                  num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    images = rng.integers(0, 256, size=(n, *shape), dtype=np.uint8)
    labels = rng.integers(0, num_classes, size=n, dtype=np.uint8)
    return images, labels


def _plant(plan: Plan, train: tuple[np.ndarray, np.ndarray],
           test: tuple[np.ndarray, np.ndarray]) -> None:
    (tr_img, tr_lbl), (te_img, te_lbl) = train, test
    for (a, la), (b, lb) in plan.within:
        tr_img[b] = tr_img[a]
        tr_lbl[a], tr_lbl[b] = la, lb
    for a, b, la, lb in plan.cross:
        te_img[b] = tr_img[a]
        tr_lbl[a], te_lbl[b] = la, lb


def write_inputs(data: str, seed: int, sizes: Sizes, out_dir: Path) -> None:
    """Write the files of one workload family ("mnist" or "cifar100") under out_dir."""
    out_dir = Path(out_dir)
    rng = np.random.default_rng([seed, 2])
    plan = scan_plan(data, seed, sizes)
    if data == "mnist":
        train = _random_split(rng, sizes.mnist_train, (28, 28), 10)
        test = _random_split(rng, sizes.mnist_test, (28, 28), 10)
        _plant(plan, train, test)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / name for name in MNIST_FILES]
        write_mnist_fixture(paths[0], paths[1], *train)
        write_mnist_fixture(paths[2], paths[3], *test)
        return
    train = _random_split(rng, sizes.cifar_train, (3, 32, 32), 100)
    test = _random_split(rng, sizes.cifar_test, (3, 32, 32), 100)
    _plant(plan, train, test)
    (out_dir / "cifar-100-binary").mkdir(parents=True, exist_ok=True)
    for name, (images, fine) in zip(CIFAR_SCAN_FILES, (train, test)):
        write_cifar_fixture(out_dir / name, images, fine, fine // 5)
    # the attack pool is a third, duplicate-free file (see MNIST_PLANT)
    pool_images, pool_fine = _random_split(np.random.default_rng([seed, 3]),
                                           sizes.cifar_pool, (3, 32, 32), 100)
    pool_dir = out_dir / CIFAR_POOL_DIR / "cifar-100-binary"
    pool_dir.mkdir(parents=True, exist_ok=True)
    write_cifar_fixture(pool_dir / "train.bin", pool_images, pool_fine, pool_fine // 5)


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    write_inputs(spec["data"], spec["seed"], Sizes(**spec["sizes"]), Path(spec["out_dir"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
