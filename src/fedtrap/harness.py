"""Experiment runner: many seeded attack runs, confusion metrics, CSV output.

Per-run seeds are derived from (master_seed, run_id) through SeedSequence,
so runs are reproducible and independent of execution order; with
workers > 1 the runs execute in separate processes and are merged back in
run-id order.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .attack import DecisionConfig, run_attack
from .datasets import Dataset, load_cifar, load_mnist_idx, normalize, sample_run, synth_dataset
from .fedsim import ClientConfig
from .network import Network, conv_net, small_conv_net
from .optim import AdamConfig, SGDConfig

DEFAULT_SGD_LR = SGDConfig().lr
DEFAULT_ADAM_LR = AdamConfig().lr

SYNTH_POOL_EXTRA = 512
SYNTH_IMAGE_SHAPE = (1, 14, 14)
SYNTH_CLASSES = 10


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str                     # mnist | cifar10 | cifar100 | synthetic
    num_values: int = 4              # M
    num_batches: int = 1             # J
    epochs: int = 1                  # E
    batch_size: int = 32             # B
    optimizer: str = "sgd"           # sgd | adam
    lr: float | None = None          # None -> optimizer default (assumed)
    epsilon: float = 1e-3
    threshold: float = 0.1           # xi
    runs: int = 40
    master_seed: int = 0
    data_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.dataset not in ("mnist", "cifar10", "cifar100", "synthetic"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.num_batches < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("J, E and B must be >= 1")
        if self.num_values < 1:
            raise ValueError("M must be >= 1")
        if self.runs < 2 or self.runs % 2:
            raise ValueError("runs must be even and >= 2 (half member, half not)")
        if self.epsilon <= 0 or self.threshold <= 0:
            raise ValueError("epsilon and threshold must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def num_samples(self) -> int:
        return self.batch_size * self.num_batches

    @property
    def effective_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return DEFAULT_ADAM_LR if self.optimizer == "adam" else DEFAULT_SGD_LR

    def optimizer_config(self):
        if self.optimizer == "adam":
            return AdamConfig(lr=self.effective_lr)
        return SGDConfig(lr=self.effective_lr)

    def echo(self) -> dict:
        """All effective hyperparameters, marking assumed defaults."""
        out = asdict(self)
        out["effective_lr"] = self.effective_lr
        out["lr_source"] = "user" if self.lr is not None else "assumed default"
        out["num_samples"] = self.num_samples
        return out


@dataclass(frozen=True)
class RunRecord:
    run_id: int
    member_flag: int    # t
    delta: float
    decision: int       # t_hat
    wall_time: float
    seed: int


@dataclass(frozen=True)
class MetricsReport:
    fpr: float          # percent, 2 decimals
    fnr: float
    accuracy: float
    auc: float          # 2 decimals
    true_positives: int
    true_negatives: int
    false_positives: int
    false_negatives: int


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def build_source(cfg: ExperimentConfig) -> Dataset:
    """Load (or generate) the raw source pool the runs draw from.

    Raises ValueError if the pool cannot hold N training samples plus a
    target outside them.
    """
    if cfg.dataset == "synthetic":
        pool = cfg.num_samples + SYNTH_POOL_EXTRA
        source = synth_dataset(pool, num_classes=SYNTH_CLASSES,
                               image_shape=SYNTH_IMAGE_SHAPE,
                               seed=derive_seed(cfg.master_seed, 0xDA7A))
    else:
        root = Path(cfg.data_dir or "data")
        if cfg.dataset == "mnist":
            source = load_mnist_idx(root / "train-images-idx3-ubyte",
                                    root / "train-labels-idx1-ubyte")
        elif cfg.dataset == "cifar10":
            source = load_cifar(root / "cifar-10-batches-bin" / "data_batch_1.bin",
                                "cifar10")
        else:
            source = load_cifar(root / "cifar-100-binary" / "train.bin", "cifar100-fine")
    if cfg.num_samples >= len(source):
        raise ValueError(f"dataset {cfg.dataset} has only {len(source)} samples; "
                         f"runs need N={cfg.num_samples} plus a complement")
    return source


def build_network(cfg: ExperimentConfig, source: Dataset) -> Network:
    """The run's architecture; raises ValueError if its head cannot host M pairs."""
    if cfg.dataset == "synthetic":
        net = small_conv_net(SYNTH_IMAGE_SHAPE, SYNTH_CLASSES)
    else:
        net = conv_net(source.image_shape, source.num_classes)
    if 2 * cfg.num_values > net.layers[net.head_linear_indices()[0]].out_dim:
        raise ValueError(f"M={cfg.num_values} needs {2 * cfg.num_values} hidden "
                         f"units; the architecture is too narrow")
    return net


def execute_run(net: Network, source_norm: Dataset, cfg: ExperimentConfig,
                run_id: int) -> RunRecord:
    t = 1 if run_id % 2 == 0 else 0
    seed = derive_seed(cfg.master_seed, run_id)
    started = time.perf_counter()
    try:
        draw = sample_run(source_norm, cfg.num_samples, t, derive_seed(seed, 1))
        xs, ys = draw.training_set.stacked()
        client_cfg = ClientConfig(batch_size=cfg.batch_size,
                                  num_batches=cfg.num_batches,
                                  epochs=cfg.epochs, optimizer=cfg.optimizer_config(),
                                  shuffle_seed=derive_seed(seed, 2))
        decision_cfg = DecisionConfig(threshold=cfg.threshold,
                                      batch_size=cfg.batch_size)
        outcome, _ = run_attack(net, xs, ys, (draw.target.image, draw.target.label),
                                cfg.num_values, cfg.epsilon, client_cfg,
                                decision_cfg, seed=derive_seed(seed, 3))
    except Exception as err:
        raise RuntimeError(f"run {run_id} (seed {seed}) failed: {err}") from err
    return RunRecord(run_id=run_id, member_flag=t, delta=outcome.delta,
                     decision=outcome.decision,
                     wall_time=time.perf_counter() - started, seed=seed)


_WORKER: dict = {}


def _worker_init(cfg: ExperimentConfig) -> None:
    source = normalize(build_source(cfg))
    _WORKER["cfg"] = cfg
    _WORKER["net"] = build_network(cfg, source)
    _WORKER["source"] = source


def _worker_run(run_id: int) -> RunRecord:
    return execute_run(_WORKER["net"], _WORKER["source"], _WORKER["cfg"], run_id)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[RunRecord], MetricsReport]:
    source_norm = normalize(build_source(cfg))
    net = build_network(cfg, source_norm)

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_worker_init,
                                 initargs=(cfg,)) as pool:
            records = list(pool.map(_worker_run, range(cfg.runs)))
    else:
        records = [execute_run(net, source_norm, cfg, rid) for rid in range(cfg.runs)]
    records.sort(key=lambda r: r.run_id)
    return records, compute_metrics(records)


def mann_whitney_auc(member_deltas: np.ndarray, nonmember_deltas: np.ndarray) -> float:
    """P(member delta > non-member delta) + half credit for ties."""
    pos = np.asarray(member_deltas, dtype=np.float64)[:, None]
    neg = np.asarray(nonmember_deltas, dtype=np.float64)[None, :]
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise ValueError("AUC needs finite deltas")
    wins = np.sum(pos > neg) + 0.5 * np.sum(pos == neg)
    return float(wins / (pos.size * neg.size))


def compute_metrics(records: list[RunRecord]) -> MetricsReport:
    t = np.array([r.member_flag for r in records])
    t_hat = np.array([r.decision for r in records])
    deltas = np.array([r.delta for r in records])
    positives = int((t == 1).sum())
    negatives = int((t == 0).sum())
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs at least one member and one non-member record")
    fp = int(((t == 0) & (t_hat == 1)).sum())
    fn = int(((t == 1) & (t_hat == 0)).sum())
    auc = mann_whitney_auc(deltas[t == 1], deltas[t == 0])
    return MetricsReport(
        fpr=round(100.0 * fp / negatives, 2),
        fnr=round(100.0 * fn / positives, 2),
        accuracy=round(100.0 * (len(records) - fp - fn) / len(records), 2),
        auc=round(auc, 2),
        true_positives=positives - fn,
        true_negatives=negatives - fp,
        false_positives=fp,
        false_negatives=fn,
    )


CSV_FIELDS = ("run_id", "dataset", "optimizer", "M", "J", "E", "B",
              "epsilon", "xi", "seed", "t", "delta", "t_hat")


def emit_results(records: list[RunRecord], report: MetricsReport | None,
                 cfg: ExperimentConfig, path) -> None:
    """Write the per-run CSV plus a JSON summary footer next to it.

    Deltas are serialized at full precision; rounding happens only in the
    summary report.
    """
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow([r.run_id, cfg.dataset, cfg.optimizer, cfg.num_values,
                             cfg.num_batches, cfg.epochs, cfg.batch_size,
                             repr(cfg.epsilon), repr(cfg.threshold), r.seed,
                             r.member_flag, repr(r.delta), r.decision])
    summary = {"config": cfg.echo()}
    if report is not None:
        summary["metrics"] = asdict(report)
    with open(path.with_suffix(path.suffix + ".summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)


def parse_results(path) -> list[RunRecord]:
    """Reparse an emitted CSV back into records (delta at full precision)."""
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(RunRecord(run_id=int(row["run_id"]),
                                     member_flag=int(row["t"]),
                                     delta=float(row["delta"]),
                                     decision=int(row["t_hat"]),
                                     wall_time=0.0,
                                     seed=int(row["seed"])))
    return records
