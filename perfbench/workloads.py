"""The benchmark's workloads: set-up, timed phases, correctness checks and metrics.

Every workload is a closed loop in one process: attack runs go through
`harness.execute_run` one after another, and duplicate scans through
`datasets.find_exact_duplicates`. Each workload runs both, so every
end-to-end metric is defined on every workload, but gives most of its
time to the path it is named for.

A run or scan fails when it raises, or when its output is wrong: a
non-finite delta, a member flag that breaks the harness's alternation, a
non-member delta other than exactly 0.0, a member delta below xi, a
decision that differs from the member flag, or a duplicate report that
differs from the planted duplicates. Finiteness is checked here, not
trusted to `decide`, which returns 0 for NaN.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from fedtrap import datasets, harness
from fedtrap.network import Network

from . import inputs, tracing

ROOT = Path(__file__).resolve().parent.parent
GENERATE_TIMEOUT_S = 120
BLOCK_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    data: str                 # "mnist" | "cifar100": which generated files
    attack: dict              # ExperimentConfig fields beyond the paper defaults
    attack_share: float       # share of --seconds spent on attack runs; the rest scans
    tail_percentile: float    # run_ms_tail percentile, fixed so it never moves with speed
    digest_runs: int          # runs 0..digest_runs-1 enter the output digest; always run


WORKLOADS = {w.name: w for w in (
    # Trap-heavy training: client training is ~97 % of a run and ~94 % of
    # backward calls carry an all-zero cotangent into the head.
    Workload("mnist-j16-e2-adam", "mnist",
             dict(num_batches=16, epochs=2, optimizer="adam"),
             attack_share=0.6, tail_percentile=75, digest_runs=8),
    # FedSGD (J = E = 1): per-run overhead (sampling, crafting, the
    # reference step) dominates; members and non-members differ in cost.
    Workload("mnist-fedsgd", "mnist", dict(),
             attack_share=0.6, tail_percentile=95, digest_runs=64),
    # Parsing and hashing 60k CIFAR-100 images with no training; its attack
    # runs are FedSGD on a 10k CIFAR-100 pool with the (3,32,32) conv_net.
    Workload("cifar100-dedup", "cifar100", dict(),
             attack_share=0.5, tail_percentile=95, digest_runs=32),
)}


@dataclass(frozen=True)
class Scale:
    sizes: inputs.Sizes
    setup_repeats: int        # setup_s is the median over these
    warmup_runs: int          # at least this many runs before timing, checked but not timed
    warmup_s: float           # and runs for at least this long
    max_digest_runs: int


FULL = Scale(inputs.Sizes(mnist_train=60000, mnist_test=10000, cifar_train=50000,
                          cifar_test=10000, cifar_pool=10000),
             setup_repeats=5, warmup_runs=2, warmup_s=1.0, max_digest_runs=10 ** 6)
TOY = Scale(inputs.Sizes(mnist_train=1200, mnist_test=300, cifar_train=600,
                         cifar_test=200, cifar_pool=400),
            setup_repeats=1, warmup_runs=1, warmup_s=0.0, max_digest_runs=2)


@dataclass
class Prepared:
    cfg: harness.ExperimentConfig
    net: Network
    source: datasets.Dataset
    scan_train: datasets.Dataset
    scan_test: datasets.Dataset


@dataclass(frozen=True)
class RunOutcome:
    run_id: int
    member: int
    seconds: float
    delta: float | None
    decision: int | None
    error: str | None


# -- inputs and set-up ------------------------------------------------------------


def generate(data: str, seed: int, sizes: inputs.Sizes, out_dir: Path) -> None:
    """Write the seeded input files in a child process and wait for it."""
    spec = json.dumps({"data": data, "seed": seed, "sizes": asdict(sizes),
                       "out_dir": str(out_dir)})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-m", "perfbench.inputs", spec], cwd=ROOT, env=env,
                   check=True, timeout=GENERATE_TIMEOUT_S)


def experiment_config(workload: Workload, seed: int, data_dir: Path) -> harness.ExperimentConfig:
    if workload.data == "mnist":
        dataset, root = "mnist", data_dir
    else:
        dataset, root = "cifar100", data_dir / inputs.CIFAR_POOL_DIR
    return harness.ExperimentConfig(dataset=dataset, data_dir=str(root), runs=2,
                                    master_seed=seed, **workload.attack)


def prepare(workload: Workload, cfg: harness.ExperimentConfig,
            data_dir: Path) -> tuple[Prepared, dict[str, float]]:
    """Load every input, normalize the attack pool and build the network, timed."""
    t0 = perf_counter()
    raw = harness.build_source(cfg)
    if workload.data == "mnist":
        names = [data_dir / n for n in inputs.MNIST_FILES[2:]]
        scan_train, scan_test = raw, datasets.load_mnist_idx(*names, split="test")
    else:
        train_bin, test_bin = (data_dir / n for n in inputs.CIFAR_SCAN_FILES)
        scan_train = datasets.load_cifar(train_bin, "cifar100-fine", split="train")
        scan_test = datasets.load_cifar(test_bin, "cifar100-fine", split="test")
    t1 = perf_counter()
    source = datasets.normalize(raw)
    del raw
    t2 = perf_counter()
    net = harness.build_network(cfg, source)
    t3 = perf_counter()
    return (Prepared(cfg, net, source, scan_train, scan_test),
            {"load_s": t1 - t0, "normalize_s": t2 - t1, "total_s": t3 - t0})


# -- timed phases -----------------------------------------------------------------


def check_run(member: int, record: harness.RunRecord, xi: float) -> str | None:
    if not math.isfinite(record.delta):
        return f"non-finite delta {record.delta!r}"
    if record.member_flag != member:
        return f"member flag {record.member_flag}, expected {member}"
    if member == 0 and record.delta != 0.0:
        return f"non-member delta {record.delta!r} is not exactly 0.0"
    if member == 1 and record.delta < xi:
        return f"member delta {record.delta!r} below xi={xi}"
    if record.decision != member:
        return f"decision {record.decision} for member flag {member}"
    return None


def one_run(prep: Prepared, run_id: int) -> RunOutcome:
    member = 1 if run_id % 2 == 0 else 0   # harness.execute_run's convention
    started = perf_counter()
    try:
        record = harness.execute_run(prep.net, prep.source, prep.cfg, run_id)
    except Exception:  # noqa: BLE001 - a raising run is a counted failure
        return RunOutcome(run_id, member, perf_counter() - started, None, None,
                          traceback.format_exc())
    return RunOutcome(run_id, member, perf_counter() - started, record.delta,
                      record.decision, check_run(member, record, prep.cfg.threshold))


def report_fields(report: datasets.DuplicateReport) -> dict:
    return {name: getattr(report, name) for name in
            ("within_train", "cross_split", "mismatched_within", "mismatched_cross",
             "cross_images")}


@dataclass(frozen=True)
class ScanOutcome:
    seconds: float
    error: str | None
    report: dict | None


def one_scan(prep: Prepared, expected: dict) -> ScanOutcome:
    started = perf_counter()
    try:
        report = datasets.find_exact_duplicates(prep.scan_train, prep.scan_test)
    except Exception:  # noqa: BLE001 - a raising scan is a counted failure
        return ScanOutcome(perf_counter() - started, traceback.format_exc(), None)
    seconds = perf_counter() - started
    got = report_fields(report)
    return ScanOutcome(seconds, None if got == expected else f"scan report {got!r}", got)


def measure(prep: Prepared, expected: dict, attack_share: float, seconds: float,
            first_id: int, min_runs: int) -> tuple[list[RunOutcome], list[ScanOutcome]]:
    """Attack runs first_id, first_id+1, ... and scans, for `seconds`; at least min_runs runs.

    The window is cut into blocks of about BLOCK_S seconds; each block gives
    attack_share of its time to attack runs and the rest to scans, so both
    paths sample the whole window. Switching only twice per block keeps the
    cost of a switch (the first run after a scan finds cold caches) out of
    all but a few runs.
    """
    runs: list[RunOutcome] = []
    scans: list[ScanOutcome] = []

    def run_next():
        runs.append(one_run(prep, first_id + len(runs)))

    def scan_next():
        scans.append(one_scan(prep, expected))

    blocks = max(1, round(seconds / BLOCK_S))
    start = perf_counter()
    for block in range(blocks):
        for step, until in ((run_next, block + attack_share), (scan_next, block + 1)):
            step()
            while perf_counter() - start < seconds * until / blocks:
                step()
    while len(runs) < min_runs:
        run_next()
    return runs, scans


def check_traced(traced: list[RunOutcome], untraced: list[RunOutcome]) -> list[RunOutcome]:
    """Tracing must not change an output: compare the runs both phases made."""
    by_id = {r.run_id: r for r in untraced}
    out = []
    for r in traced:
        ref = by_id.get(r.run_id)
        if (r.error is None and ref is not None
                and (r.delta, r.decision) != (ref.delta, ref.decision)):
            r = replace(r, error="traced output differs from the untraced run")
        out.append(r)
    return out


# -- the workload -----------------------------------------------------------------


def output_digest(runs: list[RunOutcome], report: dict | None) -> str:
    """sha256 over (run_id, repr(delta), decision) of each run, then the first scan report."""
    h = hashlib.sha256()
    for r in sorted(runs, key=lambda r: r.run_id):
        h.update(f"{r.run_id},{r.delta!r},{r.decision}\n".encode())
    h.update(repr(sorted(report.items()) if report else None).encode())
    return h.hexdigest()


def _rate(runs: list[RunOutcome]) -> float:
    return len(runs) / sum(r.seconds for r in runs)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL, work_dir: Path = ROOT / ".perfbench") -> tuple[dict, dict]:
    """Generate, set up, measure and check one workload.

    Returns the result line ({correct, attempted, failed, metrics}) and the
    details that go into the result file.
    """
    data_dir = Path(work_dir) / f"inputs-{workload.name}-{seed}-{os.getpid()}"
    try:
        generate(workload.data, seed, scale.sizes, data_dir)
        cfg = experiment_config(workload, seed, data_dir)
        setups, prep = [], None
        for _ in range(scale.setup_repeats):
            prep = None   # release the previous copy before loading the next
            prep, timing = prepare(workload, cfg, data_dir)
            setups.append(timing)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    expected = inputs.expected_report(inputs.scan_plan(workload.data, seed, scale.sizes))

    # The first runs of a process are several times slower than later ones.
    warmup, started = [], perf_counter()
    while len(warmup) < scale.warmup_runs or perf_counter() - started < scale.warmup_s:
        warmup.append(one_run(prep, len(warmup)))
    warm = len(warmup)
    digest_runs = min(workload.digest_runs, scale.max_digest_runs)
    min_timed = max(digest_runs - warm, 2)   # 2: one member and one non-member
    share = workload.attack_share

    if trace:
        # Untraced and traced blocks alternate, so a slow spell of the machine
        # falls on both rates alike. Each side runs the same sequence of run
        # ids, so the outputs the two sides share must agree.
        tracer = tracing.Tracer()
        timed, traced, scans = [], [], []
        pairs = max(1, round(seconds / BLOCK_S))
        for _ in range(pairs):
            more, more_scans = measure(prep, expected, share, seconds / (2 * pairs),
                                       warm + len(timed), 1)
            timed += more
            scans += more_scans
            tracer.install()
            try:
                more, more_scans = measure(prep, expected, share, seconds / (2 * pairs),
                                           warm + len(traced), 1)
            finally:
                tracer.uninstall()
            traced += more
            scans += more_scans
        while len(timed) < min_timed:
            timed.append(one_run(prep, warm + len(timed)))
        traced = check_traced(traced, timed)
    else:
        timed, scans = measure(prep, expected, share, seconds, warm, min_timed)
        traced = []

    runs = warmup + timed + traced
    errors = [f"run {r.run_id}: {r.error}" for r in runs if r.error]
    errors += [s.error for s in scans if s.error]
    attempted = len(runs) + len(scans)
    scanned = len(prep.scan_train) + len(prep.scan_test)
    scan_seconds = [s.seconds for s in scans]

    if trace:
        metrics = tracing.span_metrics(tracer.spans, prep.cfg.batch_size)
        metrics["datasets.load_s"] = (statistics.median(s["load_s"] for s in setups), "s")
        metrics["datasets.normalize_s"] = (
            statistics.median(s["normalize_s"] for s in setups), "s")
        metrics["trace.overhead_frac"] = (1.0 - _rate(traced) / _rate(timed), "frac")
    else:
        times = [r.seconds for r in timed]
        metrics = {
            "runs_per_s": (_rate(timed), "1/s"),
            # Means, not medians: the host's speed switches between levels
            # for seconds at a time, and a median of such a mixture jumps
            # between the levels where a mean moves in proportion.
            "member_run_ms_mean": (
                statistics.fmean(r.seconds for r in timed if r.member) * 1e3, "ms"),
            "nonmember_run_ms_mean": (
                statistics.fmean(r.seconds for r in timed if not r.member) * 1e3, "ms"),
            "run_ms_tail": (float(np.percentile(times, workload.tail_percentile)) * 1e3, "ms"),
            "scan_images_per_s": (scanned * len(scans) / sum(scan_seconds), "1/s"),
            "setup_s": (statistics.median(s["total_s"] for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    n_timed = len(timed)
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "config": prep.cfg.echo(),
        "failed_frac": len(errors) / attempted,
        "failures": errors[:20],
        "digest": output_digest([r for r in warmup + timed if r.run_id < digest_runs],
                                scans[0].report),
        "digest_runs": digest_runs,
        "run_ms_tail": {"percentile": workload.tail_percentile, "samples": n_timed,
                        "beyond": n_timed * (1 - workload.tail_percentile / 100)},
        "timed_runs": n_timed, "traced_runs": len(traced),
        "scans": len(scans), "scan_images": scanned,
        "setup": setups,
        "run_seconds": [[r.run_id, r.member, r.seconds] for r in timed],
        "scan_seconds": scan_seconds,
    }
    if trace:
        details["spans"] = {"fields": ["name", "start", "end", "parent", "info"],
                            "spans": tracer.spans}
    return result, details
