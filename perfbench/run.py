"""Run one fedtrap benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/workloads.py): mnist-j16-e2-adam, mnist-fedsgd,
cifar100-dedup. The seed determines every input file; the package under
src/ only ever sees the generated files. With --trace 0 the end-to-end
metrics are printed; with --trace 1 the per-module metrics of a traced
phase and the tracing overhead. The last line of standard output is one
JSON object {correct, attempted, failed, metrics}. A result file with the
same numbers, the output digest, provenance and (traced) the spans is
written under .perfbench/results/.

BLAS thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance() -> dict:
    import numpy as np
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_build": np.show_config(mode="dicts").get("Build Dependencies"),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedtrap" / "__init__.py").is_file():
        print(f"perfbench: no fedtrap sources in {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import fedtrap
    if SRC.resolve() not in Path(fedtrap.__file__).resolve().parents:
        print(f"perfbench: imported fedtrap from {fedtrap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    result, details = workloads.run_workload(workload, args.seed, args.seconds, bool(args.trace))

    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps({**result, "provenance": provenance(), **details}))

    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'digest':40s} {details['digest']}")
    print(f"{'result file':40s} {path.relative_to(ROOT)}")
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
