"""Run the benchmark on many seeds and summarize every metric.

    python3 perfbench/collect.py --runs 10 --first-seed 100 \\
        --output perfbench/baseline.json [--trace 1] [--workloads guide,falcon]

Run from the root of a checkout.  Each run is one call of ``run.py``
with its own seed.  For every workload and metric the output holds the
ten values, their median and quartiles (``statistics.quantiles(values,
n=4)``) and the spread, which is the distance between the quartiles as
a share of the median.  The host (cores, Python, NumPy, SciPy) and the
git commit, when there is one, are recorded beside the numbers so that
results from different machines are not compared by mistake.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def host() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    report = {"host": host(), "commit": git_commit(), "run_seconds": spec["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            *log, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            # The per-task lines carry each task's seed, hash seed and digest.
            result.update(seed=seed, wall_s=time.perf_counter() - started,
                          tasks=[line for line in log if line.startswith(workload)])
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
        }
        for name, summary in metrics.items():
            print(f"{workload:7s} {name:24s} median={summary['median']:.5g} "
                  f"spread={summary['spread']:.4f}")
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
