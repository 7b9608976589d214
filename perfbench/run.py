"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload guide|falcon|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src``
there, never from an installed copy.  Every task runs in a fresh
process with ``PYTHONHASHSEED`` derived from its seed and without the
``REPRO_INDEX_CACHE`` / ``REPRO_PLAN_STATS`` variables, so no disk tier
or plan statistics carry over between tasks or runs.

``guide`` and ``falcon`` run a series of tasks, each on inputs made from
its own seed (derived from ``--seed``), until ``--seconds`` is spent;
then the fastest seed runs again, and the two must predict the same
pairs.  ``serve`` runs one resident server for ``--seconds``.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
each task runs untraced and then traced on the same seed, and the
per-layer metrics are printed.  Spans and self-time tables go to
``perfbench/out``.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import format_table

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("guide", "falcon", "serve")
TASK_TIMEOUT_S = 100
MIN_TASKS = 5  # seeds per guide or falcon run, however long they take
ISOLATED_ENV = ("REPRO_INDEX_CACHE", "REPRO_PLAN_STATS", "REPRO_METRICS_PATH")

E2E_UNITS = {"run_s": "s", "p50_ms": "ms", "f1": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "table.read_s": "s", "sampling.s": "s", "blocking.s": "s",
    "blocking.pairs_out": "count", "blocking.recall": "ratio",
    "blocking.reduction_ratio": "ratio", "features.s": "s", "features.pairs": "count",
    "features.evals": "count", "features.dedup_ratio": "ratio",
    "matchers.train_s": "s", "matchers.predict_s": "s", "labeling.s": "s",
    "labeling.questions": "count", "falcon.iterations": "count",
    "falcon.rules_kept": "count", "falcon.rules_s": "s", "runtime.overhead_s": "s",
    "serve.max_qps": "1/s", "serve.p99_ms": "ms", "serve.write_p50_ms": "ms", "serve.admit_us": "us",
    "serve.queue_wait_ms": "ms", "index.search_ms": "ms", "serve.batch_size": "count",
    "serve.batch_gt1_frac": "ratio", "index.search_batch_ms": "ms",
    "index.busy_frac": "ratio", "simjoin.candidates": "count",
    "simjoin.survivor_ratio": "ratio", "index.upsert_us": "us",
    "index.delta_rows": "count", "index.compact_s": "s",
    "bench.gen_late_p99_ms": "ms", "obs.trace_overhead": "ratio",
    "obs.span_coverage": "ratio",
}


def hash_seed(workload: str, seed: int) -> str:
    """The PYTHONHASHSEED a task runs under, derived from its seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return str(int.from_bytes(digest[:4], "big"))


def run_task(workload: str, seed: int, traced: bool, env: dict, seconds: float = 0) -> dict:
    """One worker process; returns its JSON result, or an ``error`` entry."""
    command = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
               "--traced", str(int(traced)), "--out", str(OUT), "--seconds", str(seconds)]
    env = dict(env, PYTHONHASHSEED=hash_seed(workload, seed))
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TASK_TIMEOUT_S + seconds)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit {proc.returncode}"}
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def pooled_f1(results: list[dict]) -> float:
    tp = sum(r["prf"]["tp"] for r in results)
    fp = sum(r["prf"]["fp"] for r in results)
    fn = sum(r["prf"]["fn"] for r in results)
    return 2 * tp / max(1, 2 * tp + fp + fn)


def batch_tasks(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    """Tasks on fresh seeds until the time is spent; returns (results, failures).

    At least MIN_TASKS seeds run, so one slow task cannot be a run's
    median.  Untraced runs then repeat the fastest seed, which must
    predict the same pairs; the repeat is a check, not a timing sample.
    Traced runs run each seed untraced and then traced.
    """
    started = time.perf_counter()
    results, failures, durations = [], [], []
    while len(durations) < MIN_TASKS or (
        time.perf_counter() - started
        + statistics.median(durations) + (0 if trace else min(durations)) <= seconds
    ):
        task_started = time.perf_counter()
        sub_seed = seed * 1000 + len(durations)
        pair = [run_task(workload, sub_seed, False, env)]
        if trace:
            pair.append(run_task(workload, sub_seed, True, env))
        durations.append(time.perf_counter() - task_started)
        results.extend(pair)
        if trace and not any("error" in r for r in pair):
            if pair[0]["digest"] != pair[1]["digest"]:
                failures.append(f"seed {sub_seed}: traced digest differs")
    if not trace:
        fastest = min((r for r in results if "error" not in r),
                      key=lambda r: r["run_s"], default=results[0])
        repeat = run_task(workload, fastest["seed"], False, env)
        print(f"{workload} repeat seed={repeat['seed']} digest={repeat.get('digest')}")
        if "error" in repeat:
            failures.append(f"seed {repeat['seed']}: repeat {repeat['error']}")
        elif "error" not in fastest and repeat["digest"] != fastest["digest"]:
            failures.append(f"seed {repeat['seed']}: digest differs on repeat")
    return results, failures


def summarize_batch(workload: str, results: list[dict], failures: list[str],
                    trace: bool) -> tuple[dict, int, int]:
    """Metrics over the tasks; ``failures`` gains one line per failed check."""
    ok = [r for r in results if "error" not in r]
    for r in results:
        if "error" in r:
            failures.append(f"seed {r['seed']}: {r['error']}")
            continue
        failures.extend(f"seed {r['seed']}: gate {gate} failed"
                        for gate, passed in r["gates"].items() if not passed)
        print(f"{workload} seed={r['seed']} hash_seed={r['hash_seed']} "
              f"run_s={r['run_s']:.3f} setup_s={r['setup_s']:.3f} digest={r['digest']} "
              f"traced={'self_s' in r}")
    if not ok:
        raise SystemExit(f"{workload}: every task failed: {failures}")
    if not trace:
        times = [r["run_s"] for r in ok]
        metrics = {
            "run_s": statistics.median(times),
            "p50_ms": 1000 * statistics.median(times),
            "f1": pooled_f1(ok),
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok),
        }
        attempted = len(results) + 1  # and the repeat
        return metrics, attempted, min(attempted, len(failures))
    traced = [r for r in ok if "self_s" in r]
    untraced = {r["seed"]: r["run_s"] for r in ok if "self_s" not in r}
    layers = {
        name: statistics.median(r["layer"].get(name, 0.0) for r in traced)
        for name in LAYER_UNITS
    }
    ratios = [r["run_s"] / untraced[r["seed"]] - 1 for r in traced if r["seed"] in untraced]
    layers["obs.trace_overhead"] = statistics.median(ratios) if ratios else 0.0
    failures.extend(f"seed {r['seed']}: layer self times cover under 90% of run_s"
                    for r in traced if r["layer"]["obs.span_coverage"] < 0.9)
    write_layer_table(workload, results[0]["seed"], traced)
    return layers, len(results), min(len(results), len(failures))


def write_layer_table(workload: str, seed: int, traced: list[dict]) -> None:
    totals: dict[str, float] = {}
    for r in traced:
        for name, seconds in r["self_s"].items():
            totals[name] = totals.get(name, 0.0) + seconds
    table = format_table(totals, sum(r["run_s"] for r in traced))
    print(table)
    (OUT / f"{workload}-run{seed}.layers.txt").write_text(table + "\n")


def summarize_serve(result: dict, trace: bool) -> tuple[dict, int, int]:
    if "error" in result:
        raise SystemExit(f"serve: worker failed: {result['error']}")
    print(f"serve seed={result['seed']} hash_seed={result['hash_seed']} "
          f"gates={result['gates']}")
    failed = result["failed"]
    if trace:
        layers = {name: result["layer"].get(name, 0.0) for name in LAYER_UNITS}
        print(open(OUT / f"serve-{result['seed']}.layers.txt").read())
        return layers, result["attempted"], failed
    metrics = {
        "run_s": result["run_s"],
        "p50_ms": 1000 * result["p50_s"],
        "f1": pooled_f1([result]),
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["rss_mb"],
    }
    return metrics, result["attempted"], failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env.update(PYTHONPATH=str(src), PERFBENCH_SRC=str(src))

    trace = bool(args.trace)
    if args.workload == "serve":
        result = run_task("serve", args.seed, trace, env, seconds=args.seconds)
        metrics, attempted, failed = summarize_serve(result, trace)
    else:
        results, failures = batch_tasks(args.workload, args.seed, args.seconds, trace, env)
        metrics, attempted, failed = summarize_batch(args.workload, results, failures, trace)
        for line in failures:
            print(f"FAILED {line}")
    units = LAYER_UNITS if trace else E2E_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
