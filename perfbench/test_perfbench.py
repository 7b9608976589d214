"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest perfbench -q

They run short versions of each workload (about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from spans import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def task(workload: str, seed: int, tmp_path: Path) -> dict:
    """One traced worker task, run the way run.py runs it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PERFBENCH_SRC=str(ROOT / "src"),
               PYTHONHASHSEED=run.hash_seed(workload, seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
         "--traced", "1", "--out", str(tmp_path), "--seconds", "4"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_runner():
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.E2E_UNITS == declared_e2e
    assert run.LAYER_UNITS == declared_layer
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(workload, trace):
    proc = bench(workload, seed=3, seconds=4, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["guide", "falcon"])
def test_seed_changes_inputs_not_layer_mix(workload, tmp_path):
    first, second = task(workload, 1, tmp_path), task(workload, 2, tmp_path)
    assert first["digest"] != second["digest"]
    assert first["layer"]["blocking.pairs_out"] != second["layer"]["blocking.pairs_out"]
    assert set(first["self_s"]) == set(second["self_s"])
    assert all(first["gates"].values()) and all(second["gates"].values())


def test_serve_seed_changes_inputs_not_layer_mix():
    corpus = {f"c{i}": f"v{i}" for i in range(10)}
    streams = [worker._Ops(seed, dict(corpus)) for seed in (1, 2)]
    ops = [[stream.next() for _ in range(200)] for stream in streams]
    assert ops[0] != ops[1]
    assert {op[0] for op in ops[0]} == {op[0] for op in ops[1]} == {"r", "u", "d"}


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("guide", seed=1, seconds=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "b", "start": 3.0, "end": 5.0, "parent": 0},  # overlaps a
        {"id": 3, "name": "a", "start": 1.5, "end": 2.0, "parent": 1},
    ]
    assert self_times(spans) == pytest.approx({"root": 6.0, "a": 3.0, "b": 2.0})


def test_ranking_check_allows_only_tie_order_at_the_cut():
    want = [("x", 0.9), ("y", 0.5), ("z", 0.5)]
    assert worker._same_ranking([("x", 0.9), ("z", 0.5)], want, top_k=2)
    assert worker._same_ranking([("x", 0.9), ("y", 0.5)], want, top_k=2)
    assert not worker._same_ranking([("y", 0.5), ("z", 0.5)], want, top_k=2)
    assert not worker._same_ranking([("x", 0.9)], want, top_k=2)
    assert not worker._same_ranking([("x", 0.9), ("q", 0.5)], want, top_k=2)
