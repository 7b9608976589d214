"""One benchmark task in a fresh process; prints one JSON line.

    python3 perfbench/worker.py {guide|falcon} --seed N --traced 0|1 --out DIR
    python3 perfbench/worker.py serve --seed N --traced 0|1 --out DIR --seconds S

``perfbench/run.py`` starts this with ``PYTHONPATH`` pointing at the
checkout's ``src`` and ``PYTHONHASHSEED`` derived from the seed.  The
system is driven only through its public calls; every time is taken
from outside those calls.  With ``--traced 1`` the task records spans
(see ``spans.py``) around each call into a layer, writes them as JSONL
under ``--out`` and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from collections import deque
from pathlib import Path

from spans import Recorder, format_table, self_times

# -- workload constants (see README.md for why each workload exists) -------
GUIDE_ROWS = 5_000  # |A| = |B| of the generated restaurant tables
GUIDE_DEV_ROWS = 800  # down-sampled development tables
GUIDE_LABELS = 500  # pairs sampled from C and labeled
GUIDE_F1_FLOOR = 0.80
GUIDE_RECALL_FLOOR = 0.90

FALCON_SCENARIO = "products_a"
FALCON_SAMPLE = 1_200
FALCON_BUDGETS = (200, 300)  # blocking, matching questions
FALCON_PRECISION_FLOOR = 0.90
FALCON_RECALL_FLOOR = 0.85

SERVE_ROWS = 20_000
SERVE_THRESHOLD = 0.5
SERVE_TOP_K = 10
SERVE_RATE = 200.0  # offered reads + writes per second in phase A
SERVE_WRITE_SHARE = 0.10
SERVE_WINDOW = 128  # outstanding reads in phase B
SERVE_ROUND_OPS = 2_000  # operations per phase-B round
SERVE_ROUNDS = 10  # phase-B rounds; run_s is their median
SERVE_COMPACTIONS = 1  # background compactions spread over phase A
SERVE_CHECKS = 300  # answers checked against the batch join at the end
SERVE_SETUPS = 5  # server starts per run; setup_s is their median

# Falcon graph node -> benchmark layer.
FALCON_LAYERS = {
    "sample": "sampling",
    "blocking_features": "features",
    "sample_vectors": "features",
    "learn_blocking": "matchers.train",
    "extract_rules": "falcon.rules",
    "evaluate_rules": "falcon.rules",
    "select_rules": "falcon.rules",
    "execute_blocking": "blocking",
    "matching_features": "features",
    "candidate_vectors": "features",
    "learn_matching": "matchers.train",
    "predict": "matchers.predict",
}


def _import_repro():
    """Import the public modules the workloads call (this is set-up time)."""
    global repro
    import repro  # noqa: F401
    import repro.blocking  # noqa: F401
    import repro.catalog  # noqa: F401
    import repro.datasets  # noqa: F401
    import repro.exceptions  # noqa: F401
    import repro.falcon  # noqa: F401
    import repro.features  # noqa: F401
    import repro.labeling  # noqa: F401
    import repro.matchers  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.sampling  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.simjoin  # noqa: F401
    import repro.table  # noqa: F401

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")


def _counter(name: str) -> float:
    registry = repro.obs.get_registry()
    return sum(v for (n, _), v in registry.counters().items() if n == name)


def _digest(pairs) -> str:
    return hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()[:16]


def _prf_counts(predicted: set, gold: set) -> dict:
    tp = len(predicted & gold)
    return {"tp": tp, "fp": len(predicted) - tp, "fn": len(gold) - tp}


# ---------------------------------------------------------------------------
# guide: the Fig. 2 development-stage workflow
# ---------------------------------------------------------------------------
def guide_task(seed: int, recorder: Recorder | None, out: Path) -> dict:
    from repro.datasets import DirtinessConfig, make_em_dataset
    from repro.datasets.entities import restaurant

    dataset = make_em_dataset(
        restaurant, GUIDE_ROWS, GUIDE_ROWS, match_fraction=0.4,
        dirtiness=DirtinessConfig.light(), seed=seed, name=f"guide{seed}",
    )
    work = out / f"guide-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _guide_pass(dataset, work, seed, recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _guide_pass(dataset, work: Path, seed: int, recorder: Recorder | None) -> dict:
    from repro.blocking import OverlapBlocker, blocking_recall
    from repro.catalog import get_catalog
    from repro.features import extract_feature_vecs, get_features_for_matching
    from repro.labeling import LabelingSession, OracleLabeler
    from repro.matchers import LogRegMatcher, RFMatcher, select_matcher
    from repro.sampling import down_sample, weighted_sample_candset
    from repro.table import read_csv_metadata, write_csv

    a_path, b_path = work / "A.csv", work / "B.csv"
    write_csv(dataset.ltable, a_path)
    write_csv(dataset.rtable, b_path)
    gold = dataset.gold_pairs

    def call(layer: str, fn, *args, **kwargs):
        """Call into a layer; a traced run records the call as a span."""
        if recorder is None:
            return fn(*args, **kwargs)
        with recorder.span(layer):
            return fn(*args, **kwargs)

    hits0, misses0 = _counter("feature_cache_hits_total"), _counter("feature_cache_misses_total")
    gc.collect()

    started = time.perf_counter()
    root = recorder.open("guide.run", run=seed) if recorder else None
    ltable = call("table.read", read_csv_metadata, a_path, key="id")
    rtable = call("table.read", read_csv_metadata, b_path, key="id")
    l_dev, r_dev = call(
        "sampling", down_sample, ltable, rtable, GUIDE_DEV_ROWS, y_param=2, seed=seed
    )

    def dev_gold():
        l_ids, r_ids = set(l_dev.column("id")), set(r_dev.column("id"))
        return {(a, b) for a, b in gold if a in l_ids and b in r_ids}

    dev = call("labeling", dev_gold)
    # Blockers X and Y are both run and compared, as the guide does; Y
    # is always applied so the seed changes values, not code paths.
    cand_x = call("blocking", OverlapBlocker("name", overlap_size=1).block_tables,
                  l_dev, r_dev, "id", "id")
    cand_y = call("blocking", OverlapBlocker("street", overlap_size=2).block_tables,
                  l_dev, r_dev, "id", "id")
    call("blocking", blocking_recall, cand_x, dev)
    recall_y = call("blocking", blocking_recall, cand_y, dev)
    sample = call("sampling", weighted_sample_candset, cand_y, GUIDE_LABELS, seed=seed)
    session = LabelingSession(OracleLabeler(dev))
    call("labeling", session.label_candset, sample)
    features = call("features", get_features_for_matching, l_dev, r_dev)
    names = features.names()
    sample_fv = call("features", extract_feature_vecs, sample, features, label_column="label")
    call(
        "matchers.train", select_matcher,
        [LogRegMatcher(name="U"), RFMatcher(name="V", n_estimators=10, random_state=seed)],
        sample_fv, names, n_splits=5,
    )
    matcher_v = RFMatcher(name="V", n_estimators=10, random_state=seed)
    call("matchers.train", matcher_v.fit, sample_fv, names)
    cand_fv = call("features", extract_feature_vecs, cand_y, features)
    call("matchers.predict", matcher_v.predict, cand_fv)
    meta = get_catalog().get_candset_metadata(cand_y)
    predicted = {
        pair
        for pair, flag in zip(
            zip(cand_fv.column(meta.fk_ltable), cand_fv.column(meta.fk_rtable)),
            cand_fv.column("predicted"),
        )
        if flag == 1
    }
    run_s = time.perf_counter() - started
    if root:
        recorder.close(root)

    counts = _prf_counts(predicted, dev)
    hits = _counter("feature_cache_hits_total") - hits0
    misses = _counter("feature_cache_misses_total") - misses0
    f1 = 2 * counts["tp"] / max(1, 2 * counts["tp"] + counts["fp"] + counts["fn"])
    gates = {
        "f1": f1 >= GUIDE_F1_FLOOR,
        "blocking_recall": recall_y >= GUIDE_RECALL_FLOOR,
    }
    return {
        "run_s": run_s,
        "prf": counts,
        "digest": _digest(predicted),
        "gates": gates,
        "layer": {
            "blocking.pairs_out": cand_y.num_rows,
            "blocking.recall": recall_y,
            "blocking.reduction_ratio": 1 - cand_y.num_rows / (l_dev.num_rows * r_dev.num_rows),
            "features.pairs": sample.num_rows + cand_y.num_rows,
            "features.evals": misses,
            "features.dedup_ratio": hits / max(1, hits + misses),
            "labeling.questions": session.questions_asked,
        },
    }


# ---------------------------------------------------------------------------
# falcon: the Fig. 3 self-service workflow on a Table 2 scenario
# ---------------------------------------------------------------------------
def falcon_task(seed: int, recorder: Recorder | None, out: Path) -> dict:
    import dataclasses

    from repro.datasets import build_cloudmatcher_dataset, cloudmatcher_scenario
    from repro.falcon import FalconConfig, run_falcon
    from repro.labeling import LabelingSession, OracleLabeler
    from repro.runtime import EventStream
    from repro.runtime.events import NODE_FAIL, NODE_FINISH, NODE_START

    scenario = dataclasses.replace(cloudmatcher_scenario(FALCON_SCENARIO), seed=seed)
    dataset = build_cloudmatcher_dataset(scenario)
    gold = dataset.gold_pairs

    class TracedOracle(OracleLabeler):
        def label(self, pair):
            with recorder.span("labeling"):
                return super().label(pair)

    labeler = (TracedOracle if recorder else OracleLabeler)(gold)
    session = LabelingSession(labeler, budget=sum(FALCON_BUDGETS))
    config = FalconConfig(
        sample_size=FALCON_SAMPLE, blocking_budget=FALCON_BUDGETS[0],
        matching_budget=FALCON_BUDGETS[1], random_state=seed,
    )
    events = EventStream()
    if recorder:
        open_nodes: list[dict] = []

        def sink(event):
            if event.event == NODE_START:
                open_nodes.append(recorder.open(FALCON_LAYERS.get(event.node, "falcon.other")))
            elif event.event in (NODE_FINISH, NODE_FAIL):
                recorder.close(open_nodes.pop())

        events.subscribe(sink)
    questions0 = _counter("falcon_questions_total")
    hits0, misses0 = _counter("feature_cache_hits_total"), _counter("feature_cache_misses_total")
    gc.collect()

    started = time.perf_counter()
    root = recorder.open("falcon.run", run=seed) if recorder else None
    result = run_falcon(dataset, session, config, events=events)
    predicted = result.match_pairs
    run_s = time.perf_counter() - started
    if root:
        recorder.close(root)

    node_s = sum(e.wall_seconds for e in events.of(NODE_FINISH))
    cand = result.candset
    cand_pairs = _candset_pairs(cand)
    counts = _prf_counts(predicted, gold)
    precision = counts["tp"] / max(1, counts["tp"] + counts["fp"])
    recall = counts["tp"] / max(1, counts["tp"] + counts["fn"])
    rules_s = sum(
        e.wall_seconds for e in events.of(NODE_FINISH)
        if FALCON_LAYERS.get(e.node) == "falcon.rules"
    )
    gates = {
        "precision": precision >= FALCON_PRECISION_FLOOR,
        "recall": recall >= FALCON_RECALL_FLOOR,
        "questions_within_budget": result.questions <= sum(FALCON_BUDGETS),
        "questions_counted": _counter("falcon_questions_total") - questions0
        == result.questions,
    }
    cross = dataset.ltable.num_rows * dataset.rtable.num_rows
    hits = _counter("feature_cache_hits_total") - hits0
    misses = _counter("feature_cache_misses_total") - misses0
    return {
        "run_s": run_s,
        "prf": counts,
        "digest": _digest(predicted),
        "gates": gates,
        "layer": {
            "blocking.pairs_out": cand.num_rows,
            "blocking.recall": len(cand_pairs & gold) / max(1, len(gold)),
            "blocking.reduction_ratio": 1 - cand.num_rows / cross,
            "labeling.questions": result.questions,
            "falcon.iterations": result.blocking_stage.iterations
            + result.matching_stage.iterations,
            "falcon.rules_kept": len(result.rules),
            "falcon.rules_s": rules_s,
            "runtime.overhead_s": run_s - node_s,
            "features.pairs": FALCON_SAMPLE + cand.num_rows,
            "features.evals": misses,
            "features.dedup_ratio": hits / max(1, hits + misses),
        },
    }


def _candset_pairs(candset) -> set:
    columns = candset.columns
    l_col = next(c for c in columns if c.startswith("ltable_"))
    r_col = next(c for c in columns if c.startswith("rtable_"))
    return set(zip(candset.column(l_col), candset.column(r_col)))


# ---------------------------------------------------------------------------
# serve: a resident MatchServer under an open loop, then a closed window
# ---------------------------------------------------------------------------
def _name(rng: random.Random) -> str:
    from repro.datasets.vocab import CITIES, FIRST_NAMES, LAST_NAMES

    return " ".join((rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES), rng.choice(CITIES)))


class _Ops:
    """The seeded operation stream, plus the benchmark's own corpus model.

    Reads are 90% of operations; writes upsert a new key, replace an
    existing key's value, or delete an existing key.  Every query is a
    distinct string object, so index wrappers can map calls to requests.
    """

    def __init__(self, seed: int, corpus: dict):
        self.rng = random.Random(seed * 7919 + 1)
        self.model = corpus  # key -> value, updated as writes are issued
        self.keys = list(corpus)
        self.fresh = 0

    def query(self, rng: random.Random) -> str:
        """Half near-duplicates of a live corpus value, half fresh names."""
        if rng.random() < 0.5:
            tokens = self.model[rng.choice(self.keys)].split()
            tokens[rng.randrange(len(tokens))] = _name(rng).split()[rng.randrange(3)]
            return " ".join(tokens)
        return " ".join(_name(rng).split())

    def next(self) -> tuple:
        rng = self.rng
        if rng.random() >= SERVE_WRITE_SHARE:
            return ("r", self.query(rng))
        kind = rng.random()
        if kind < 0.5:
            self.fresh += 1
            key = f"n{self.fresh}"
            self.keys.append(key)
        else:
            key = self.keys[rng.randrange(len(self.keys))]
        if kind < 0.8:
            self.model[key] = value = _name(rng)
            return ("u", key, value)
        self.keys.remove(key)
        del self.model[key]
        return ("d", key)


class _IndexProbe:
    """Class-level wrappers on LiveIndex, installed in traced runs only."""

    METHODS = ("search", "search_batch", "upsert", "compact")

    def __init__(self):
        from repro.index import LiveIndex

        self.cls = LiveIndex
        self.originals = {name: getattr(LiveIndex, name) for name in self.METHODS}
        self.probes: dict[int, tuple[float, float, int]] = {}  # id(query) -> probe
        self.calls: list[tuple[str, float, float, int]] = []
        self.survivors = 0
        self.candidates = 0

    def install(self) -> None:
        probe = self

        def wrap(name, original):
            def wrapper(index, *args, **kwargs):
                start = time.perf_counter()
                result = original(index, *args, **kwargs)
                probe.observe(name, args, result, start, time.perf_counter())
                return result
            return wrapper

        for name, original in self.originals.items():
            setattr(self.cls, name, wrap(name, original))

    def observe(self, name, args, result, start, end) -> None:
        if name == "search":
            values, results = [args[0]], [result]
        elif name == "search_batch":
            values, results = list(args[0]), result
        else:
            self.calls.append((name, start, end, 0))
            return
        self.calls.append((name, start, end, len(values)))
        for value in values:
            self.probes[id(value)] = (start, end, len(values))
        for matches, n_candidates in results:
            self.survivors += len(matches)
            self.candidates += n_candidates

    def uninstall(self) -> None:
        for name, original in self.originals.items():
            setattr(self.cls, name, original)


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _phase_a(server, ops: _Ops, seconds: float, compactions: int) -> dict:
    """Open loop at SERVE_RATE; latency is timed from each op's due time.

    ``compactions`` background compactions start at evenly spaced points,
    one at a time, as a maintenance thread would run them.
    """
    n_ops = max(1, int(seconds * SERVE_RATE))
    starts = {n_ops * (k + 1) // (compactions + 1) for k in range(compactions)}
    reads, writes, late = [], [], []
    errors = rejections = 0
    compact_s: list[float] = []
    compact_errors: list[BaseException] = []
    compactor: threading.Thread | None = None

    def compact_now():
        start = time.perf_counter()
        try:
            server.compact()
            compact_s.append(time.perf_counter() - start)
        except Exception as exc:  # counted as a failed operation
            compact_errors.append(exc)

    t0 = time.perf_counter() + 0.01
    for i in range(n_ops):
        due = t0 + i / SERVE_RATE
        op = ops.next()
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        if i in starts:
            if compactor is not None:
                compactor.join()
            compactor = threading.Thread(target=compact_now, name="perfbench-compact")
            compactor.start()
        start = time.perf_counter()
        late.append(start - due)
        try:
            if op[0] == "r":
                pending = server.submit(op[1])
                reads.append((due, start, time.perf_counter(), op[1], pending))
            elif op[0] == "u":
                server.upsert(op[1], op[2])
                writes.append(time.perf_counter() - due)
            else:
                server.delete(op[1])
                writes.append(time.perf_counter() - due)
        except (repro.exceptions.BackpressureError, repro.exceptions.QuotaExceededError):
            rejections += 1
        except Exception:
            errors += 1
    if compactor is not None:
        compactor.join()
    latencies, done = [], []
    for due, start, admitted, query, pending in reads:
        try:
            result = pending.result(timeout=30)
        except Exception:
            errors += 1
            continue
        latencies.append(start - due + result.seconds)
        done.append((start, admitted, query, result))
    return {
        "ops": n_ops, "latencies": latencies, "writes": writes, "late": late, "done": done,
        "errors": errors + len(compact_errors), "rejections": rejections,
        "compact_s": compact_s,
    }


def _merge_chunks(chunks: list[dict]) -> dict:
    """One phase-A result from several open-loop chunks."""
    merged = {key: [] for key in ("latencies", "writes", "late", "done", "compact_s")}
    merged.update(ops=0, errors=0, rejections=0)
    for chunk in chunks:
        for key, value in chunk.items():
            merged[key] += value
    return merged


def _phase_b_round(server, ops: _Ops) -> dict:
    """A closed window of SERVE_WINDOW outstanding reads, SERVE_ROUND_OPS ops."""
    window: deque = deque()
    errors = n_reads = 0
    writes, candidates = [], 0

    def finish_one():
        nonlocal errors, candidates
        try:
            candidates += window.popleft().result(timeout=30).n_candidates
        except Exception:
            errors += 1

    start = time.perf_counter()
    for _ in range(SERVE_ROUND_OPS):
        op = ops.next()
        try:
            if op[0] == "r":
                if len(window) >= SERVE_WINDOW:
                    finish_one()
                window.append(server.submit(op[1]))
                n_reads += 1
            else:
                issued = time.perf_counter()
                if op[0] == "u":
                    server.upsert(op[1], op[2])
                else:
                    server.delete(op[1])
                writes.append(time.perf_counter() - issued)
        except Exception:
            errors += 1
    while window:
        finish_one()
    seconds = time.perf_counter() - start
    return {"s": seconds, "reads": n_reads, "writes": writes, "errors": errors,
            "candidates": candidates}


def _check_answers(server, ops: _Ops, seed: int) -> dict:
    """Served answers == set_sim_join over the final corpus, ranked, cut to top_k."""
    from repro.simjoin import set_sim_join
    from repro.table import Table
    from repro.text.tokenizers import WhitespaceTokenizer

    rng = random.Random(seed * 31 + 5)
    queries = [ops.query(rng) for _ in range(SERVE_CHECKS)]
    keys = list(ops.model)
    corpus = Table({"id": keys, "v": [ops.model[k] for k in keys]})
    qtable = Table({"id": [f"q{i}" for i in range(len(queries))], "v": queries})
    joined = set_sim_join(qtable, corpus, "id", "id", "v", "v",
                          WhitespaceTokenizer(return_set=True), "jaccard", SERVE_THRESHOLD)
    expected: dict[str, list] = {}
    for q, r, score in zip(joined.column("l_id"), joined.column("r_id"), joined.column("score")):
        expected.setdefault(q, []).append((r, score))
    tp = fp = fn = mismatched = 0
    for i, query in enumerate(queries):
        served = server.match(query, timeout=30).candidates
        want = sorted(expected.get(f"q{i}", []), key=lambda pair: -pair[1])
        ok = _same_ranking(served, want, SERVE_TOP_K)
        mismatched += not ok
        truth = set(want[:SERVE_TOP_K]) if ok else set(want)
        hit = len(set(served) & set(want))
        tp, fp, fn = tp + hit, fp + len(served) - hit, fn + min(len(truth), SERVE_TOP_K) - hit
    return {"checked": len(queries), "mismatched": mismatched,
            "prf": {"tp": tp, "fp": fp, "fn": fn}}


def _same_ranking(served: list, want: list, top_k: int) -> bool:
    """Equal ranked lists; among pairs tied at the cut, any top_k choice is valid."""
    if len(served) != min(top_k, len(want)):
        return False
    if [score for _, score in served] != [score for _, score in want[: len(served)]]:
        return False
    if not served:
        return True
    cut = served[-1][1]
    above = {pair for pair in want if pair[1] > cut}
    tied = {pair for pair in want if pair[1] == cut}
    return {p for p in served if p[1] > cut} == above and {
        p for p in served if p[1] == cut
    } <= tied


def serve_run(seed: int, recorder: Recorder | None, out: Path, seconds: float) -> dict:
    from repro.index import IndexStore
    from repro.serve import MatchServer, ServeConfig
    from repro.table import Table

    rng = random.Random(seed)
    keys = [f"c{i}" for i in range(SERVE_ROWS)]
    corpus_values = {key: _name(rng) for key in keys}
    corpus = Table({"id": keys, "v": [corpus_values[k] for k in keys]})
    config = ServeConfig(
        threshold=SERVE_THRESHOLD, top_k=SERVE_TOP_K, workers=1,
        max_queue_depth=4 * SERVE_WINDOW, default_tenant_quota=None,
    )

    def start_server() -> tuple:
        server = MatchServer(corpus, "id", "v", config=config, store=IndexStore())
        gc.collect()
        start = time.perf_counter()
        server.start()
        return server, time.perf_counter() - start

    def spare_setup() -> None:
        spare, seconds = start_server()
        spare.stop()
        setups.append(seconds)

    server, first = start_server()
    setups = [first]
    ops = _Ops(seed, dict(corpus_values))
    chunk_s = 0.55 * seconds / SERVE_ROUNDS
    probe = None
    try:
        if recorder is None:
            # Open-loop chunks alternate with closed-window rounds (and the
            # spare server starts), so every metric samples the whole run
            # rather than one stretch of it.
            chunks, rounds = [], []
            for k in range(SERVE_ROUNDS):
                compactions = SERVE_COMPACTIONS if k == SERVE_ROUNDS // 2 else 0
                chunks.append(_phase_a(server, ops, chunk_s, compactions))
                rounds.append(_phase_b_round(server, ops))
                if k % 2 and len(setups) < SERVE_SETUPS:
                    spare_setup()
            phase_a = _merge_chunks(chunks)
        else:
            while len(setups) < SERVE_SETUPS:
                spare_setup()
            untraced = _phase_a(server, ops, 0.25 * seconds, 0)
            untraced_p50 = statistics.median(untraced["latencies"])
            probe = _IndexProbe()
            probe.install()
            phase_a = _phase_a(server, ops, 0.3 * seconds, SERVE_COMPACTIONS)
            for key in ("ops", "errors", "rejections"):
                phase_a[key] += untraced[key]
            b_started = time.perf_counter()
            probe_calls_a = len(probe.calls)
            rounds = [_phase_b_round(server, ops) for _ in range(SERVE_ROUNDS)]
            b_wall = time.perf_counter() - b_started
        delta_rows = server.stats()["delta_rows"]
        check = _check_answers(server, ops, seed)
    finally:
        if probe:
            probe.uninstall()
        server.stop()

    round_s = [r["s"] for r in rounds]
    reads_b = sum(r["reads"] for r in rounds)
    writes = phase_a["writes"] + [w for r in rounds for w in r["writes"]]
    n_ops = phase_a["ops"] + len(rounds) * SERVE_ROUND_OPS + check["checked"]
    errors = phase_a["errors"] + sum(r["errors"] for r in rounds)
    failed = errors + phase_a["rejections"] + check["mismatched"]
    latencies = phase_a["latencies"]
    result_p99 = _pct(latencies, 0.99)
    result = {
        "run_s": statistics.median(round_s),
        "p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "prf": check["prf"],
        "attempted": n_ops,
        "failed": failed,
        "gates": {
            "answers_match_batch_join": check["mismatched"] == 0,
            "no_rejections": phase_a["rejections"] == 0,
            "no_errors": errors == 0,
        },
        "layer": {
            "serve.max_qps": reads_b / sum(round_s),
            "serve.write_p50_ms": 1000 * statistics.median(writes),
            "serve.admit_us": 1e6 * statistics.median(a - s for s, a, _, _ in phase_a["done"]),
            "simjoin.candidates": statistics.fmean(
                r.n_candidates for _, _, _, r in phase_a["done"]),
            "index.delta_rows": delta_rows,
            "index.compact_s": statistics.median(phase_a["compact_s"] or [0.0]),
            "serve.p99_ms": 1000 * result_p99,
            "bench.gen_late_p99_ms": 1000 * _pct(phase_a["late"], 0.99),
        },
    }
    if probe is not None:
        result["layer"].update(_serve_layers(recorder, probe, phase_a, probe_calls_a, b_wall))
        result["layer"]["obs.trace_overhead"] = result["p50_s"] / untraced_p50 - 1
    return result


def _serve_layers(recorder, probe, phase_a, calls_a, b_wall) -> dict:
    """Per-request spans (admit, queue, probe) and the index-layer numbers."""
    queue, search = [], []
    for n, (start, admitted, query, result) in enumerate(phase_a["done"]):
        probe_start, probe_end, _ = probe.probes[id(query)]
        end = admitted + result.seconds
        root = recorder.add("serve.request", start, max(end, probe_end), run=n)
        recorder.add("serve.admit", start, admitted, parent=root["id"], run=n)
        recorder.add("serve.queue", admitted, probe_start, parent=root["id"], run=n)
        recorder.add("index.probe", probe_start, probe_end, parent=root["id"], run=n)
        queue.append(probe_start - admitted)
        search.append(probe_end - probe_start)
    for name, start, end, _ in probe.calls:
        if name in ("upsert", "compact"):
            recorder.add(f"index.{name}", start, end)
    calls_a_list, calls_b = probe.calls[:calls_a], probe.calls[calls_a:]
    reads_a = [c for c in calls_a_list if c[0] in ("search", "search_batch")]
    reads_b = [c for c in calls_b if c[0] in ("search", "search_batch")]
    batch_ms = [1000 * (e - s) for name, s, e, _ in reads_b if name == "search_batch"]
    upserts = [e - s for name, s, e, _ in probe.calls if name == "upsert"]
    return {
        "serve.queue_wait_ms": 1000 * statistics.median(queue),
        "index.search_ms": 1000 * statistics.median(search),
        "index.search_batch_ms": statistics.median(batch_ms) if batch_ms else 0.0,
        "serve.batch_size": statistics.fmean(c[3] for c in reads_b) if reads_b else 0.0,
        "serve.batch_gt1_frac": sum(c[3] > 1 for c in reads_a) / max(1, len(reads_a)),
        "index.busy_frac": sum(e - s for _, s, e, _ in reads_b) / b_wall,
        "simjoin.survivor_ratio": probe.survivors / max(1, probe.candidates),
        "index.upsert_us": 1e6 * statistics.median(upserts) if upserts else 0.0,
    }


# ---------------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("guide", "falcon", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    setup_start = time.perf_counter()
    _import_repro()
    repro.catalog.get_catalog()
    setup_s = time.perf_counter() - setup_start
    recorder = Recorder() if args.traced else None
    if args.workload == "serve":
        result = serve_run(args.seed, recorder, args.out, args.seconds)
    else:
        task = guide_task if args.workload == "guide" else falcon_task
        result = task(args.seed, recorder, args.out)
        result["setup_s"] = setup_s
    if recorder is not None:
        tag = f"{args.workload}-{args.seed}"
        recorder.write_jsonl(args.out / f"{tag}.spans.jsonl")
        # Request trees (serve) or task trees (guide, falcon); serve's
        # upsert and compaction spans stand alone and stay in the JSONL.
        totals = self_times([s for s in recorder.spans if s["run"] is not None])
        result["self_s"] = totals
        roots = [s for s in recorder.spans if s["parent"] is None and s["end"] is not None]
        wall = sum(s["end"] - s["start"] for s in roots if s["name"].endswith((".run", ".request")))
        (args.out / f"{tag}.layers.txt").write_text(format_table(totals, wall) + "\n")
        if args.workload != "serve":
            result["layer"].update(_batch_layers(totals))
            result["layer"]["obs.span_coverage"] = 1 - totals[f"{args.workload}.run"] / wall
    result["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


def _batch_layers(totals: dict) -> dict:
    """Per-layer seconds of a guide/falcon pass from span self times."""
    return {
        "table.read_s": totals.get("table.read", 0.0),
        "sampling.s": totals.get("sampling", 0.0),
        "blocking.s": totals.get("blocking", 0.0),
        "features.s": totals.get("features", 0.0),
        "matchers.train_s": totals.get("matchers.train", 0.0),
        "matchers.predict_s": totals.get("matchers.predict", 0.0),
        "labeling.s": totals.get("labeling", 0.0),
    }


if __name__ == "__main__":
    sys.exit(main())
