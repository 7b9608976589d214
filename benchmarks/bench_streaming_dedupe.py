"""Streaming dedupe: one-at-a-time arrival on the live index vs batch.

Section 6's "coping with new data" taken to its limit: records arrive
one at a time and each must be clustered against everything seen so far
before the next arrives.  :class:`StreamingDeduper` probes the live
index (base + delta), merges clusters with a union-find, and upserts the
record — periodic compaction folds the delta into a fresh base without
losing stream state.  The batch baseline tokenises and self-joins the
full corpus after the fact; the contract (enforced here end to end) is
that the streamed clusters equal the batch join's connected components.

``test_streaming_dedupe_smoke`` is the CI-scale variant; its archived
``streaming_dedupe_smoke.metrics.jsonl`` snapshot carries the delta-ops
/ tombstone / compaction counters of the run.
"""

from __future__ import annotations

import random
import time

from _report import format_table, report
from conftest import once

from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.index import use_index_store
from repro.pipeline import StreamingDeduper
from repro.postprocess import duplicate_groups
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import WhitespaceTokenizer

THRESHOLD = 0.6


def make_stream(n_entities: int, seed: int = 17) -> list[tuple[str, str]]:
    """A shuffled arrival stream with injected near-duplicates."""
    dataset = make_em_dataset(
        restaurant, n_entities, n_entities, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=seed, name="stream-dedupe-bench",
    )
    records = [
        (key, value)
        for table in (dataset.ltable, dataset.rtable)
        for key, value in zip(table.column("id"), table.column("name"))
    ]
    random.Random(seed).shuffle(records)
    return records


def batch_clusters(records: list[tuple[str, str]]) -> tuple[set, float]:
    """Connected components of the after-the-fact batch self-join."""
    table = Table(
        {"id": [k for k, _ in records], "value": [v for _, v in records]}
    )
    started = time.perf_counter()
    joined = set_sim_join(
        table, table, "id", "id", "value", "value",
        WhitespaceTokenizer(return_set=True), "jaccard", THRESHOLD,
    )
    # A self pair (k, k) per record keeps unmatched records as singletons.
    pairs = [(key, key) for key in table.column("id")]
    pairs += zip(joined.column("l_id"), joined.column("r_id"))
    components = {frozenset(c) for c in duplicate_groups(pairs)}
    return components, time.perf_counter() - started


def _run_stream(n_entities: int, chunk: int, compact_every: int | None):
    records = make_stream(n_entities)
    rows: list[dict] = []
    with use_index_store():
        deduper = StreamingDeduper(
            threshold=THRESHOLD, compact_every=compact_every, name="bench-stream"
        )
        for start in range(0, len(records), chunk):
            piece = records[start:start + chunk]
            started = time.perf_counter()
            for key, value in piece:
                deduper.add(key, value)
            seconds = time.perf_counter() - started
            stats = deduper.stats()
            rows.append(
                {
                    "arrived": start + len(piece),
                    "chunk s": f"{seconds:.2f}",
                    "records/s": f"{len(piece) / seconds:.0f}",
                    "delta rows": stats["delta_rows"],
                    "compactions": stats["compactions"],
                    "_seconds": seconds,
                }
            )
        streamed = {frozenset(c) for c in deduper.clusters()}
        final = deduper.stats()
    expected, batch_seconds = batch_clusters(records)
    assert streamed == expected, "streamed clusters differ from batch components"
    return rows, final, batch_seconds


def test_streaming_dedupe(benchmark):
    """Full-scale stream (archived as ``streaming_dedupe``)."""
    rows, final, batch_seconds = once(
        benchmark, lambda: _run_stream(n_entities=2500, chunk=1000, compact_every=1500)
    )
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    report(
        "streaming_dedupe",
        "Streaming dedupe on the live index vs batch self-join",
        format_table(display)
        + f"\n\nbatch self-join + components over the same corpus: {batch_seconds:.2f}s"
        + f"\nfinal stream state: {final['records']} records,"
        + f" {final['clusters']} clusters, {final['compactions']} compactions"
        + "\n\nExpected shape: per-chunk cost roughly flat (prefix-filtered"
          "\nprobes against base + delta); clusters identical to batch.",
    )
    # Per-arrival cost must not blow up as the corpus grows.
    assert rows[-1]["_seconds"] < rows[0]["_seconds"] * 5
    assert final["compactions"] >= 1


def test_streaming_dedupe_smoke():
    """CI-scale version: cluster identity + metrics snapshot, light load."""
    rows, final, batch_seconds = _run_stream(
        n_entities=250, chunk=125, compact_every=200
    )
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    report(
        "streaming_dedupe_smoke",
        "Streaming dedupe smoke (small scale factor)",
        format_table(display)
        + f"\n\nbatch self-join + components: {batch_seconds:.2f}s"
        + f"\nfinal stream state: {final['records']} records,"
        + f" {final['clusters']} clusters, {final['compactions']} compactions",
    )
    from repro.obs import get_registry

    registry = get_registry()
    totals: dict[str, float] = {}
    for (name, _), value in registry.counters().items():
        totals[name] = totals.get(name, 0) + value
    assert totals.get("stream_records_total", 0) >= 500
    assert totals.get("index_delta_ops_total", 0) >= 500
    assert totals.get("index_compactions_total", 0) >= 2
    assert registry.histogram("index_delta_probe_seconds").count > 0
