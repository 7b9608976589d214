"""Tests for repro.pipeline.streaming: streaming dedupe on the live index.

The contract: after streaming N unique records one at a time, the
deduper's clusters equal the connected components of the batch self-join
over the same N records at the same threshold — regardless of arrival
order or interleaved compactions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.index import use_index_store
from repro.obs import use_registry
from repro.pipeline import StreamingDeduper
from repro.postprocess import UnionFind, cluster_matches, duplicate_groups
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import WhitespaceTokenizer
from tests.oracles import connected_components

WORDS = ["apple", "banana", "cherry", "grape", "melon", "kiwi", "plum", "fig"]


def make_stream(n: int, seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [
        (f"k{i}", " ".join(rng.sample(WORDS, rng.randint(2, 5))))
        for i in range(n)
    ]


def batch_clusters(records: list[tuple[str, str]], threshold: float) -> set:
    """Connected components of the batch self-join over the records."""
    table = Table(
        {"id": [k for k, _ in records], "value": [v for _, v in records]}
    )
    joined = set_sim_join(
        table, table, "id", "id", "value", "value",
        WhitespaceTokenizer(return_set=True), "jaccard", threshold,
    )
    return connected_components(
        table.column("id"), zip(joined.column("l_id"), joined.column("r_id"))
    )


class TestStreamEqualsBatch:
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 100),
        threshold=st.sampled_from([0.4, 0.6]),
        compact_every=st.sampled_from([None, 7]),
    )
    @settings(max_examples=20, deadline=None)
    def test_clusters_equal_batch_components(self, n, seed, threshold, compact_every):
        records = make_stream(n, seed)
        with use_registry(), use_index_store():
            deduper = StreamingDeduper(
                threshold=threshold, compact_every=compact_every
            )
            for key, value in records:
                deduper.add(key, value)
            streamed = {frozenset(c) for c in deduper.clusters()}
        assert streamed == batch_clusters(records, threshold)

    def test_match_edges_equal_batch_join_pairs(self):
        records = make_stream(40, seed=3)
        with use_registry(), use_index_store():
            deduper = StreamingDeduper(threshold=0.5)
            for key, value in records:
                deduper.add(key, value)
            table = Table(
                {"id": [k for k, _ in records], "value": [v for _, v in records]}
            )
            joined = set_sim_join(
                table, table, "id", "id", "value", "value",
                WhitespaceTokenizer(return_set=True), "jaccard", 0.5,
            )
            batch_pairs = {
                tuple(sorted((l_id, r_id)))
                for l_id, r_id in zip(joined.column("l_id"), joined.column("r_id"))
                if l_id != r_id
            }
            stream_pairs = {
                tuple(sorted((a, b))) for a, b, _ in deduper.matched_pairs()
            }
        assert stream_pairs == batch_pairs

    def test_scores_are_batch_scores(self):
        with use_registry(), use_index_store():
            deduper = StreamingDeduper(threshold=0.4)
            deduper.add("a", "apple banana cherry")
            result = deduper.add("b", "apple banana grape")
        assert result.matches == [("a", 0.5)]
        assert result.merged == 1


class TestStreamingBehavior:
    def test_arrival_sees_all_earlier_records_not_itself(self):
        with use_registry(), use_index_store():
            deduper = StreamingDeduper(threshold=0.9)
            first = deduper.add("a", "apple banana")
            second = deduper.add("b", "apple banana")
            assert first.matches == []
            assert second.matches == [("a", 1.0)]

    def test_seed_table_counts_as_seen(self):
        seed = Table({"id": ["s1", "s2"], "value": ["apple banana", "cherry grape"]})
        with use_registry(), use_index_store():
            deduper = StreamingDeduper(threshold=0.9, seed_table=seed)
            result = deduper.add("n1", "apple banana")
            assert result.matches == [("s1", 1.0)]
            clusters = deduper.clusters()
            assert {"s1", "n1"} in clusters
            assert {"s2"} in clusters

    def test_min_size_filters_singletons(self):
        with use_registry(), use_index_store():
            deduper = StreamingDeduper(threshold=0.9)
            deduper.add("a", "apple banana")
            deduper.add("b", "apple banana")
            deduper.add("c", "unrelated words here")
            assert deduper.clusters(min_size=2) == [{"a", "b"}]

    def test_compaction_preserves_stream_state(self):
        records = make_stream(25, seed=9)
        with use_registry(), use_index_store():
            steady = StreamingDeduper(threshold=0.5)
            compacting = StreamingDeduper(threshold=0.5, compact_every=4)
            for key, value in records:
                steady.add(key, value)
                compacting.add(key, value)
            assert compacting.clusters() == steady.clusters()
            assert compacting.stats()["compactions"] >= 5

    def test_stats_and_metrics(self):
        with use_registry() as registry, use_index_store():
            deduper = StreamingDeduper(threshold=0.4)
            deduper.add("a", "apple banana")
            deduper.add("b", "apple banana cherry")
            stats = deduper.stats()
            assert stats["records"] == 2
            assert stats["live_rows"] == 2
            assert stats["match_edges"] == 1
            assert stats["clusters"] == 1
            totals = {
                name: value
                for (name, _), value in registry.counters().items()
            }
            assert totals["stream_records_total"] == 2
            assert totals["stream_matches_total"] == 1

    def test_invalid_compact_every_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingDeduper(compact_every=0)


class TestUnionFind:
    def test_union_and_groups(self):
        uf = UnionFind()
        for item in "abcde":
            uf.add(item)
        assert uf.union("a", "b")
        assert uf.union("b", "c")
        assert not uf.union("a", "c")  # already one set
        groups = {frozenset(g) for g in uf.groups()}
        assert groups == {frozenset("abc"), frozenset("d"), frozenset("e")}
        assert len(uf) == 5

    def test_find_compresses_paths(self):
        uf = UnionFind()
        for i in range(100):
            uf.add(i)
            if i:
                uf.union(i - 1, i)
        root = uf.find(0)
        assert all(uf.find(i) == root for i in range(100))
        # After compression every node points (nearly) straight at the root.
        assert all(uf._parent[i] == root for i in range(99))


EDGES = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=25)


class TestComponentsAgainstOracle:
    """The one union-find, and both clustering entry points, vs naive BFS."""

    @given(edges=EDGES, isolated=st.lists(st.integers(0, 20), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_union_find_groups(self, edges, isolated):
        uf = UnionFind()
        for node in isolated:
            uf.add(node)
        for a, b in edges:
            uf.add(a)
            uf.add(b)
            uf.union(a, b)
        groups = uf.groups()
        assert {frozenset(g) for g in groups} == connected_components(isolated, edges)
        assert len(groups) == len({frozenset(g) for g in groups})
        assert sum(map(len, groups)) == len(uf)

    @given(edges=EDGES)
    @settings(max_examples=100, deadline=None)
    def test_cluster_matches(self, edges):
        qualified = [(("l", l_id), ("r", r_id)) for l_id, r_id in edges]
        clusters = cluster_matches(edges)
        assert {frozenset(c) for c in clusters} == connected_components((), qualified)
        sizes = [len(c) for c in clusters]
        assert sizes == sorted(sizes, reverse=True)

    @given(edges=EDGES)
    @settings(max_examples=100, deadline=None)
    def test_duplicate_groups(self, edges):
        groups = duplicate_groups(edges)
        assert {frozenset(g) for g in groups} == connected_components((), edges)
        sizes = [len(g) for g in groups]
        assert sizes == sorted(sizes, reverse=True)
