"""Tests for repro.index.delta: the base + delta LiveIndex.

The load-bearing assertion is the incremental == rebuilt-from-scratch
contract: after ANY interleaving of upserts, deletes, and compactions, a
live index answers every probe — point searches and whole-table joins,
serial and sharded-parallel — with exactly the candidates and float
scores of an index rebuilt from scratch over its current records.  The
hypothesis property test below drives randomized interleavings, the
mirror of the store's warm==cold test.
"""

import pickle
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import OverlapBlocker
from repro.exceptions import ConfigurationError, KeyConstraintError, ServiceError
from repro.index import IndexStore, LiveIndex, list_live_indexes, use_index_store
from repro.obs import use_registry
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer

VALUES = [
    "dave smith",
    "dan smith",
    "dave m smith",
    "joe wilson",
    "joe b wilson",
    "mary jones",
    "ann chen",
    "sue miller park",
    "",
    None,
]
KEYS = [f"k{i}" for i in range(8)]


def make_table(n: int = 40, seed: int = 0) -> Table:
    rng = random.Random(seed)
    first = ["dave", "dan", "joe", "mary", "ann", "sue"]
    last = ["smith", "wilson", "jones", "miller"]
    return Table(
        {
            "id": [f"b{i}" for i in range(n)],
            "v": [f"{rng.choice(first)} {rng.choice(last)}" for _ in range(n)],
        }
    )


def reference_table(model: dict) -> Table:
    """The live records a from-scratch rebuild should cover.

    The model dict mirrors live canonical order: upserts re-insert at
    the end (delete-then-set), deletes remove.
    """
    return Table({"id": list(model), "v": [model[k] for k in model]})


def apply_op(live: LiveIndex, model: dict, op: tuple) -> None:
    kind = op[0]
    if kind == "upsert":
        _, key, value = op
        model.pop(key, None)
        model[key] = value
        live.upsert(key, value)
    elif kind == "delete":
        model.pop(op[1], None)
        live.delete(op[1])
    else:
        live.compact()


# One op: upsert (key, value), delete (key), or compact.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.sampled_from(KEYS),
            st.sampled_from(VALUES),
        ),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("compact")),
    ),
    min_size=0,
    max_size=20,
)


class TestIncrementalEqualsRebuilt:
    @given(ops=OPS, base_size=st.integers(0, 6), threshold=st.sampled_from([0.3, 0.6]))
    @settings(max_examples=30, deadline=None)
    def test_interleaved_ops_match_rebuild(self, ops, base_size, threshold):
        base = Table(
            {"id": [f"base{i}" for i in range(base_size)], "v": VALUES[:base_size]}
        )
        model = {
            key: value
            for key, value in zip(base.column("id"), base.column("v"))
        }
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                base, "id", "v", threshold=threshold, store=IndexStore()
            )
            for op in ops:
                apply_op(live, model, op)

            rebuilt = LiveIndex.from_table(
                reference_table(model), "id", "v", threshold=threshold,
                store=IndexStore(),
            )
            # Same survivors, same scores, same order for every probe —
            # including values only a delta or only a base could know.
            # (Pre-verification candidate counts may differ: the delta's
            # token ordering extends the base's rather than re-ranking,
            # so its — equally sound — prefix filter can admit a
            # different candidate set.  Verification is exact, so the
            # survivors cannot differ.)
            for value in VALUES:
                assert live.search(value)[0] == rebuilt.search(value)[0]

            # Whole-table join equals the batch join over the rebuilt
            # records, serial and sharded-parallel.
            probe = Table(
                {"qid": [f"q{i}" for i in range(len(VALUES))], "txt": list(VALUES)}
            )
            joined = live.join_table(probe, "qid", "txt")
            for n_jobs in (1, 2):
                batch = set_sim_join(
                    probe, reference_table(model), "qid", "id", "txt", "v",
                    WhitespaceTokenizer(return_set=True), "jaccard", threshold,
                    n_jobs=n_jobs,
                )
                assert [joined.column(c) for c in joined.columns] == [
                    batch.column(c) for c in batch.columns
                ]

    def test_concurrent_writers_converge_to_rebuild(self):
        """Parallel mutation: racing upserts/deletes never corrupt the
        segments — the final index answers like a rebuild of whatever
        final state the race produced."""
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                make_table(30), "id", "v", threshold=0.4, store=IndexStore()
            )
            errors: list[BaseException] = []

            def mutate(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    for i in range(60):
                        key = f"w{seed}-{rng.randint(0, 9)}"
                        if rng.random() < 0.25:
                            live.delete(key)
                        else:
                            live.upsert(key, rng.choice(VALUES[:8]))
                        if i % 10 == 0:
                            live.search("dave smith")
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=mutate, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            rebuilt = LiveIndex.from_table(
                live.to_table(), "id", "v", threshold=0.4, store=IndexStore()
            )
            for value in VALUES:
                assert live.search(value)[0] == rebuilt.search(value)[0]


class TestLiveSemantics:
    def test_upsert_visible_to_next_probe(self):
        with use_registry(), use_index_store():
            live = LiveIndex.empty("id", "v", threshold=0.4)
            assert live.search("dave smith") == ([], 0)
            live.upsert("k1", "dave smith")
            matches, _ = live.search("dave smith")
            assert matches == [("k1", 1.0)]

    def test_delete_tombstones_base_and_delta(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a"], "v": ["dave smith"]}), "id", "v", threshold=0.4
            )
            live.upsert("b", "dave smith")
            assert [k for k, _ in live.search("dave smith")[0]] == ["a", "b"]
            assert live.delete("a") and live.delete("b")
            assert live.search("dave smith") == ([], 0)
            assert len(live) == 0
            assert "a" not in live and "b" not in live
            # Deleting again reports absence.
            assert not live.delete("a")

    def test_upsert_replaces_and_moves_to_delta_order(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a", "b"], "v": ["dave smith", "ann chen"]}),
                "id", "v", threshold=0.4,
            )
            live.upsert("a", "mary jones")
            assert live.search("dave smith") == ([], 0)
            assert [k for k, _ in live.search("mary jones")[0]] == ["a"]
            assert live.records() == [("b", "ann chen"), ("a", "mary jones")]
            assert len(live) == 2

    def test_missing_value_upsert_acts_as_delete(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a"], "v": ["dave smith"]}), "id", "v", threshold=0.4
            )
            assert live.upsert("a", None) is False
            assert live.search("dave smith") == ([], 0)
            assert "a" not in live

    def test_new_tokens_extend_universe_and_match(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a"], "v": ["dave smith"]}), "id", "v", threshold=0.4
            )
            # Every token here is outside the base universe.
            live.upsert("z", "zelda zimmerman")
            matches, _ = live.search("zelda zimmerman")
            assert matches == [("z", 1.0)]
            assert live.stats()["universe_size"] > 2

    def test_duplicate_base_keys_rejected(self):
        with use_registry(), use_index_store():
            with pytest.raises(KeyConstraintError):
                LiveIndex.from_table(
                    Table({"id": ["a", "a"], "v": ["x y", "y z"]}),
                    "id", "v", threshold=0.4,
                )

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            LiveIndex.empty(threshold=1.5)
        with pytest.raises(ConfigurationError):
            LiveIndex.empty(measure="nope")
        with pytest.raises(ConfigurationError):
            LiveIndex.empty(kernel="simd")

    def test_generation_counts_every_mutation(self):
        with use_registry(), use_index_store():
            live = LiveIndex.empty("id", "v", threshold=0.4)
            assert live.generation == 0
            live.upsert("a", "x y")
            live.delete("a")
            live.compact()
            assert live.generation == 3


class TestCompaction:
    def test_compact_folds_delta_and_tombstones(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(20), "id", "v", threshold=0.4)
            live.upsert("n1", "dave smith")
            live.delete("b0")
            before = live.search("dave smith")
            stats = live.compact()
            assert stats["delta_rows"] == 0
            assert stats["tombstones"] == 0
            assert stats["compactions"] == 1
            assert stats["base_rows"] == 20  # 20 base - 1 deleted + 1 upserted
            assert live.search("dave smith") == before

    def test_compact_does_not_block_readers(self):
        """Queries succeed while the compaction rebuild is in flight."""
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(30), "id", "v", threshold=0.4)
            live.upsert("n1", "dave smith")
            expected = live.search("dave smith")
            in_build = threading.Event()
            release = threading.Event()
            original = LiveIndex._build_base

            def slow_build(self, table):
                segment = original(self, table)
                if in_build.is_set() or not release.is_set():
                    in_build.set()
                    release.wait(5)
                return segment

            LiveIndex._build_base = slow_build
            try:
                worker = threading.Thread(target=live.compact)
                worker.start()
                assert in_build.wait(5)
                # Rebuild is parked mid-compaction: reads still answer
                # from the old segments, writes still land.
                assert live.search("dave smith") == expected
                live.upsert("n2", "dave smith")
                assert len(live.search("dave smith")[0]) == len(expected[0]) + 1
            finally:
                release.set()
                worker.join(10)
                LiveIndex._build_base = original
            # The op that raced the rebuild survived the swap.
            assert "n2" in live
            assert len(live.search("dave smith")[0]) == len(expected[0]) + 1
            assert live.stats()["compactions"] == 1

    def test_concurrent_compact_rejected(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(10), "id", "v", threshold=0.4)
            with live._lock:
                live._compacting = True
            with pytest.raises(ServiceError):
                live.compact()


class TestPersistence:
    def test_round_trip_with_ops(self, tmp_path):
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(20), "id", "v", threshold=0.4, store=store, name="rt"
            )
            live.upsert("n1", "dave smith")
            live.delete("b1")
            live.save()
            loaded = LiveIndex.load("rt", store=IndexStore(cache_dir=tmp_path))
            assert loaded.records() == live.records()
            assert loaded.generation == live.generation
            for value in ("dave smith", "ann chen", ""):
                assert loaded.search(value) == live.search(value)

    def test_round_trip_of_compacted_base(self, tmp_path):
        # Compaction persists a fresh fingerprinted base through the
        # store; a reload must find it on disk and replay zero ops.
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(20), "id", "v", threshold=0.4, store=store, name="ct"
            )
            live.upsert("n1", "dave smith")
            live.delete("b1")
            live.compact()
            live.save()
            manifest = [
                m for m in list_live_indexes(tmp_path) if m["name"] == "ct"
            ][0]
            assert manifest["delta_rows"] == 0
            assert manifest["tombstones"] == 0
            assert manifest["compactions"] == 1
            with use_registry() as registry:
                loaded = LiveIndex.load("ct", store=IndexStore(cache_dir=tmp_path))
                from tests.test_index import counter_total

                # The compacted base came straight off the disk tier.
                assert counter_total(registry, "index_builds_total") == 0
                assert counter_total(registry, "index_reuses_total", tier="disk") > 0
            assert loaded.records() == live.records()
            assert loaded.search("dave smith") == live.search("dave smith")

    def test_corrupt_live_file_rejected(self, tmp_path):
        (tmp_path / "live-bad.pkl").write_bytes(b"\x80\x04 not a pickle")
        with pytest.raises(ConfigurationError):
            LiveIndex.load("bad", store=IndexStore(cache_dir=tmp_path))

    def test_stale_format_rejected(self, tmp_path):
        state = {"format": -1}
        (tmp_path / "live-old.pkl").write_bytes(pickle.dumps(state))
        with pytest.raises(ConfigurationError):
            LiveIndex.load("old", store=IndexStore(cache_dir=tmp_path))

    def test_clear_disk_removes_live_segments(self, tmp_path):
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(10), "id", "v", threshold=0.4, store=store, name="gone"
            )
            live.upsert("n1", "dave smith")
            live.save()
            assert (tmp_path / "live-gone.pkl").exists()
            assert (tmp_path / "live-gone.json").exists()
            store.clear(disk=True)
            assert not (tmp_path / "live-gone.pkl").exists()
            assert not (tmp_path / "live-gone.json").exists()
            assert list_live_indexes(tmp_path) == []

    def test_live_segments_hidden_from_disk_artifacts(self, tmp_path):
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(10), "id", "v", threshold=0.4, store=store, name="x"
            )
            live.save()
            kinds = {row["kind"] for row in store.disk_artifacts()}
            assert "live" not in kinds
            assert {"records", "tokens", "encoding", "prefix", "masks"} <= kinds


class TestBlockerIntegration:
    def test_block_live_equals_block_tables(self):
        ltable = make_table(25, seed=3)
        rtable = make_table(25, seed=4)
        blocker = OverlapBlocker("v", overlap_size=1)
        with use_registry(), use_index_store():
            reference = blocker.block_tables(ltable, rtable, "id", "id")
            live = blocker.live_index(rtable, "id")
            got = blocker.block_live(ltable, live, "id", rtable=rtable)
            assert [got.column(c) for c in got.columns] == [
                reference.column(c) for c in reference.columns
            ]

    def test_block_live_tracks_right_side_churn(self):
        ltable = make_table(20, seed=5)
        rtable = make_table(20, seed=6)
        blocker = OverlapBlocker("v", overlap_size=2)
        with use_registry(), use_index_store():
            live = blocker.live_index(rtable, "id")
            live.upsert("new1", rtable.column("v")[0].upper())  # lowercased on entry
            live.delete("b0")
            current = live.to_table()
            reference = blocker.block_tables(ltable, current, "id", "id")
            got = blocker.block_live(ltable, live, "id")
            assert [got.column(c) for c in got.columns] == [
                reference.column(c) for c in reference.columns
            ]

    def test_qgram_blocker_live_equality(self):
        ltable = make_table(15, seed=7)
        rtable = make_table(15, seed=8)
        blocker = OverlapBlocker("v", overlap_size=3, word_level=False, q=3)
        with use_registry(), use_index_store():
            reference = blocker.block_tables(ltable, rtable, "id", "id")
            live = blocker.live_index(rtable, "id")
            got = blocker.block_live(ltable, live, "id", rtable=rtable)
            assert [got.column(c) for c in got.columns] == [
                reference.column(c) for c in reference.columns
            ]


class TestObservability:
    def test_delta_metrics(self):
        from tests.test_index import counter_total

        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(
                make_table(10), "id", "v", threshold=0.4, name="obs"
            )
            live.upsert("n1", "dave smith")
            live.upsert("n2", "ann chen")
            live.delete("b0")
            live.search("dave smith")
            live.compact()
            assert counter_total(registry, "index_delta_ops_total", op="upsert") == 2
            assert counter_total(registry, "index_delta_ops_total", op="delete") == 1
            assert counter_total(registry, "index_compactions_total", index="obs") == 1
            assert registry.histogram("index_delta_probe_seconds").count >= 1
            gauge = registry.get("index_tombstones", index="obs")
            assert gauge is not None and gauge.value == 0  # reset by compaction

    def test_mask_and_merge_kernels_agree_with_delta(self, force_verification):
        results = {}
        for kernel in ("mask", "merge"):
            force_verification(kernel)
            with use_registry(), use_index_store():
                live = LiveIndex.from_table(
                    make_table(20), "id", "v", threshold=0.4, kernel="dict"
                )
                assert (live._base.masks is not None) == (kernel == "mask")
                live.upsert("n1", "dave smith")
                live.delete("b0")
                results[kernel] = [live.search(v) for v in VALUES]
        assert results["mask"] == results["merge"]

    def test_qgram_tokenizer_round_trip(self):
        with use_registry(), use_index_store():
            tokenizer = QgramTokenizer(q=3, return_set=True)
            live = LiveIndex.from_table(
                make_table(15), "id", "v", tokenizer=tokenizer,
                measure="cosine", threshold=0.5,
            )
            live.upsert("n1", "dave smith")
            rebuilt = LiveIndex.from_table(
                live.to_table(), "id", "v", tokenizer=tokenizer,
                measure="cosine", threshold=0.5, store=IndexStore(),
            )
            for value in VALUES:
                assert live.search(value)[0] == rebuilt.search(value)[0]
