"""Failure-injection tests: how the ecosystem behaves when things break.

The paper's production concerns — crash recovery, stale metadata, flaky
humans, misbehaving services — are exercised here by injecting failures
into otherwise healthy workflows and asserting the failure is loud,
precise, and recoverable.
"""

import pytest

from repro.blocking import OverlapBlocker
from repro.cloud import DEFAULT_REGISTRY, CloudMatcher10, ServiceKind, WorkflowContext
from repro.cloud.dag import EMWorkflow
from repro.cloud.services import Service
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import person
from repro.exceptions import (
    BudgetExhaustedError,
    ForeignKeyConstraintError,
    ReproError,
)
from repro.falcon import FalconConfig, run_falcon
from repro.labeling import LabelingSession, OracleLabeler
from repro.labeling.oracle import BaseLabeler
from repro.table import Table


def dataset_fixture(seed=91):
    return make_em_dataset(
        person, 80, 80, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=seed, name="failures",
    )


class FlakyLabeler(BaseLabeler):
    """Answers correctly until it crashes at a configured question."""

    def __init__(self, gold, crash_at: int):
        super().__init__(seconds_per_label=1.0)
        self._oracle = OracleLabeler(gold)
        self.crash_at = crash_at

    def label(self, pair):
        self.questions_asked += 1
        if self.questions_asked == self.crash_at:
            raise RuntimeError("labeler walked away")
        return self._oracle.label(pair)


class TestLabelingFailures:
    def test_labeler_crash_propagates_and_session_stays_consistent(self):
        ds = dataset_fixture()
        session = LabelingSession(FlakyLabeler(ds.gold_pairs, crash_at=3))
        pairs = sorted(ds.gold_pairs)[:5]
        session.ask(pairs[0])
        session.ask(pairs[1])
        with pytest.raises(RuntimeError, match="walked away"):
            session.ask(pairs[2])
        # The failed question was not recorded; the session can continue
        # once the labeler recovers.
        assert session.questions_asked == 2
        assert pairs[2] not in session.labels

    def test_budget_exhaustion_mid_workflow_is_typed(self):
        ds = dataset_fixture()
        session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=5)
        with pytest.raises(BudgetExhaustedError):
            run_falcon(ds, session, FalconConfig(sample_size=200, random_state=0))
        # and it is catchable as the ecosystem base error
        session2 = LabelingSession(OracleLabeler(ds.gold_pairs), budget=5)
        with pytest.raises(ReproError):
            run_falcon(ds, session2, FalconConfig(sample_size=200, random_state=0))


class TestMetadataFailures:
    def test_mutated_base_table_detected_downstream(self):
        ds = dataset_fixture()
        candset = OverlapBlocker("name", overlap_size=1).block_tables(
            ds.ltable, ds.rtable, "id", "id"
        )
        # Another tool rewrites A's keys behind the catalog's back.
        ds.ltable.add_column("id", [f"x{i}" for i in range(ds.ltable.num_rows)])
        from repro.features import extract_feature_vecs, get_features_for_matching

        features = get_features_for_matching(ds.ltable, ds.rtable)
        with pytest.raises(ForeignKeyConstraintError):
            extract_feature_vecs(candset, features)


class TestServiceFailures:
    def _context(self, ds):
        return WorkflowContext(
            dataset=ds,
            session=LabelingSession(OracleLabeler(ds.gold_pairs), budget=300),
            config=FalconConfig(sample_size=200, blocking_budget=60,
                                matching_budget=100, random_state=0),
            task_name="flaky",
        )

    def test_failing_service_aborts_its_workflow(self):
        ds = dataset_fixture()

        def boom(ctx):
            raise RuntimeError("service crashed")

        registry_service = Service("boom", ServiceKind.BATCH, "always fails", boom)
        workflow = EMWorkflow("doomed")
        workflow.add_call("upload", DEFAULT_REGISTRY.get("upload_tables"))
        workflow.add_call("boom", registry_service, after=["upload"])
        matcher = CloudMatcher10()
        matcher.metamanager.submit(workflow, self._context(ds))
        with pytest.raises(RuntimeError, match="service crashed"):
            matcher.metamanager.run_all()

    def test_engine_state_survives_failed_fragment(self):
        ds = dataset_fixture()

        def boom(ctx):
            raise RuntimeError("down")

        workflow = EMWorkflow("doomed")
        workflow.add_call("boom", Service("boom", ServiceKind.BATCH, "fails", boom))
        matcher = CloudMatcher10()
        doomed = matcher.metamanager.submit(workflow, self._context(ds))
        with pytest.raises(RuntimeError):
            matcher.metamanager.run_all()
        # Operator removes the doomed run; the same engines then serve a
        # healthy workflow.
        matcher.metamanager.runs.remove(doomed)
        matcher._submissions.clear()
        ds2 = dataset_fixture(seed=92)
        matcher.submit(
            ds2, LabelingSession(OracleLabeler(ds2.gold_pairs), budget=300),
            FalconConfig(sample_size=200, blocking_budget=60, matching_budget=100,
                         random_state=0),
        )
        makespan, results = matcher.run(score_against_gold=False)
        assert results[-1].context.has("matches")


class TestInputFailures:
    def test_blocker_missing_column_is_schema_error(self):
        ds = dataset_fixture()
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError, match="no_such"):
            OverlapBlocker("no_such").block_tables(ds.ltable, ds.rtable, "id", "id")

    def test_candset_ops_on_unregistered_table(self):
        from repro.blocking import candset_union
        from repro.exceptions import CatalogError

        naked = Table({"_id": [0], "ltable_id": ["a"], "rtable_id": ["b"]})
        with pytest.raises(CatalogError):
            candset_union(naked, naked)

    def test_cli_survives_missing_file(self, capsys):
        from repro.cli import main

        with pytest.raises((SystemExit, FileNotFoundError)):
            main(["profile", "/nonexistent/file.csv"])


class TestServeFailures:
    def test_failed_batch_probe_is_counted_and_answers_stay_correct(
        self, monkeypatch, caplog
    ):
        from repro.index import LiveIndex, use_index_store
        from repro.obs import use_registry
        from repro.serve import MatchServer, ServeConfig

        corpus = Table({
            "id": [f"c{i}" for i in range(40)],
            "v": [f"name {i % 7} street {i % 5}" for i in range(40)],
        })
        queries = [f"name {i % 7} street {i % 3}" for i in range(12)] + ["", "zzz"]
        with use_index_store():
            config = ServeConfig(threshold=0.4, max_batch=1, top_k=None)
            with MatchServer(corpus, "id", "v", config=config) as server:
                expected = [server.match(q, timeout=30).candidates for q in queries]

        original = LiveIndex.search_batch
        calls = []

        def fail_first_batch(index, values):
            calls.append(len(values))
            if len(calls) == 1:
                raise RuntimeError("injected batch-probe failure")
            return original(index, values)

        monkeypatch.setattr(LiveIndex, "search_batch", fail_first_batch)
        with use_registry() as registry, use_index_store():
            config = ServeConfig(threshold=0.4, max_batch=8, workers=0, top_k=None)
            with MatchServer(corpus, "id", "v", config=config) as server:
                pending = [server.submit(q) for q in queries]
                with caplog.at_level("WARNING", logger="repro.serve"):
                    server.process_pending()
                served = [p.result().candidates for p in pending]
        # Two batches (8 + 6): the first fell back to per-request probes.
        assert calls == [8, 6]
        assert served == expected
        fallbacks = {
            labels: value
            for (name, labels), value in registry.counters().items()
            if name == "serve_batch_fallbacks_total"
        }
        assert list(fallbacks.values()) == [1]
        assert dict(next(iter(fallbacks))) == {"reason": "RuntimeError"}
        assert "re-probing each" in caplog.text
