"""Tests for the reporting package and the canopy blocker."""

import pytest

from repro.blocking import CanopyBlocker, blocking_recall, candset_pairs
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.exceptions import ConfigurationError
from repro.reporting import (
    accuracy_section,
    blocking_section,
    em_run_report,
    profile_section,
    render_markdown_table,
)
from repro.table import Table


class TestMarkdownRendering:
    def test_table(self):
        markdown = render_markdown_table([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = markdown.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert "| 2 | y |" in lines

    def test_empty(self):
        assert render_markdown_table([]) == "*(empty)*"

    def test_profile_section_flags_generic_values(self):
        table = Table(
            {"id": list(range(60)),
             "addr": ["GENERIC"] * 30 + [f"u{i} x y" for i in range(30)]}
        )
        section = profile_section("A", table)
        assert "GENERIC" in section
        assert "60 rows" in section

    def test_blocking_section(self):
        candset = Table({"_id": [0], "ltable_id": ["a"], "rtable_id": ["b"]})
        section = blocking_section(candset, cross_product=100, recall=0.95)
        assert "**1**" in section
        assert "0.950" in section

    def test_accuracy_section(self):
        section = accuracy_section(
            {"precision": 0.9, "recall": 0.8, "f1": 0.847,
             "false_positives": [1], "false_negatives": [2, 3]}
        )
        assert "**0.900**" in section
        assert "false negatives: 2" in section

    def test_full_report_assembles(self, small_person_dataset):
        ds = small_person_dataset
        report = em_run_report(
            "people", ds.ltable, ds.rtable, notes=["first iteration"]
        )
        assert report.startswith("# EM run report: people")
        assert "## Profile: table A" in report
        assert "- first iteration" in report
        # optional sections absent
        assert "## Blocking" not in report

    def test_full_report_with_selection(self, small_person_dataset):
        from repro.blocking import OverlapBlocker
        from repro.features import extract_feature_vecs, get_features_for_matching
        from repro.labeling import LabelingSession, OracleLabeler
        from repro.matchers import DTMatcher, RFMatcher, select_matcher
        from repro.sampling import weighted_sample_candset

        ds = small_person_dataset
        candset = OverlapBlocker("name", overlap_size=1).block_tables(
            ds.ltable, ds.rtable, "id", "id"
        )
        sample = weighted_sample_candset(candset, 150, seed=0)
        LabelingSession(OracleLabeler(ds.gold_pairs)).label_candset(sample)
        features = get_features_for_matching(ds.ltable, ds.rtable)
        fv = extract_feature_vecs(sample, features, label_column="label")
        selection = select_matcher(
            [DTMatcher(), RFMatcher(n_estimators=5, random_state=0)],
            fv, features.names(), n_splits=3,
        )
        report = em_run_report(
            "people", ds.ltable, ds.rtable,
            candset=candset, blocking_recall=0.9, selection=selection,
        )
        assert "## Matcher selection" in report
        assert "Selected: **" in report


class TestCanopyBlocker:
    @pytest.fixture
    def dataset(self):
        return make_em_dataset(
            restaurant, 150, 150, match_fraction=0.5,
            dirtiness=DirtinessConfig.light(), seed=17, name="canopy",
        )

    def test_high_recall(self, dataset):
        candset = CanopyBlocker(loose=0.3, tight=0.7).block_tables(
            dataset.ltable, dataset.rtable, "id", "id"
        )
        assert blocking_recall(candset, dataset.gold_pairs) > 0.9
        assert candset.num_rows < dataset.ltable.num_rows * dataset.rtable.num_rows / 10

    def test_loosening_grows_candidates(self, dataset):
        tight = CanopyBlocker(loose=0.5, tight=0.8, seed=1).block_tables(
            dataset.ltable, dataset.rtable, "id", "id"
        )
        loose = CanopyBlocker(loose=0.15, tight=0.8, seed=1).block_tables(
            dataset.ltable, dataset.rtable, "id", "id"
        )
        assert loose.num_rows >= tight.num_rows

    def test_deterministic_given_seed(self, dataset):
        a = CanopyBlocker(seed=5).block_tables(dataset.ltable, dataset.rtable)
        b = CanopyBlocker(seed=5).block_tables(dataset.ltable, dataset.rtable)
        assert set(candset_pairs(a)) == set(candset_pairs(b))

    def test_explicit_attrs(self, dataset):
        candset = CanopyBlocker(attrs=["name"], loose=0.4, tight=0.8).block_tables(
            dataset.ltable, dataset.rtable
        )
        assert candset.num_rows > 0

    def test_cross_side_pairs_only(self, dataset):
        candset = CanopyBlocker().block_tables(dataset.ltable, dataset.rtable)
        l_ids = set(dataset.ltable.column("id"))
        r_ids = set(dataset.rtable.column("id"))
        for l_id, r_id in candset_pairs(candset):
            assert l_id in l_ids
            assert r_id in r_ids

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            CanopyBlocker(loose=0.8, tight=0.4)
        with pytest.raises(ConfigurationError):
            CanopyBlocker(loose=0.0)

    def test_block_tuples_undefined(self):
        with pytest.raises(NotImplementedError):
            CanopyBlocker().block_tuples({}, {})

    def test_no_shared_attrs_raises(self):
        """attrs=None over disjoint schemas is a misconfiguration, not
        a legitimate empty result."""
        ltable = Table({"id": [1], "name": ["dave"]})
        rtable = Table({"id": [1], "title": ["dave"]})
        with pytest.raises(ConfigurationError, match="share no non-key"):
            CanopyBlocker().block_tables(ltable, rtable, "id", "id")

    def test_explicit_empty_attrs_raises(self):
        ltable = Table({"id": [1], "name": ["dave"]})
        with pytest.raises(ConfigurationError, match="attrs"):
            CanopyBlocker(attrs=[]).block_tables(ltable, ltable, "id", "id")
