"""Shared fixtures: catalog isolation and small canonical datasets."""

from __future__ import annotations

import os
import sys

import pytest

from repro.catalog import reset_catalog
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import person, restaurant
from repro.table import Table


@pytest.fixture(autouse=True)
def _clean_catalog():
    """Every test starts and ends with an empty global catalog."""
    reset_catalog()
    yield
    reset_catalog()


def pytest_sessionfinish(session, exitstatus):
    """Archive the run's accumulated metrics when asked to.

    With ``REPRO_METRICS_PATH`` set, the process-default registry — which
    every instrumented code path under test wrote to — is exported there
    as JSONL (plus Prometheus text at ``<path>.prom``); CI uploads it as
    a build artifact.
    """
    path = os.environ.get("REPRO_METRICS_PATH")
    if not path:
        return
    from repro.obs import get_registry, write_metrics_jsonl, write_prometheus_text

    registry = get_registry()
    write_metrics_jsonl(registry, path)
    write_prometheus_text(registry, f"{path}.prom")


@pytest.fixture
def force_verification(monkeypatch):
    """Pin the dict kernel's verification step for the rest of the test.

    The scalar backend verifies by bitmask popcount while the token
    universe has at most ``MASK_UNIVERSE_MAX`` tokens and by a merge scan
    above it; ``force_verification("mask")`` or ``("merge")`` moves that
    limit so one path runs whatever the universe size.
    """
    import repro.index.delta as delta
    import repro.simjoin.joins as joins

    def force(verify: str) -> None:
        limit = {"mask": sys.maxsize, "merge": -1}[verify]
        monkeypatch.setattr(joins, "MASK_UNIVERSE_MAX", limit)
        monkeypatch.setattr(delta, "MASK_UNIVERSE_MAX", limit)

    return force


@pytest.fixture
def figure1_tables():
    """The paper's Figure 1 example: two person tables, two matches."""
    table_a = Table(
        {
            "id": ["a1", "a2", "a3"],
            "name": ["Dave Smith", "Joe Wilson", "Dan Smith"],
            "city": ["Madison", "San Jose", "Middleton"],
            "state": ["WI", "CA", "WI"],
        }
    )
    table_b = Table(
        {
            "id": ["b1", "b2"],
            "name": ["David D. Smith", "Daniel W. Smith"],
            "city": ["Madison", "Middleton"],
            "state": ["WI", "WI"],
        }
    )
    gold = {("a1", "b1"), ("a3", "b2")}
    return table_a, table_b, gold


@pytest.fixture
def small_person_dataset():
    """A 120x120 clean-ish person dataset with gold matches."""
    return make_em_dataset(
        person, 120, 120, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=42, name="people-small",
    )


@pytest.fixture
def restaurant_dataset():
    """A 200x200 moderately dirty restaurant dataset."""
    return make_em_dataset(
        restaurant, 200, 200, match_fraction=0.5,
        dirtiness=DirtinessConfig.moderate(), seed=7, name="restaurants-small",
    )
