"""IndexPlan composition: kinds, intersection, fallbacks, maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.attribute import Attribute, AttributeType
from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation
from repro.index import EMPTY_ROWS, IndexPlan
from repro.rfd import parse_rfd


def make_relation() -> Relation:
    attributes = (
        Attribute("City", AttributeType.STRING),
        Attribute("Zip", AttributeType.STRING),
        Attribute("Pop", AttributeType.INTEGER),
        Attribute("Urban", AttributeType.BOOLEAN),
    )
    columns = {
        "City": ["ROME", "ROMA", "PARIS", MISSING, "ROME", "LYON"],
        "Zip": ["00100", "00100", "75000", "75000", "00100", "69000"],
        "Pop": [2800, 2800, 2100, 2100, MISSING, 500],
        "Urban": [True, True, True, True, True, False],
    }
    return Relation(attributes, columns, name="cities")


RFDS = [
    parse_rfd("Zip(<=0) -> City(<=1)"),
    parse_rfd("City(<=1) -> Zip(<=0)"),
    parse_rfd("Pop(<=100), Urban(<=0) -> City(<=2)"),
]


def test_kind_selection():
    plan = IndexPlan(make_relation(), RFDS)
    assert plan._kinds == {
        "Zip": "exact",        # only probed at tau = 0
        "City": "qgram",       # loose threshold
        "Pop": "numeric_window",
        "Urban": "numeric_window",
    }


def test_override_names_never_indexed():
    plan = IndexPlan(make_relation(), RFDS, override_names=("City",))
    assert plan._kinds["City"] is None
    rfd = RFDS[1]
    assert plan.candidate_rows(0, rfd.lhs) is None
    assert plan.fallbacks >= 1


def test_candidate_rows_superset_and_target_excluded():
    plan = IndexPlan(make_relation(), RFDS)
    rows = plan.candidate_rows(0, RFDS[0].lhs)  # Zip(<=0) of row 0
    assert rows is not None
    assert 0 not in rows.tolist()
    # Rows 1 and 4 share Zip 00100 with row 0.
    assert set(rows.tolist()) == {1, 4}


def test_missing_target_value_yields_empty():
    plan = IndexPlan(make_relation(), RFDS)
    rows = plan.candidate_rows(3, RFDS[1].lhs)  # City of row 3 is MISSING
    assert rows is not None and rows.size == 0
    assert rows is EMPTY_ROWS


def test_composite_intersection():
    plan = IndexPlan(make_relation(), RFDS)
    rows = plan.candidate_rows(0, RFDS[2].lhs)  # Pop within 100 & Urban
    assert rows is not None
    assert set(rows.tolist()) == {1}  # row 1: Pop 2800, Urban True


def test_hot_group_falls_back_not_wrong():
    plan = IndexPlan(make_relation(), RFDS, max_group_size=1)
    rows = plan.candidate_rows(0, RFDS[0].lhs)  # Zip group has 3 rows
    assert rows is None
    assert plan.counters["index_fallbacks"] >= 1


def test_mutation_listener_keeps_probes_fresh():
    relation = make_relation()
    plan = IndexPlan(relation, RFDS)
    plan.attach()
    try:
        before = plan.candidate_rows(0, RFDS[0].lhs)
        assert set(before.tolist()) == {1, 4}
        relation.set_value(5, "Zip", "00100")  # LYON moves to Rome's zip
        after = plan.candidate_rows(0, RFDS[0].lhs)
        assert set(after.tolist()) == {1, 4, 5}
        assert plan.counters["index_updates"] >= 1
    finally:
        plan.close()


def test_update_rfds_drops_changed_kinds():
    plan = IndexPlan(make_relation(), RFDS)
    plan.candidate_rows(0, RFDS[0].lhs)  # builds the exact Zip index
    assert plan._indexes["Zip"].kind == "exact"
    plan.update_rfds([parse_rfd("Zip(<=2) -> City(<=1)")])
    assert "Zip" not in plan._indexes  # dropped, rebuilt lazily
    rows = plan.candidate_rows(
        0, parse_rfd("Zip(<=2) -> City(<=1)").lhs
    )
    assert plan._indexes["Zip"].kind == "qgram"
    assert rows is not None and 1 in rows.tolist()


def test_counters_shape():
    plan = IndexPlan(make_relation(), RFDS)
    plan.candidate_rows(0, RFDS[0].lhs)
    counters = plan.counters
    assert counters["index_probes"] >= 1
    assert counters["index_served_probes"] >= 1
    assert counters["index_builds"] >= 1
    assert counters["index_pruned_pairs"] >= 1
    assert set(counters) == {
        "index_probes", "index_served_probes", "index_pruned_pairs",
        "index_fallbacks", "index_builds", "index_updates",
    }


def test_max_group_size_validation():
    with pytest.raises(ValueError):
        IndexPlan(make_relation(), RFDS, max_group_size=0)


def test_shared_plan_reports_per_run_counters():
    """Runs sharing one plan each report their own index counters: the
    per-run values sum to the plan's lifetime totals, and the engine
    leaves the shared plan attached for its owner."""
    from repro import Renuver, RenuverConfig, inject_missing
    from repro.datasets.physician import generate_physician

    dirty = inject_missing(
        generate_physician(300, seed=0), count=30, seed=5
    ).relation
    rfds = [
        parse_rfd("Zip(<=0) -> City(<=0)"),
        parse_rfd("OrgId(<=0) -> Street(<=0)"),
        parse_rfd("Organization(<=1) -> City(<=2)"),
    ]
    plan = IndexPlan(dirty, rfds)
    renuver = Renuver(rfds, RenuverConfig(blocking="on"), index_plan=plan)
    runs = [
        renuver.impute(dirty, inplace=True).report.kernel_counters
        for _ in range(2)
    ]
    assert runs[0]["index_probes"] > runs[1]["index_probes"] > 0
    assert runs[1]["index_builds"] == 0  # built once, reused
    for name, total in plan.counters.items():
        assert runs[0][name] + runs[1][name] == total, name
    assert plan._attached
    plan.close()
