"""IndexPlan composition: kinds, intersection, fallbacks, maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.donor_scan import string_clamp_limits
from repro.dataset.attribute import Attribute, AttributeType
from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation
from repro.distance.kernels import DonorScanKernels
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


def answer(plan, target_row, lhs, rfds=RFDS):
    """``plan.candidate_rows`` with the engine's distance kernel over
    the plan's relation."""
    kernels = DonorScanKernels(
        plan.relation, string_limits=string_clamp_limits(rfds)
    )
    return plan.candidate_rows(target_row, lhs, kernels.subset_vector)


def candidate_rows(plan, target_row, lhs, rfds=RFDS):
    """The rows of the plan's answer."""
    return answer(plan, target_row, lhs, rfds)[0]


def every_row_but(plan, target_row):
    return [
        row for row in range(plan.relation.n_tuples) if row != target_row
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
    # No constraint served: the degenerate answer leaves it pending.
    rows, pending = answer(plan, 0, rfd.lhs)
    assert rows.tolist() == every_row_but(plan, 0)
    assert pending == rfd.lhs
    assert plan.fallbacks >= 1


def test_candidate_rows_exact_and_target_excluded():
    plan = IndexPlan(make_relation(), RFDS)
    rows, pending = answer(plan, 0, RFDS[0].lhs)  # Zip(<=0) of row 0
    assert 0 not in rows.tolist()
    # Rows 1 and 4 share Zip 00100 with row 0.
    assert rows.tolist() == [1, 4]
    assert pending == ()  # a string constraint is answered exactly
    # City(<=1) of row 0 (ROME): ROMA is one edit away; PARIS and
    # LYON share no gram with ROME, and MISSING never matches.
    rows, pending = answer(plan, 0, RFDS[1].lhs)
    assert rows.tolist() == [1, 4]
    assert pending == ()


def test_string_matches_memoized_per_value_and_threshold():
    """One index probe per (attribute, value, threshold): rows 0 and 4
    both hold ROME, and a repeated question reads the memo."""
    plan = IndexPlan(make_relation(), RFDS)
    assert answer(plan, 0, RFDS[1].lhs)[0].tolist() == [1, 4]
    assert answer(plan, 4, RFDS[1].lhs)[0].tolist() == [0, 1]
    assert answer(plan, 0, RFDS[1].lhs)[0].tolist() == [1, 4]
    assert plan.probes == 1
    assert answer(plan, 1, RFDS[1].lhs)[0].tolist() == [0, 4]  # ROMA
    assert plan.probes == 2


def test_numeric_window_is_exact():
    """A numeric and a boolean constraint leave nothing pending: the
    rows are exactly those the full-column masks select."""
    relation = make_relation()
    plan = IndexPlan(relation, RFDS)
    lhs = RFDS[2].lhs  # Pop(<=100), Urban(<=0)
    kernels = DonorScanKernels(relation)
    for target_row in range(relation.n_tuples):
        rows, pending = answer(plan, target_row, lhs)
        assert pending == ()
        mask = np.ones(relation.n_tuples, dtype=bool)
        mask[target_row] = False
        with np.errstate(invalid="ignore"):
            for constraint in lhs:
                mask &= (
                    kernels.vector(target_row, constraint.attribute)
                    <= constraint.threshold
                )
        assert rows.tolist() == np.flatnonzero(mask).tolist(), target_row


def test_missing_target_value_yields_empty():
    plan = IndexPlan(make_relation(), RFDS)
    rows = candidate_rows(plan, 3, RFDS[1].lhs)  # City of row 3 is MISSING
    assert rows.size == 0
    assert rows is EMPTY_ROWS


def test_composite_intersection():
    plan = IndexPlan(make_relation(), RFDS)
    rows = candidate_rows(plan, 0, RFDS[2].lhs)  # Pop within 100 & Urban
    assert set(rows.tolist()) == {1}  # row 1: Pop 2800, Urban True


def test_hot_group_falls_back_not_wrong():
    plan = IndexPlan(make_relation(), RFDS, max_group_size=1)
    rows, pending = answer(plan, 0, RFDS[0].lhs)  # Zip group: 3 rows
    assert rows.tolist() == every_row_but(plan, 0)
    assert pending == RFDS[0].lhs
    assert plan.counters["index_fallbacks"] >= 1


def test_mutation_listener_keeps_probes_fresh():
    relation = make_relation()
    plan = IndexPlan(relation, RFDS)
    plan.attach()
    try:
        before = candidate_rows(plan, 0, RFDS[0].lhs)
        assert set(before.tolist()) == {1, 4}
        relation.set_value(5, "Zip", "00100")  # LYON moves to Rome's zip
        after = candidate_rows(plan, 0, RFDS[0].lhs)
        assert set(after.tolist()) == {1, 4, 5}
        relation.set_value(5, "City", "ROMB")  # a new distinct value
        rows = candidate_rows(plan, 0, RFDS[1].lhs)
        assert rows.tolist() == [1, 4, 5]
        assert plan.counters["index_updates"] >= 1
    finally:
        plan.close()


def test_update_rfds_drops_changed_kinds():
    plan = IndexPlan(make_relation(), RFDS)
    candidate_rows(plan, 0, RFDS[0].lhs)  # builds the exact Zip index
    assert plan._indexes["Zip"].kind == "exact"
    loose = parse_rfd("Zip(<=2) -> City(<=1)")
    plan.update_rfds([loose])
    assert "Zip" not in plan._indexes  # dropped, rebuilt lazily
    rows = candidate_rows(plan, 0, loose.lhs, [loose])
    assert plan._indexes["Zip"].kind == "qgram"
    assert 1 in rows.tolist()


def test_counters_shape():
    plan = IndexPlan(make_relation(), RFDS)
    candidate_rows(plan, 0, RFDS[0].lhs)
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
    plan's totals move across a run by exactly what that run reports
    (an append in between counts for neither), and the engine leaves
    the shared plan attached for its owner."""
    from repro import Renuver, inject_missing
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
    plan.attach()
    renuver = Renuver(rfds, index_plan=plan)

    def run():
        before = plan.counters
        counters = renuver.impute(dirty, inplace=True).report.kernel_counters
        for name, total in plan.counters.items():
            assert counters[name] == total - before[name], name
        return counters

    runs = [run()]
    # Run 2's work: appended copies of ten rows, City blanked.
    city = dirty.index_of("City")
    appended = []
    for row in range(10):
        values = list(dirty.row_values(row))
        values[city] = MISSING
        appended.append(values)
    dirty.append_rows(appended)
    runs.append(run())
    # The second run finds most matches memoized, yet the plan still
    # serves its LHS queries.
    assert runs[0]["index_probes"] > runs[1]["index_probes"] >= 0
    assert runs[1]["index_served_probes"] > 0
    assert runs[1]["index_builds"] == 0  # built once, reused
    assert plan._attached
    plan.close()
