"""Engine-vs-scalar-oracle bit-identity on every builtin dataset.

The blocking subsystem's contract (``docs/INDEXING.md``) is that the
blocking-index plan changes *retrieval*, never *results*: the imputed
relation, the per-cell outcome list and even the diagnostic candidate
sets of :meth:`Renuver.explain` must match the scalar oracle's
all-pairs scan exactly.  Every run answers its LHS questions through
the plan, at any size.  This suite enforces that on all five builtin
datasets with *discovered* RFD sets (so the constraint mix is whatever
discovery produces, not a hand-picked friendly one) and on a seeded
synthetic Physician instance whose size scales with
``REPRO_BLOCKING_EQUIV_TUPLES`` — the CI ``blocking`` job sets 10000;
the tier-1 default stays small enough for every local run.
"""

from __future__ import annotations

import os

import pytest

from repro import (
    DiscoveryConfig,
    Renuver,
    discover_rfds,
    inject_missing,
    load_dataset,
)
from repro.datasets.physician import generate_physician
from repro.rfd import parse_rfd
from tests.oracle import ScalarRenuver

pytestmark = pytest.mark.blocking

#: Small slices of every builtin dataset: discovery and the scalar
#: oracle stay fast, and the engine still exercises probes on each.
SIZES = {
    "restaurant": 100,
    "cars": 90,
    "glass": 80,
    "bridges": 70,
    "physician": 100,
}

SYNTHETIC_RFDS = (
    "Zip(<=0) -> City(<=0)",
    "Zip(<=0) -> State(<=0)",
    "OrgId(<=0) -> Street(<=0)",
    "OrgId(<=0) -> Zip(<=0)",
    "Organization(<=1) -> City(<=2)",
    "Street(<=1) -> Zip(<=2)",
    "OrgId(<=0), GradYear(<=1) -> YearsExperience(<=1)",
)


def run_both(rfds, dirty):
    oracle = ScalarRenuver(rfds).impute(dirty)
    engine = Renuver(rfds).impute(dirty)
    return oracle, engine


def assert_identical(oracle, engine):
    assert oracle.report.outcomes == engine.report.outcomes
    assert oracle.relation.equals(engine.relation)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_builtin_dataset_equivalence(name):
    relation = load_dataset(name, n_tuples=SIZES[name], seed=0)
    rfds = discover_rfds(
        relation,
        DiscoveryConfig(
            threshold_limit=2,
            max_lhs_size=2,
            grid_size=2,
            max_per_rhs=8,
            max_pairs=50_000,
        ),
    ).all_rfds
    assert rfds, name
    dirty = inject_missing(relation, rate=0.05, seed=3).relation
    oracle, engine = run_both(rfds, dirty)
    assert_identical(oracle, engine)
    assert engine.report.kernel_counters["index_probes"] > 0, name


@pytest.mark.parametrize("name", ["restaurant", "physician"])
def test_explain_candidate_sets_identical(name):
    relation = load_dataset(name, n_tuples=SIZES[name], seed=0)
    rfds = discover_rfds(
        relation,
        DiscoveryConfig(
            threshold_limit=2,
            max_lhs_size=2,
            grid_size=2,
            max_per_rhs=8,
            max_pairs=50_000,
        ),
    ).all_rfds
    dirty = inject_missing(relation, rate=0.05, seed=3).relation
    oracle = ScalarRenuver(rfds)
    engine = Renuver(rfds)
    for row, attribute in dirty.missing_cells()[:5]:
        assert oracle.explain(dirty, row, attribute) == engine.explain(
            dirty, row, attribute
        ), (name, row, attribute)


def test_synthetic_physician_equivalence():
    n_tuples = int(os.environ.get("REPRO_BLOCKING_EQUIV_TUPLES", "800"))
    relation = generate_physician(n_tuples, seed=0)
    rfds = [parse_rfd(text) for text in SYNTHETIC_RFDS]
    dirty = inject_missing(
        relation,
        count=max(20, n_tuples // 50),
        seed=5,
        attributes=("City", "State", "Street", "Zip", "YearsExperience"),
    ).relation
    oracle, engine = run_both(rfds, dirty)
    assert_identical(oracle, engine)
    counters = engine.report.kernel_counters
    assert counters["index_served_probes"] > 0
    assert counters["index_pruned_pairs"] > 0
    assert oracle.report.imputed_count > 0  # the comparison is non-vacuous


def test_small_instances_answer_through_the_plan():
    """There is no size switch: a 200-tuple run probes the plan too."""
    relation = generate_physician(200, seed=0)
    rfds = [parse_rfd(text) for text in SYNTHETIC_RFDS]
    dirty = inject_missing(relation, count=10, seed=5).relation
    oracle, engine = run_both(rfds, dirty)
    counters = engine.report.kernel_counters
    assert counters["index_probes"] > 0
    assert counters["index_served_probes"] > 0
    assert_identical(oracle, engine)
