"""Scalar-vs-vectorized equivalence on every seed dataset.

The vectorized donor-scan engine, which answers every LHS question
through its blocking-index plan, claims *bit-identical* imputation
outcomes: same candidates in the same order, same accept/reject
decisions, same key-RFD partitions.  This suite runs the scalar engine
and the production engine over all five seed generators at smoke scale
with discovered RFDs and injected missing values and compares the full
reports cell by cell
(:class:`~repro.core.report.CellOutcome` is a frozen dataclass, so
``==`` covers value, source row, RFD, distance and cluster threshold).
"""

from __future__ import annotations

import pytest

from repro import (
    DiscoveryConfig,
    Renuver,
    RenuverConfig,
    discover_rfds,
    inject_missing,
    load_dataset,
)
from repro.core.report import OutcomeStatus
from repro.dataset import MISSING, Attribute, Relation
from repro.dataset.attribute import AttributeType
from repro.rfd import parse_rfd
from tests.oracle import ScalarRenuver

SMOKE_SIZES = {
    "restaurant": 120,
    "cars": 100,
    "glass": 80,
    "bridges": 60,
    "physician": 80,
}

DISCOVERY = DiscoveryConfig(
    threshold_limit=3,
    max_lhs_size=2,
    grid_size=2,
    max_per_rhs=8,
    max_pairs=200_000,
)


def run_both(name: str, **config_changes):
    """The scalar run and the production run."""
    relation = load_dataset(name, n_tuples=SMOKE_SIZES[name], seed=0)
    rfds = discover_rfds(relation, DISCOVERY).all_rfds
    dirty = inject_missing(relation, rate=0.03, seed=7).relation
    config = RenuverConfig(**config_changes)
    return (
        ScalarRenuver(rfds, config).impute(dirty),
        Renuver(rfds, config).impute(dirty),
    )


def assert_same_run(scalar, other):
    assert scalar.report.outcomes == other.report.outcomes
    assert scalar.relation.equals(other.relation)


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_identical_outcomes_on_seed_dataset(name):
    scalar, other = run_both(name)
    assert_same_run(scalar, other)
    assert scalar.report.key_rfds_initial == other.report.key_rfds_initial
    assert (
        scalar.report.key_rfds_reactivated
        == other.report.key_rfds_reactivated
    )
    assert other.report.kernel_counters["index_probes"] > 0


def test_identical_outcomes_under_complete_scope():
    assert_same_run(*run_both("restaurant", keyness_scope="complete"))


def test_identical_outcomes_with_rhs_checks_and_cap():
    assert_same_run(*run_both(
        "physician", check_rhs_rfds=True, max_candidates=3
    ))


def test_missing_lhs_cell_forms_no_pair():
    """MISSING on an RFD's LHS (docs/ALGORITHMS.md): the only row that
    could match target 0 on ``A, B`` is MISSING on ``A``, and target 4
    is MISSING on ``A`` itself.  Either pair only *possibly* satisfies
    the LHS, so neither gives a candidate — in the engine as in the
    scalar oracle — while rows 2 and 5 keep the RFD non-key."""
    relation = Relation(
        [Attribute(name, AttributeType.STRING) for name in "ABC"],
        {
            "A": ["x", MISSING, "y", "y", MISSING, "y"],
            "B": ["b1", "b1", "b2", "b3", "b2", "b2"],
            "C": [MISSING, "c1", "c2", "c2", MISSING, "c2"],
        },
        name="missing-lhs",
    )
    rfds = [parse_rfd("A(<=0), B(<=0) -> C(<=0)")]
    scalar = ScalarRenuver(rfds).impute(relation)
    engine = Renuver(rfds).impute(relation)
    assert_same_run(scalar, engine)
    assert engine.report.key_rfds_initial == 0
    outcomes = engine.report.cell_outcomes
    for cell in ((0, "C"), (4, "C")):
        assert outcomes[cell] == OutcomeStatus.NO_CANDIDATES.value
