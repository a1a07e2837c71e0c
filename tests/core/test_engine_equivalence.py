"""Scalar-vs-vectorized equivalence on every seed dataset.

The vectorized donor-scan engine claims *bit-identical* imputation
outcomes, with or without a blocking-index plan: same candidates in the
same order, same accept/reject decisions, same key-RFD partitions.  This
suite runs the scalar engine and both vectorized configurations over
all five seed generators at smoke scale with discovered RFDs and
injected missing values and compares the full reports cell by cell
(:class:`~repro.core.report.CellOutcome` is a frozen dataclass, so
``==`` covers value, source row, RFD, distance and cluster threshold).
"""

from __future__ import annotations

import pytest

from repro import (
    DiscoveryConfig,
    RenuverConfig,
    discover_rfds,
    inject_missing,
    load_dataset,
)
from tests.oracle import BlockedRenuver, ScalarRenuver, UnblockedRenuver

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


#: The runs compared against the scalar oracle: the vectorized engine
#: scanning full columns, and the same engine probing a blocking-index
#: plan first.
VARIANTS = {
    "vectorized": UnblockedRenuver,
    "blocked": BlockedRenuver,
}


def run_all(name: str, **config_changes):
    """The scalar run plus one run per entry of :data:`VARIANTS`."""
    relation = load_dataset(name, n_tuples=SMOKE_SIZES[name], seed=0)
    rfds = discover_rfds(relation, DISCOVERY).all_rfds
    dirty = inject_missing(relation, rate=0.03, seed=7).relation
    scalar = ScalarRenuver(
        rfds, RenuverConfig(**config_changes)
    ).impute(dirty)
    others = {
        label: variant(rfds, RenuverConfig(**config_changes)).impute(dirty)
        for label, variant in VARIANTS.items()
    }
    return scalar, others


def assert_same_run(scalar, other):
    assert scalar.report.outcomes == other.report.outcomes
    assert scalar.relation.equals(other.relation)


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_identical_outcomes_on_seed_dataset(name):
    scalar, others = run_all(name)
    for other in others.values():
        assert_same_run(scalar, other)
        assert (
            scalar.report.key_rfds_initial
            == other.report.key_rfds_initial
        )
        assert (
            scalar.report.key_rfds_reactivated
            == other.report.key_rfds_reactivated
        )
    assert others["blocked"].report.kernel_counters["index_probes"] > 0


def test_identical_outcomes_under_complete_scope():
    scalar, others = run_all("restaurant", keyness_scope="complete")
    for other in others.values():
        assert_same_run(scalar, other)


def test_identical_outcomes_with_rhs_checks_and_cap():
    scalar, others = run_all(
        "physician", check_rhs_rfds=True, max_candidates=3
    )
    for other in others.values():
        assert_same_run(scalar, other)
