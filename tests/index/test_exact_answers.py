"""The plan's exact LHS answers against a full-mask scan.

The engine answers each LHS constraint — string, numeric or boolean —
from the values the plan matched once per (attribute, value,
threshold), reading the live rows of those values.  Whatever writes
reach the relation in between — Alg. 4's tentative writes and
rollbacks, final writes, a value the column never held, appended rows
— ``IndexPlan.lhs_rows`` must return exactly the rows a test-side
AND of full-column masks selects (``subset_vector`` over every row,
one mask per constraint), for every RFD and every eligibility mask.

The relation is physician at ``REPRO_BLOCKING_EQUIV_TUPLES`` tuples
(the CI ``blocking`` job sets 10000; the tier-1 default is small).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.donor_scan import VectorizedEngine, string_clamp_limits
from repro.dataset.attribute import AttributeType
from repro.dataset.missing import MISSING
from repro.datasets.physician import generate_physician
from repro.distance.kernels import DonorScanKernels
from repro.evaluation.injection import inject_missing
from repro.index import IndexPlan
from repro.rfd import parse_rfd

pytestmark = pytest.mark.blocking

N_TUPLES = int(os.environ.get("REPRO_BLOCKING_EQUIV_TUPLES", "400"))

#: The benchmark's pinned RFDs, plus a composite string LHS, a loose
#: threshold on short values (the q-gram length walk), a boolean LHS
#: and a numeric window wider than one value.
RFDS = [
    parse_rfd(text)
    for text in (
        "Zip(<=0) -> City(<=0)",
        "Zip(<=0) -> State(<=0)",
        "OrgId(<=0) -> Street(<=0)",
        "OrgId(<=0) -> Zip(<=0)",
        "Organization(<=1) -> City(<=2)",
        "Street(<=1) -> Zip(<=2)",
        "Street(<=1) -> City(<=2)",
        "OrgId(<=0), GradYear(<=1) -> YearsExperience(<=1)",
        "Zip(<=0), Street(<=1) -> Phone(<=0)",
        "City(<=2) -> State(<=0)",
        "AcceptsMedicare(<=0), Zip(<=0) -> Organization(<=1)",
        "GroupSize(<=5) -> AcceptsMedicare(<=0)",
    )
]
WRITTEN = (
    "Zip", "Street", "Organization", "City", "OrgId", "GradYear",
    "GroupSize", "AcceptsMedicare",
)


@functools.cache
def base_relation():
    relation = generate_physician(N_TUPLES, seed=0)
    return inject_missing(
        relation,
        count=max(20, N_TUPLES // 20),
        seed=3,
        attributes=(
            "Zip", "Street", "Organization", "City", "OrgId",
            "GroupSize", "AcceptsMedicare",
        ),
    ).relation


rows = st.integers(min_value=0, max_value=N_TUPLES - 1)
attributes = st.sampled_from(WRITTEN)
ops = st.one_of(
    # Alg. 4: copy a donor's value into a cell, check, roll back.
    st.tuples(st.just("tentative"), rows, attributes, rows),
    # A final write of a donor's value, or of MISSING.
    st.tuples(st.just("write"), rows, attributes, rows),
    st.tuples(st.just("blank"), rows, attributes, rows),
    # A value the column never held.
    st.tuples(st.just("fresh"), rows, attributes, rows),
    # A session append: a copy of one row, one cell blanked.
    st.tuples(st.just("append"), rows, attributes, rows),
)


def engines(relation, plan):
    """The engine over the shared plan, and the reference's kernels."""
    blocked = VectorizedEngine(relation, RFDS, plan=plan)
    full = DonorScanKernels(
        relation, string_limits=string_clamp_limits(RFDS)
    )
    return blocked, full


def full_mask_rows(relation, full, target, rfd, mask):
    """The rows other than ``target`` (within ``mask``) satisfying every
    LHS constraint of ``rfd``, by one full-column mask per constraint;
    ``None`` when there are none."""
    every = np.arange(relation.n_tuples)
    keep = np.ones(every.size, dtype=bool) if mask is None else mask.copy()
    keep[target] = False
    for constraint in rfd.lhs:
        keep &= (
            full.subset_vector(target, constraint.attribute, every)
            <= constraint.threshold
        )
    return np.flatnonzero(keep) if keep.any() else None


def masks(relation, full, seed):
    n = relation.n_tuples
    random = np.random.default_rng(seed).random(n) < 0.7
    return [None, full.present_mask("City").copy(), random]


def assert_exact(relation, blocked, full, targets, seed):
    with np.errstate(invalid="ignore"):
        for mask in masks(relation, full, seed):
            for target in targets:
                for rfd in RFDS:
                    got = blocked.plan.lhs_rows(
                        target, rfd.lhs, blocked.kernels.subset_vector, mask
                    )
                    want = full_mask_rows(relation, full, target, rfd, mask)
                    assert (got is None) == (want is None), (target, rfd)
                    if got is not None:
                        assert got.tolist() == want.tolist(), (target, rfd)


def write(relation, op, row, name, other, fresh):
    """Apply one non-append op to ``relation``."""
    if op == "fresh":
        # One edit from a value the column holds, so it joins that
        # value's matches at threshold 1.
        value = relation.value(other, name)
        kind = relation.attribute(name).type
        if kind is AttributeType.BOOLEAN:
            value = value is MISSING or not value
        elif kind.is_numeric:
            value = 3000 + fresh
        elif value is MISSING:
            value = "NEW VALUE"
        else:
            value = f"{value}{fresh}"
    elif op == "blank":
        value = MISSING
    else:
        value = relation.value(other, name)
    relation.set_value(row, name, value)


@settings(max_examples=25, deadline=None)
@given(script=st.lists(ops, min_size=1, max_size=12))
def test_plan_answers_equal_full_mask_scan(script):
    relation = base_relation().copy()
    plan = IndexPlan(relation, RFDS)
    blocked, full = engines(relation, plan)
    try:
        for step, (op, row, name, other) in enumerate(script):
            # Answer first, so the plan's matches are memoized before
            # the write they must survive or be dropped by.
            assert_exact(relation, blocked, full, [row, other], step)
            if op == "append":
                values = list(relation.row_values(other))
                values[relation.index_of(name)] = MISSING
                # Kernels are per run; the plan follows the append.
                blocked.close()
                relation.append_rows([values])
                blocked, full = engines(relation, plan)
                targets = [relation.n_tuples - 1, row, other]
            elif op == "tentative":
                old = relation.value(row, name)
                write(relation, op, row, name, other, step)
                assert_exact(relation, blocked, full, [row, other], step)
                relation.set_value(row, name, old)
                targets = [row, other]
            else:
                write(relation, op, row, name, other, step)
                targets = [row, other]
            assert_exact(relation, blocked, full, targets, step)
        assert plan.served > 0  # the comparison is non-vacuous
    finally:
        blocked.close()
        plan.close()
