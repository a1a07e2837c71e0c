"""The engine's keyness test against the scalar all-pairs oracle.

:meth:`VectorizedEngine.partition_key_rfds` settles Definition 3.4 per
distinct LHS value: rows without a neighbour within τ in code order are
dropped, an LHS compared wholly in code order is settled by comparing
rows some places apart in that order, duplicate LHS tuples decide
"non-key" at once, and only the rest are queried row by row.
``repro.rfd.keyness.partition_key_rfds`` checks every pair.  Both must
split every RFD set the same way, and the Algorithm 1 line 14 re-check
(``pair_reactivates``) must agree after writes, on relations with

* true keys (all LHS tuples distinct) and duplicate LHS tuples;
* MISSING on the LHS;
* numeric windows (with a non-finite value), booleans, and an
  overridden attribute whose distance from a value to itself is not
  zero, so equal values there never form a pair by themselves;

under both scopes and index caps of 1, 3 and 4096.  No benchmark input
has a key RFD, so this suite is the check on that branch.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.donor_scan import VectorizedEngine
from repro.dataset import MISSING, Attribute, Relation
from repro.dataset.attribute import AttributeType
from repro.distance.base import DistanceFunction
from repro.distance.pattern import PatternCalculator
from repro.index import IndexPlan
from repro.rfd import make_rfd
from repro.rfd.keyness import pair_reactivates, partition_key_rfds

ATTRIBUTES = (
    Attribute("S", AttributeType.STRING),
    Attribute("N", AttributeType.INTEGER),
    Attribute("F", AttributeType.FLOAT),
    Attribute("B", AttributeType.BOOLEAN),
    Attribute("O", AttributeType.STRING),
    Attribute("R", AttributeType.STRING),
)
VALUES = {
    "S": ("ab", "abc", "b", "xyz", "xyzw"),
    "N": (0, 1, 2, 5),
    "F": (0.5, 1.5, math.inf),
    "B": (True, False),
    "O": ("p", "pq", "pqr"),
    "R": ("r1", "r2"),
}
THRESHOLDS = {
    "S": (0, 1, 2),
    "N": (0, 1, 2.5),
    "F": (0, 1),
    "B": (0,),
    "O": (0, 1, 2),
}
#: One more than the length difference: a value is 1 from itself.
OVERRIDES = {
    "O": DistanceFunction("odd", lambda a, b: 1.0 + abs(len(a) - len(b)))
}
CAPS = (1, 3, 4096)
SCOPES = ("all", "complete")


def cells(name):
    return st.sampled_from((MISSING,) + VALUES[name])


def relations(max_rows):
    return st.integers(min_value=2, max_value=max_rows).flatmap(
        lambda n: st.fixed_dictionaries({
            attribute.name: st.lists(
                cells(attribute.name), min_size=n, max_size=n
            )
            for attribute in ATTRIBUTES
        })
    )


def rfd_sets(thresholds):
    lhs_sets = st.lists(
        st.sampled_from(sorted(thresholds)), min_size=1, max_size=3,
        unique=True,
    ).flatmap(
        lambda names: st.tuples(*[
            st.tuples(st.just(name), st.sampled_from(thresholds[name]))
            for name in names
        ])
    )
    return st.lists(lhs_sets, min_size=1, max_size=6).map(
        lambda sets: [make_rfd(list(lhs), ("R", 0)) for lhs in sets]
    )


#: Constraints whose distance is the difference of the column's codes:
#: every LHS over them is settled in code order, without a query.
CODE_ORDER_THRESHOLDS = {
    "S": (0,),
    "N": THRESHOLDS["N"],
    "F": THRESHOLDS["F"],
    "B": THRESHOLDS["B"],
}


def build(columns):
    return Relation(ATTRIBUTES, columns, name="keyness")


def engine_for(relation, rfds, cap):
    plan = IndexPlan(
        relation, rfds, max_group_size=cap, override_names=OVERRIDES
    )
    return VectorizedEngine(
        relation, rfds, overrides=OVERRIDES, plan=plan
    )


def close(engine):
    engine.close()
    engine.plan.close()


def assert_same_partition(engine, calculator, rfds):
    for scope in SCOPES:
        assert engine.partition_key_rfds(
            rfds, scope=scope
        ) == partition_key_rfds(rfds, calculator, scope=scope), scope


def assert_same_reactivation(engine, calculator, rfds, n_tuples):
    for scope in SCOPES:
        for rfd in rfds:
            for row in range(n_tuples):
                assert engine.pair_reactivates(
                    rfd, row, scope=scope
                ) == pair_reactivates(
                    rfd, calculator, row, scope=scope
                ), (scope, rfd, row)


writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from([attribute.name for attribute in ATTRIBUTES]),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
    ),
    max_size=4,
)


@pytest.mark.parametrize("cap", CAPS)
@settings(max_examples=60, deadline=None)
@given(columns=relations(7), rfds=rfd_sets(THRESHOLDS), script=writes)
def test_engine_keyness_equals_scalar_oracle(cap, columns, rfds, script):
    relation = build(columns)
    calculator = PatternCalculator(relation, overrides=OVERRIDES)
    engine = engine_for(relation, rfds, cap)
    try:
        assert_same_partition(engine, calculator, rfds)
        n = relation.n_tuples
        for row, name, source, blank in script:
            # A final write: another row's value, or MISSING.
            value = MISSING if blank else relation.value(source % n, name)
            relation.set_value(row % n, name, value)
            assert_same_reactivation(engine, calculator, rfds, n)
        assert_same_partition(engine, calculator, rfds)
    finally:
        close(engine)


@settings(max_examples=300, deadline=None)
@given(
    columns=relations(12), rfds=rfd_sets(CODE_ORDER_THRESHOLDS)
)
def test_code_order_keyness_equals_scalar_oracle(columns, rfds):
    """More rows, and only constraints compared in code order, so that
    rows tie on one constraint and pair only further along on it."""
    relation = build(columns)
    calculator = PatternCalculator(relation, overrides=OVERRIDES)
    engine = engine_for(relation, rfds, 4096)
    try:
        assert_same_partition(engine, calculator, rfds)
    finally:
        close(engine)


def distinct_rows():
    """Every LHS tuple distinct and far apart: keys on S and N."""
    return build({
        "S": ["ab", "xyzw", "klmnop", MISSING],
        "N": [0, 10, 20, 30],
        "F": [0.5, 1.5, math.inf, math.inf],
        "B": [True, True, False, False],
        "O": ["p", "p", "pq", "pqr"],
        "R": ["r1", "r2", "r1", "r2"],
    })


@pytest.mark.parametrize("cap", CAPS)
def test_each_branch_decides_as_the_oracle(cap):
    """One relation, one RFD per branch of the engine's keyness."""
    relation = distinct_rows()
    rfds = [
        make_rfd({"S": 1}, ("R", 0)),          # key: values far apart
        make_rfd({"N": 5}, ("R", 0)),          # key: windows disjoint
        make_rfd({"B": 0}, ("R", 0)),          # duplicate values
        make_rfd({"F": 0}, ("R", 0)),          # inf never pairs
        make_rfd({"F": 1, "B": 0}, ("R", 0)),  # 0.5 and 1.5: non-key
        make_rfd({"O": 0}, ("R", 0)),          # "p" twice, yet key
        make_rfd({"O": 1}, ("R", 0)),          # "p" twice at 1: non-key
        make_rfd({"S": 9, "O": 1}, ("R", 0)),  # overridden, confirmed
    ]
    calculator = PatternCalculator(relation, overrides=OVERRIDES)
    engine = engine_for(relation, rfds, cap)
    try:
        keys, non_keys = engine.partition_key_rfds(rfds)
        assert (keys, non_keys) == partition_key_rfds(rfds, calculator)
        assert keys == [rfds[0], rfds[1], rfds[3], rfds[5]]
        assert_same_partition(engine, calculator, rfds)
        # Writing S of row 3 next to row 0's turns the first RFD
        # non-key, through row 3 only.
        relation.set_value(3, "S", "abd")
        assert_same_reactivation(
            engine, calculator, rfds, relation.n_tuples
        )
        assert engine.pair_reactivates(rfds[0], 3)
        assert not engine.pair_reactivates(rfds[0], 1)
    finally:
        close(engine)


def test_keys_come_back_in_input_order():
    relation = distinct_rows()
    rfds = [
        make_rfd({"B": 0}, ("R", 0)),
        make_rfd({"S": 1}, ("R", 0)),
        make_rfd({"O": 1}, ("R", 0)),
        make_rfd({"N": 5}, ("R", 0)),
    ]
    engine = engine_for(relation, rfds, 4096)
    try:
        assert engine.partition_key_rfds(rfds[::-1]) == (
            [rfds[3], rfds[1]], [rfds[2], rfds[0]]
        )
    finally:
        close(engine)
