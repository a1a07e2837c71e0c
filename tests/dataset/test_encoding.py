"""The relation's dictionary encoding of a column, under writes.

After any sequence of ``set_value``, ``append_rows`` and ``copy``, over
string, integer, float (``-0.0``, ``0.0``, infinities) and boolean
columns with MISSING cells, every built encoding must describe its
column: the codes decode back to it, equal values share a code and
unequal values do not, the live counts are right, the floats are the
values', ``generation`` moves exactly when a value gains its first row
or loses its last, and a copy's writes never reach its original.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.attribute import Attribute, AttributeType
from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation

NAME = "A"

VALUES = {
    AttributeType.STRING: st.one_of(
        st.sampled_from(["a", "b", "ab", "日本", " ", ""]),
        st.text(max_size=3),
    ),
    AttributeType.INTEGER: st.integers(min_value=-3, max_value=3),
    AttributeType.FLOAT: st.one_of(
        st.sampled_from([-0.0, 0.0, 1.5, 2.0, math.inf, -math.inf]),
        st.floats(allow_nan=False, width=16),
    ),
    AttributeType.BOOLEAN: st.booleans(),
}


def cells(attr_type):
    return st.one_of(st.just(MISSING), VALUES[attr_type])


@st.composite
def scenarios(draw):
    attr_type = draw(st.sampled_from(list(VALUES)))
    column = draw(st.lists(cells(attr_type), min_size=1, max_size=8))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(
                st.just("set"), st.integers(0, 11), cells(attr_type)
            ),
            st.tuples(
                st.just("append"),
                st.lists(cells(attr_type), min_size=1, max_size=3),
            ),
            st.tuples(st.just("copy"), st.booleans()),
        ),
        max_size=25,
    ))
    return attr_type, column, ops


def snapshot(encoding):
    return (
        encoding.codes.tolist(), encoding.present.tolist(),
        list(encoding.values), list(encoding.counts), encoding.generation,
    )


def assert_describes(relation):
    """The built encoding of ``relation``'s column describes it."""
    encoding = relation.encoding(NAME)
    column = relation.column(NAME)
    codes = encoding.codes.tolist()
    assert len(codes) == len(column)
    assert encoding.present.tolist() == [code >= 0 for code in codes]
    for value, code in zip(column, codes):
        assert (code < 0) == (value is MISSING)
        if code >= 0:
            assert encoding.values[code] == value
    present = [(value, code) for value, code in zip(column, codes)
               if code >= 0]
    for value, code in present:
        for other, other_code in present:
            assert (code == other_code) == (value == other)
    live = Counter(code for code in codes if code >= 0)
    assert encoding.counts == [
        live[code] for code in range(len(encoding.values))
    ]
    if encoding.floats is not None:
        assert math.isnan(encoding.floats[-1])
        assert [encoding.floats[code] for code in range(
            len(encoding.values)
        )] == [float(value) for value in encoding.values]


def distinct(relation):
    return {value for value in relation.column(NAME) if value is not MISSING}


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_encoding_follows_every_write(case):
    attr_type, column, ops = case
    relation = Relation([Attribute(NAME, attr_type)], {NAME: column})
    relation.encoding(NAME)
    assert_describes(relation)
    originals: list[tuple[Relation, tuple]] = []
    for op in ops:
        encoding = relation.encoding(NAME)
        if op[0] == "set":
            row = op[1] % relation.n_tuples
            before = Counter(
                value for value in relation.column(NAME)
                if value is not MISSING
            )
            old = relation.value(row, NAME)
            generation = encoding.generation
            relation.set_value(row, NAME, op[2])
            new = relation.value(row, NAME)
            moves = 0
            if old is not MISSING and old != new and before[old] == 1:
                moves += 1  # the old value lost its last row
            if new is not MISSING and old != new and before[new] == 0:
                moves += 1  # the new value gained its first row
            assert encoding.generation - generation == moves
        elif op[0] == "append":
            before = distinct(relation)
            generation = encoding.generation
            relation.append_rows([[value] for value in op[1]])
            moved = encoding.generation != generation
            assert moved == (distinct(relation) != before)
        else:
            # Work on a copy from here on; the original must not move.
            copy = relation.copy()
            if op[1]:
                copy.encoding(NAME)
            originals.append((relation, snapshot(encoding)))
            relation = copy
        assert_describes(relation)
    for original, state in originals:
        assert snapshot(original.encoding(NAME)) == state
        assert_describes(original)


def test_the_encoding_is_patched_before_listeners_run():
    relation = Relation(
        [Attribute(NAME, AttributeType.STRING)], {NAME: ["x", MISSING]}
    )
    encoding = relation.encoding(NAME)
    seen = []

    def listener(row, name, value):
        code = int(encoding.codes[row])
        seen.append(MISSING if code < 0 else encoding.values[code])

    relation.add_mutation_listener(listener)
    relation.set_value(1, NAME, "y")
    relation.append_rows([["z"]])
    relation.set_value(0, NAME, MISSING)
    assert seen == ["y", "z", MISSING]


def test_floats_read_booleans_as_zero_and_one():
    relation = Relation(
        [Attribute(NAME, AttributeType.BOOLEAN)],
        {NAME: [True, MISSING, False]},
    )
    encoding = relation.encoding(NAME)
    floats = encoding.floats[encoding.codes]
    assert floats[0] == 1.0 and floats[2] == 0.0
    assert np.isnan(floats[1])
