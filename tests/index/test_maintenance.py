"""Incremental-maintenance round-trips for the blocking indexes.

Property: an index built over a relation's column and then fed a
random sequence of writes through ``set_value`` (and ``append_rows``
past the original length) answers every probe exactly like a fresh
index built over a relation of the final column — including values
becoming ``MISSING`` (NULL), empty strings (stored as MISSING) and
non-ASCII text.  The string indexes are compared on the rows of every
value their filters keep, the numeric window on its exact answer.  And
a numeric index re-sorts its codes exactly when the encoding's
``generation`` moves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.attribute import AttributeType
from repro.dataset.missing import MISSING
from repro.index import ExactMatchIndex, NumericWindowIndex, QGramIndex
from tests.index.column import NAME, ask, follow, one_column, write

texts = st.one_of(
    st.just(""),
    st.sampled_from(["ROME", "ROM", "日本語", "a b", "N/Ax"]),
    st.text(
        alphabet=st.characters(codec="utf-8", categories=("L", "N", "Zs")),
        max_size=8,
    ),
)
string_values = st.one_of(st.just(MISSING), texts)
numeric_values = st.one_of(
    st.just(MISSING),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(min_value=-100, max_value=100),
)


def string_updates(max_row: int):
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=max_row), string_values),
        max_size=30,
    )


def numeric_updates(max_row: int):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=max_row), numeric_values
        ),
        max_size=30,
    )


def roundtrip(kind, column, updates, attr_type=AttributeType.STRING):
    """The index maintained through ``updates``, and a fresh one over
    the final column: ``((index, relation), (index, relation))``."""
    relation = one_column(column, attr_type)
    maintained = kind(relation.encoding(NAME))
    follow(relation, maintained)
    for row, value in updates:
        write(relation, row, value)
    final = one_column(relation.column(NAME), attr_type)
    fresh = kind(final.encoding(NAME))
    follow(final, fresh)
    return (maintained, relation), (fresh, final)


def everything(rows):
    return np.ones(rows.size, dtype=bool)


def assert_same_probes(maintained, fresh, probes, thresholds):
    for value in probes:
        for threshold in thresholds:
            lhs = ask(*maintained, value, threshold, everything)
            rhs = ask(*fresh, value, threshold, everything)
            assert (lhs is None) == (rhs is None), (value, threshold)
            if lhs is not None:
                assert lhs.tolist() == rhs.tolist(), (value, threshold)


def present(relation):
    return [v for v in relation.column(NAME) if v is not MISSING]


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(string_values, max_size=12),
    updates=string_updates(max_row=18),
)
def test_qgram_roundtrip(column, updates):
    maintained, fresh = roundtrip(QGramIndex, column, updates)
    probes = present(fresh[1])[:8] + ["", "ROME", "xy"]
    assert_same_probes(maintained, fresh, probes, [0.0, 1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(string_values, max_size=12),
    updates=string_updates(max_row=18),
)
def test_exact_roundtrip(column, updates):
    maintained, fresh = roundtrip(ExactMatchIndex, column, updates)
    probes = present(fresh[1])[:8] + ["", "ROME"]
    assert_same_probes(maintained, fresh, probes, [0.0, 0.5])


def numeric_within(relation, target, threshold):
    """The engine's ``|x - v| <= tau`` on the holder rows."""
    def within(rows):
        return np.array(
            [abs(float(relation.value(row, NAME)) - float(target))
             <= threshold for row in rows.tolist()],
            dtype=bool,
        )
    return within


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(numeric_values, max_size=12),
    updates=numeric_updates(max_row=18),
)
def test_numeric_roundtrip(column, updates):
    maintained, fresh = roundtrip(
        NumericWindowIndex, column, updates, AttributeType.FLOAT
    )
    final = fresh[1]
    probes = present(final)[:8] + [0.0, 1.5, -3.0]
    for value in probes:
        for threshold in [0.0, 1.0, 10.0]:
            lhs = ask(*maintained, value, threshold,
                      numeric_within(maintained[1], value, threshold))
            rhs = ask(*fresh, value, threshold,
                      numeric_within(final, value, threshold))
            assert lhs.tolist() == rhs.tolist(), (value, threshold)
            assert lhs.tolist() == [
                row for row, other in enumerate(final.column(NAME))
                if other is not MISSING
                and abs(float(other) - float(value)) <= threshold
            ], (value, threshold)


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(numeric_values, max_size=12),
    updates=numeric_updates(max_row=18),
)
def test_numeric_index_resorts_only_when_generation_moves(column, updates):
    """A numeric index re-sorts its live codes exactly when the
    encoding's generation has moved, and holds them in float order."""
    relation = one_column(column, AttributeType.FLOAT)
    encoding = relation.encoding(NAME)
    index = NumericWindowIndex(encoding)
    follow(relation, index)
    for row, value in updates:
        generation = encoding.generation
        built = index._sorted_floats  # noqa: SLF001 - layout under test
        write(relation, row, value)
        # Any value's code will do: the window reads the live codes.
        index.match(0 if encoding.values else -1, 1.0, everything)
        after = index._sorted_floats  # noqa: SLF001
        assert (after is not built) == (encoding.generation != generation)
        assert after.tolist() == sorted(
            {float(v) for v in present(relation)}
        )


def test_updates_count_in_stats():
    relation = one_column(["A"])
    index = ExactMatchIndex(relation.encoding(NAME))
    follow(relation, index)
    relation.set_value(0, NAME, "B")
    relation.append_rows([[MISSING]])
    assert index.stats.updates == 2
