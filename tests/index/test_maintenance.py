"""Incremental-maintenance round-trips for the blocking indexes.

Property: an index built on a column and then fed a random
``update(row, value)`` sequence answers every probe exactly like a
fresh index built on the final column (for the string indexes, the
rows of every value their filters keep) — including appends past the
original length, values becoming ``MISSING`` (NULL), empty strings and
non-ASCII text.  ``max_result`` stays ``None`` here: the numeric
index's conservative pre-cap may *decline* differently between a dirty
overlay and a fresh build (declines are never wrong, just slower), so
capped equality is a plan-level property, not an index-level one.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.missing import MISSING
from repro.index import ExactMatchIndex, NumericWindowIndex, QGramIndex

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


def final_column(column, updates):
    values = list(column)
    for row, value in updates:
        if row >= len(values):
            values.extend([MISSING] * (row + 1 - len(values)))
        values[row] = value
    return values


def ask(index, value, threshold):
    """A numeric window's superset, or the rows of every value a string
    index's filters keep (each candidate accepted)."""
    if isinstance(index, NumericWindowIndex):
        return index.probe(value, threshold)
    keys = index.match(
        value, threshold, lambda rows: np.ones(rows.size, dtype=bool)
    )
    return None if keys is None else index.rows(keys)


def assert_same_probes(maintained, fresh, probes, thresholds):
    for value in probes:
        for threshold in thresholds:
            lhs = ask(maintained, value, threshold)
            rhs = ask(fresh, value, threshold)
            assert (lhs is None) == (rhs is None), (value, threshold)
            if lhs is not None:
                assert lhs.tolist() == rhs.tolist(), (value, threshold)


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(string_values, max_size=12),
    updates=string_updates(max_row=18),
)
def test_qgram_roundtrip(column, updates):
    maintained = QGramIndex(column)
    for row, value in updates:
        maintained.update(row, value)
    final = final_column(column, updates)
    fresh = QGramIndex(final)
    probes = [v for v in final if v is not MISSING][:8] + ["", "ROME", "xy"]
    assert_same_probes(maintained, fresh, probes, [0.0, 1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(string_values, max_size=12),
    updates=string_updates(max_row=18),
)
def test_exact_roundtrip(column, updates):
    maintained = ExactMatchIndex(column)
    for row, value in updates:
        maintained.update(row, value)
    final = final_column(column, updates)
    fresh = ExactMatchIndex(final)
    probes = [v for v in final if v is not MISSING][:8] + ["", "ROME"]
    assert_same_probes(maintained, fresh, probes, [0.0, 0.5])


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(numeric_values, max_size=12),
    updates=numeric_updates(max_row=18),
)
def test_numeric_roundtrip(column, updates):
    maintained = NumericWindowIndex(column)
    for row, value in updates:
        maintained.update(row, value)
    final = final_column(column, updates)
    fresh = NumericWindowIndex(final)
    probes = [v for v in final if v is not MISSING][:8] + [0.0, 1.5, -3.0]
    assert_same_probes(maintained, fresh, probes, [0.0, 1.0, 10.0])


def test_numeric_rebuild_threshold_crossing():
    # Push past the dirty-overlay limit so the round-trip covers the
    # automatic rebuild, not just the overlay path.
    column = [float(i) for i in range(10)]
    maintained = NumericWindowIndex(column)
    for row in range(80):
        maintained.update(row, float(row % 7))
    final = [float(i % 7) for i in range(80)]
    fresh = NumericWindowIndex(final)
    assert_same_probes(
        maintained, fresh, [0.0, 3.0, 6.5], [0.0, 1.0, 100.0]
    )


def test_updates_count_in_stats():
    index = ExactMatchIndex(["A"])
    index.update(0, "B")
    index.update(5, MISSING)
    assert index.stats.updates == 2
