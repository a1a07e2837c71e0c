"""Incremental-maintenance round-trips for the blocking indexes.

Property: an index built on a column and then fed a random
``update(row, value)`` sequence answers every probe exactly like a
fresh index built on the final column — including appends past the
original length, values becoming ``MISSING`` (NULL), empty strings and
non-ASCII text.  The string indexes are compared on the rows of every
value their filters keep, the numeric window on its exact answer.  And
``generation`` moves exactly when a key gains its first row or loses
its last.
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


def everything(rows):
    return np.ones(rows.size, dtype=bool)


def ask(index, value, threshold, within=everything):
    """The rows of every value ``within`` accepts among those the
    index's filters keep."""
    keys = index.match(value, threshold, within)
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


def numeric_within(column, target, threshold):
    """The engine's ``|x - v| <= tau`` on the holder rows."""
    def within(rows):
        return np.array(
            [abs(float(column[row]) - float(target)) <= threshold
             for row in rows.tolist()],
            dtype=bool,
        )
    return within


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
    for value in probes:
        for threshold in [0.0, 1.0, 10.0]:
            within = numeric_within(final, value, threshold)
            lhs = ask(maintained, value, threshold, within)
            rhs = ask(fresh, value, threshold, within)
            assert lhs.tolist() == rhs.tolist(), (value, threshold)
            assert lhs.tolist() == [
                row for row, other in enumerate(final)
                if other is not MISSING
                and abs(float(other) - float(value)) <= threshold
            ], (value, threshold)


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(numeric_values, max_size=12),
    updates=numeric_updates(max_row=18),
)
def test_generation_moves_on_first_and_last_row(column, updates):
    """A write moves ``generation`` exactly when the set of keys
    changes; a numeric index rebuilds its sorted keys only then."""
    index = NumericWindowIndex(column)
    values = list(column)

    def keys():
        return {float(v) for v in values if v is not MISSING}

    for row, value in updates:
        before, generation = keys(), index.generation
        built = index._sorted_keys  # noqa: SLF001 - layout under test
        values = final_column(values, [(row, value)])
        index.update(row, value)
        changed = keys() != before
        assert (index.generation != generation) == changed
        index.match(0.0, 1.0, everything)
        after = index._sorted_keys  # noqa: SLF001
        assert (after is not built) == changed
        assert after.tolist() == sorted(keys())


def test_updates_count_in_stats():
    index = ExactMatchIndex(["A"])
    index.update(0, "B")
    index.update(5, MISSING)
    assert index.stats.updates == 2
