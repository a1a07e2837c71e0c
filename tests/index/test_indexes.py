"""Unit probes for the three blocking-index kinds.

Every kind answers exactly (``docs/INDEXING.md``): with a ``within``
that confirms by the true distance, the rows are exactly those whose
distance to the probe value is within threshold, as a brute-force
reference computes them, and the string filters alone keep a superset
of them.  Declines (``None``) are always legal; these tests pin down
when they are *required* (hot groups, probe-cost caps, unsupported
thresholds) and that results are sorted unique int64 arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.missing import MISSING
from repro.distance.levenshtein import levenshtein
from repro.index import (
    EMPTY_ROWS,
    ExactMatchIndex,
    NumericWindowIndex,
    QGramIndex,
)
from tests.index.dict_qgram import DictQGramIndex


def assert_probe_shape(rows: np.ndarray) -> None:
    assert rows.dtype == np.int64
    assert list(rows) == sorted(set(rows.tolist()))


def everything(rows: np.ndarray) -> np.ndarray:
    """A ``within`` accepting every candidate value."""
    return np.ones(rows.size, dtype=bool)


def answer(index, value, threshold, within=everything):
    """A string index's rows for ``value``: with ``everything``, the
    rows of every value its filters keep; ``None`` when it declines."""
    keys = index.match(value, threshold, within)
    return None if keys is None else index.rows(keys)


def levenshtein_within(column, target, threshold):
    """A ``within`` deciding by the edit distance of ``column`` values."""
    def within(rows):
        return np.array(
            [levenshtein(str(column[row]), str(target)) <= threshold
             for row in rows.tolist()],
            dtype=bool,
        )
    return within


def numeric_within(column, target, threshold, convert=float):
    """A ``within`` deciding by ``|x - v|``, as the engine's codec."""
    def within(rows):
        return np.array(
            [abs(convert(column[row]) - convert(target)) <= threshold
             for row in rows.tolist()],
            dtype=bool,
        )
    return within


def numeric_answer(index, column, target, threshold, convert=float):
    return answer(
        index, target, threshold,
        numeric_within(column, target, threshold, convert),
    )


class TestNumericWindowIndex:
    def test_superset_of_true_window(self):
        """The bisect window keeps a superset of the true matches, and
        the confirmed answer is exactly them."""
        column = [3.0, 1.5, MISSING, 2.25, -4.0, 3.0, 0.0, 3.0000001]
        index = NumericWindowIndex(column)
        rows = answer(index, 2.0, 1.0)
        assert_probe_shape(rows)
        assert {0, 1, 3, 5} <= set(rows.tolist())
        exact = numeric_answer(index, column, 2.0, 1.0)
        assert_probe_shape(exact)
        assert exact.tolist() == [0, 1, 3, 5]

    def test_each_key_confirmed_once(self):
        column = [1.0, 1.0, 2.0, 9.0, 2.0]
        index = NumericWindowIndex(column)
        seen = []

        def within(rows):
            seen.append(sorted(column[row] for row in rows.tolist()))
            return np.ones(rows.size, dtype=bool)

        assert index.match(1.5, 1.0, within) == [1.0, 2.0]
        assert seen == [[1.0, 2.0]]  # one holder per key; 9.0 bisected out
        assert index.rows([1.0, 2.0]).tolist() == [0, 1, 2, 4]

    def test_missing_probe_value_is_empty(self):
        index = NumericWindowIndex([1.0, 2.0])
        assert answer(index, MISSING, 5.0) is EMPTY_ROWS

    def test_missing_rows_never_match(self):
        column = [MISSING, 1.0, MISSING]
        index = NumericWindowIndex(column)
        assert numeric_answer(index, column, 1.0, 100.0).tolist() == [1]

    def test_exact_zero_threshold(self):
        column = [5.0, 5.0, 6.0]
        index = NumericWindowIndex(column)
        assert numeric_answer(index, column, 5.0, 0.0).tolist() == [0, 1]

    def test_large_magnitudes_stay_supersets(self):
        # The window edges are widened by ULPs of the operand scale, so
        # catastrophic cancellation at |target| ~ threshold cannot lose
        # a key the engine's |x - v| <= tau test would accept; the
        # confirmation then drops what the widening let in, so the
        # answer is exact.
        big = 1e16
        column = [big, big + 2.0, big - 2.0, big + 4.0]
        index = NumericWindowIndex(column)
        keys = index.match(big, 2.0, everything)
        assert {big, big + 2.0, big - 2.0} <= set(keys)
        rows = numeric_answer(index, column, big, 2.0)
        assert rows.tolist() == [0, 1, 2]

    def test_hot_group_declines(self):
        index = NumericWindowIndex([1.0] * 10, max_result=4)
        assert answer(index, 1.0, 0.0) is None
        assert index.skip_reason == "hot_group"
        assert index.stats.skips["hot_group"] == 1

    def test_hot_window_declines_before_confirming(self):
        # More distinct keys in the window than max_result: every key
        # has a row, so the answer would be too large anyway.
        index = NumericWindowIndex([float(i) for i in range(10)],
                                   max_result=4)

        def within(rows):
            raise AssertionError("confirmed a declined window")

        assert index.match(4.5, 3.0, within) is None
        assert index.skip_reason == "hot_group"
        assert index.stats.skips == {"hot_group": 1}

    def test_boolean_convert(self):
        def convert(value):
            return float(bool(value))

        column = [True, False, True, MISSING]
        index = NumericWindowIndex(column, convert=convert)
        assert numeric_answer(
            index, column, True, 0.0, convert
        ).tolist() == [0, 2]
        assert numeric_answer(
            index, column, False, 1.0, convert
        ).tolist() == [0, 1, 2]


class TestExactMatchIndex:
    def test_equal_rows_only(self):
        column = ["ROME", "PARIS", MISSING, "ROME"]
        index = ExactMatchIndex(column)
        rows = answer(index, "ROME", 0.0)
        assert_probe_shape(rows)
        assert rows.tolist() == [0, 3]

    def test_unknown_value_is_empty(self):
        index = ExactMatchIndex(["A"])
        assert answer(index, "B", 0.0) is EMPTY_ROWS

    def test_sub_one_threshold_still_means_equal(self):
        # Edit distance is integral: tau in [0, 1) admits only equality.
        index = ExactMatchIndex(["A", "B"])
        assert answer(index, "A", 0.9).tolist() == [0]

    def test_loose_threshold_unsupported(self):
        index = ExactMatchIndex(["A", "B"])
        assert index.match("A", 1.0, everything) is None
        assert index.skip_reason == "unsupported"

    def test_hot_group_declines(self):
        index = ExactMatchIndex(["X"] * 5, max_result=3)
        assert answer(index, "X", 0.0) is None
        assert index.skip_reason == "hot_group"


class TestQGramIndex:
    VALUES = [
        "MAPLE STREET", "MAPLE STREE", "OAK AVENUE", MISSING,
        "MAPLE STREET", "", "OAK AVE", "ELM", "日本語テキスト",
    ]

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize(
        "target", ["MAPLE STREET", "OAK AVE", "", "E", "日本語テスト"]
    )
    def test_superset_of_true_matches(self, target, threshold):
        """The filters keep a superset of the true matches, and the
        confirmed answer is exactly them."""
        index = QGramIndex(self.VALUES)
        expected = {
            row
            for row, value in enumerate(self.VALUES)
            if value is not MISSING
            and levenshtein(str(value), target) <= threshold
        }
        rows = answer(index, target, threshold)
        assert rows is not None
        assert_probe_shape(rows)
        assert expected <= set(rows.tolist())
        within = levenshtein_within(self.VALUES, target, threshold)
        exact = answer(index, target, threshold, within)
        assert_probe_shape(exact)
        assert set(exact.tolist()) == expected

    def test_missing_probe_value_is_empty(self):
        index = QGramIndex(self.VALUES)
        assert answer(index, MISSING, 2.0) is EMPTY_ROWS

    def test_length_filter_prunes(self):
        index = QGramIndex(["AB", "ABCDEFGH"])
        rows = answer(index, "AB", 1.0)
        assert rows.tolist() == [0]

    def test_hot_group_declines(self):
        index = QGramIndex(["SAME VALUE"] * 6, max_result=4)
        assert answer(index, "SAME VALUE", 1.0) is None
        assert index.skip_reason == "hot_group"

    def test_probe_cost_declines(self):
        values = [f"PREFIX {i:04d}" for i in range(50)]
        index = QGramIndex(values, max_probe_cost=10)
        assert index.match("PREFIX 0000", 2.0, everything) is None
        assert index.skip_reason == "probe_cost"
        assert index.stats.skips["probe_cost"] == 1

    def test_non_string_values_render(self):
        index = QGramIndex([1234, 1235, 99])
        rows = answer(index, 1234, 1.0)
        assert 0 in rows.tolist() and 1 in rows.tolist()


# ----------------------------------------------------------------------
# QGramIndex against the dict walk it replaced
# ----------------------------------------------------------------------
#: A small alphabet, so values share grams and probes cross the
#: count-filter, length-walk, hot-group and probe-cost paths.
oracle_texts = st.one_of(
    st.sampled_from(
        ["", "a", "ab", "abab", "日本", "cab", "a\x00", "\x00a"]
    ),
    st.text(alphabet="abc ", max_size=7),
)
oracle_values = st.one_of(st.just(MISSING), oracle_texts)
oracle_ops = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=14),
        oracle_values,
    ),
    st.tuples(
        st.just("probe"),
        oracle_values,
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    column=st.lists(oracle_values, max_size=10),
    ops=st.lists(oracle_ops, max_size=40),
    max_result=st.sampled_from([None, 1, 5]),
    max_probe_cost=st.sampled_from([None, 0, 2, 6]),
)
def test_qgram_matches_dict_walk_oracle(
    column, ops, max_result, max_probe_cost
):
    """Interleaved writes (new distinct values, a value's last row
    dropped, MISSING written, appends) and probes: the columnar index's
    filters keep the dict walk's rows, with its declines and stats,
    and a superset of the rows an exact banded Levenshtein accepts."""
    caps = {"max_result": max_result, "max_probe_cost": max_probe_cost}
    index = QGramIndex(column, **caps)
    oracle = DictQGramIndex(column, **caps)
    values = list(column)
    for op in ops:
        if op[0] == "update":
            _, row, value = op
            if row >= len(values):
                values.extend([MISSING] * (row + 1 - len(values)))
            values[row] = value
            index.update(row, value)
            oracle.update(row, value)
            continue
        _, target, threshold = op
        rows = answer(index, target, threshold)
        expected = oracle.probe(target, threshold)
        assert (rows is None) == (expected is None), (target, threshold)
        assert index.stats == oracle.stats
        if rows is None:
            assert index.skip_reason == oracle.skip_reason
            continue
        assert_probe_shape(rows)
        assert rows.tolist() == expected.tolist(), (target, threshold)
        if target is MISSING:
            continue
        within = {
            row
            for row, value in enumerate(values)
            if value is not MISSING
            and levenshtein(str(value), str(target)) <= threshold
        }
        assert within <= set(rows.tolist()), (target, threshold)
    assert index.stats == oracle.stats


def test_qgram_rebuilds_only_on_distinct_set_change():
    index = QGramIndex(["ROME", "ROMA", MISSING])
    arrays = index._posting_codes  # noqa: SLF001 - layout under test
    index.update(2, "ROME")  # a copy of a present value
    index.update(2, MISSING)  # and its rollback
    assert answer(index, "ROME", 1.0).tolist() == [0, 1]
    assert index._posting_codes is arrays  # noqa: SLF001
    index.update(2, "OSLO")  # a new distinct value
    assert answer(index, "OSLO", 0.0).tolist() == [2]
    assert index._posting_codes is not arrays  # noqa: SLF001
