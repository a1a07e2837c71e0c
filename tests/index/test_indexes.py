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

from repro.dataset.attribute import AttributeType
from repro.dataset.missing import MISSING, is_missing
from repro.distance.levenshtein import levenshtein
from repro.index import (
    EMPTY_ROWS,
    ExactMatchIndex,
    NumericWindowIndex,
    QGramIndex,
)
from tests.index.column import (
    NAME,
    ask,
    code_of,
    follow,
    one_column,
    write,
)
from tests.index.dict_qgram import DictQGramIndex

FLOAT = AttributeType.FLOAT


def assert_probe_shape(rows: np.ndarray) -> None:
    assert rows.dtype == np.int64
    assert list(rows) == sorted(set(rows.tolist()))


def everything(rows: np.ndarray) -> np.ndarray:
    """A ``within`` accepting every candidate value."""
    return np.ones(rows.size, dtype=bool)


def build(kind, values, attr_type=AttributeType.STRING, **caps):
    """An index of ``kind`` over a one-column relation of ``values``,
    following its writes; returns ``(index, relation)``."""
    relation = one_column(values, attr_type)
    index = kind(relation.encoding(NAME), **caps)
    follow(relation, index)
    return index, relation


def answer(built, value, threshold, within=everything):
    """An index's rows for ``value``: with ``everything``, the rows of
    every value its filters keep; ``None`` when it declines."""
    index, relation = built
    return ask(index, relation, value, threshold, within)


def levenshtein_within(relation, target, threshold):
    """A ``within`` deciding by the edit distance of the stored values."""
    def within(rows):
        return np.array(
            [levenshtein(relation.value(row, NAME), str(target))
             <= threshold for row in rows.tolist()],
            dtype=bool,
        )
    return within


def numeric_within(relation, target, threshold):
    """A ``within`` deciding by ``|x - v|``, as the engine's kernel."""
    def within(rows):
        return np.array(
            [abs(float(relation.value(row, NAME)) - float(target))
             <= threshold for row in rows.tolist()],
            dtype=bool,
        )
    return within


def numeric_answer(built, target, threshold):
    return answer(
        built, target, threshold,
        numeric_within(built[1], target, threshold),
    )


class TestNumericWindowIndex:
    def test_superset_of_true_window(self):
        """The bisect window keeps a superset of the true matches, and
        the confirmed answer is exactly them."""
        column = [3.0, 1.5, MISSING, 2.25, -4.0, 3.0, 0.0, 3.0000001]
        built = build(NumericWindowIndex, column, FLOAT)
        rows = answer(built, 2.0, 1.0)
        assert_probe_shape(rows)
        assert {0, 1, 3, 5} <= set(rows.tolist())
        exact = numeric_answer(built, 2.0, 1.0)
        assert_probe_shape(exact)
        assert exact.tolist() == [0, 1, 3, 5]

    def test_each_key_confirmed_once(self):
        column = [1.0, 1.0, 2.0, 9.0, 2.0]
        index, relation = build(NumericWindowIndex, column, FLOAT)
        encoding = relation.encoding(NAME)
        seen = []

        def within(rows):
            seen.append(sorted(column[row] for row in rows.tolist()))
            return np.ones(rows.size, dtype=bool)

        codes = index.match(code_of(relation, 1.5), 1.0, within)
        assert [encoding.values[code] for code in codes] == [1.0, 2.0]
        assert seen == [[1.0, 2.0]]  # one holder per key; 9.0 bisected out
        assert index.rows(codes).tolist() == [0, 1, 2, 4]

    def test_missing_probe_value_is_empty(self):
        built = build(NumericWindowIndex, [1.0, 2.0], FLOAT)
        assert answer(built, MISSING, 5.0) is EMPTY_ROWS

    def test_missing_rows_never_match(self):
        built = build(NumericWindowIndex, [MISSING, 1.0, MISSING], FLOAT)
        assert numeric_answer(built, 1.0, 100.0).tolist() == [1]

    def test_exact_zero_threshold(self):
        built = build(NumericWindowIndex, [5.0, 5.0, 6.0], FLOAT)
        assert numeric_answer(built, 5.0, 0.0).tolist() == [0, 1]

    def test_large_magnitudes_stay_supersets(self):
        # The window edges are widened by ULPs of the operand scale, so
        # catastrophic cancellation at |target| ~ threshold cannot lose
        # a key the engine's |x - v| <= tau test would accept; the
        # confirmation then drops what the widening let in, so the
        # answer is exact.
        big = 1e16
        column = [big, big + 2.0, big - 2.0, big + 4.0]
        index, relation = build(NumericWindowIndex, column, FLOAT)
        encoding = relation.encoding(NAME)
        codes = index.match(encoding.code(big), 2.0, everything)
        values = {encoding.values[code] for code in codes}
        assert {big, big + 2.0, big - 2.0} <= values
        rows = numeric_answer((index, relation), big, 2.0)
        assert rows.tolist() == [0, 1, 2]

    def test_hot_group_declines(self):
        built = build(
            NumericWindowIndex, [1.0] * 10, FLOAT, max_result=4
        )
        assert answer(built, 1.0, 0.0) is None
        index = built[0]
        assert index.skip_reason == "hot_group"
        assert index.stats.skips["hot_group"] == 1

    def test_hot_window_declines_before_confirming(self):
        # More distinct keys in the window than max_result: every key
        # has a row, so the answer would be too large anyway.
        built = build(
            NumericWindowIndex, [float(i) for i in range(10)], FLOAT,
            max_result=4,
        )

        def within(rows):
            raise AssertionError("confirmed a declined window")

        assert answer(built, 4.5, 3.0, within) is None
        index = built[0]
        assert index.skip_reason == "hot_group"
        assert index.stats.skips == {"hot_group": 1}

    def test_boolean_convert(self):
        built = build(
            NumericWindowIndex, [True, False, True, MISSING],
            AttributeType.BOOLEAN,
        )
        assert numeric_answer(built, True, 0.0).tolist() == [0, 2]
        assert numeric_answer(built, False, 1.0).tolist() == [0, 1, 2]


class TestExactMatchIndex:
    def test_equal_rows_only(self):
        built = build(ExactMatchIndex, ["ROME", "PARIS", MISSING, "ROME"])
        rows = answer(built, "ROME", 0.0)
        assert_probe_shape(rows)
        assert rows.tolist() == [0, 3]

    def test_unknown_value_is_empty(self):
        built = build(ExactMatchIndex, ["A"])
        assert answer(built, "B", 0.0) is EMPTY_ROWS

    def test_sub_one_threshold_still_means_equal(self):
        # Edit distance is integral: tau in [0, 1) admits only equality.
        built = build(ExactMatchIndex, ["A", "B"])
        assert answer(built, "A", 0.9).tolist() == [0]

    def test_loose_threshold_unsupported(self):
        built = build(ExactMatchIndex, ["A", "B"])
        assert answer(built, "A", 1.0) is None
        assert built[0].skip_reason == "unsupported"

    def test_hot_group_declines(self):
        built = build(ExactMatchIndex, ["X"] * 5, max_result=3)
        assert answer(built, "X", 0.0) is None
        assert built[0].skip_reason == "hot_group"


class TestQGramIndex:
    #: ``""`` is stored as MISSING: it matches nothing, and as a probe
    #: value it finds nothing.
    VALUES = [
        "MAPLE STREET", "MAPLE STREE", "OAK AVENUE", MISSING,
        "MAPLE STREET", "", "OAK AVE", "ELM", "日本語テキスト", "A",
    ]

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize(
        "target", ["MAPLE STREET", "OAK AVE", "", "E", "日本語テスト"]
    )
    def test_superset_of_true_matches(self, target, threshold):
        """The filters keep a superset of the true matches, and the
        confirmed answer is exactly them."""
        built = build(QGramIndex, self.VALUES)
        expected = {
            row
            for row, value in enumerate(self.VALUES)
            if not is_missing(value) and not is_missing(target)
            and levenshtein(str(value), target) <= threshold
        }
        rows = answer(built, target, threshold)
        assert rows is not None
        assert_probe_shape(rows)
        assert expected <= set(rows.tolist())
        within = levenshtein_within(built[1], target, threshold)
        exact = answer(built, target, threshold, within)
        assert_probe_shape(exact)
        assert set(exact.tolist()) == expected

    def test_missing_probe_value_is_empty(self):
        built = build(QGramIndex, self.VALUES)
        assert answer(built, MISSING, 2.0) is EMPTY_ROWS
        assert answer(built, "", 2.0) is EMPTY_ROWS  # "" is missing

    def test_length_filter_prunes(self):
        built = build(QGramIndex, ["AB", "ABCDEFGH"])
        assert answer(built, "AB", 1.0).tolist() == [0]

    def test_hot_group_declines(self):
        built = build(QGramIndex, ["SAME VALUE"] * 6, max_result=4)
        assert answer(built, "SAME VALUE", 1.0) is None
        assert built[0].skip_reason == "hot_group"

    def test_probe_cost_declines(self):
        values = [f"PREFIX {i:04d}" for i in range(50)]
        built = build(QGramIndex, values, max_probe_cost=10)
        assert answer(built, "PREFIX 0000", 2.0) is None
        index = built[0]
        assert index.skip_reason == "probe_cost"
        assert index.stats.skips["probe_cost"] == 1

    def test_non_string_values_render(self):
        built = build(QGramIndex, [1234, 1235, 99])
        rows = answer(built, 1234, 1.0)
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
    relation = one_column(column)
    index = QGramIndex(relation.encoding(NAME), **caps)
    oracle = DictQGramIndex(relation.column(NAME), **caps)
    follow(relation, index, oracle)
    for op in ops:
        if op[0] == "update":
            _, row, value = op
            write(relation, row, value)
            continue
        _, target, threshold = op
        rows = answer((index, relation), target, threshold)
        target = relation.encoding(NAME).code(target)
        expected = oracle.probe(
            MISSING if target < 0
            else relation.encoding(NAME).values[target],
            threshold,
        )
        assert (rows is None) == (expected is None), (target, threshold)
        assert index.stats == oracle.stats
        if rows is None:
            assert index.skip_reason == oracle.skip_reason
            continue
        assert_probe_shape(rows)
        assert rows.tolist() == expected.tolist(), (target, threshold)
        if target < 0:
            continue
        target = relation.encoding(NAME).values[target]
        within = {
            row
            for row, value in enumerate(relation.column(NAME))
            if value is not MISSING
            and levenshtein(value, target) <= threshold
        }
        assert within <= set(rows.tolist()), (target, threshold)
    assert index.stats == oracle.stats


def test_qgram_rebuilds_only_on_distinct_set_change():
    index, relation = built = build(QGramIndex, ["ROME", "ROMA", MISSING])
    arrays = index._posting_codes  # noqa: SLF001 - layout under test
    relation.set_value(2, NAME, "ROME")  # a copy of a present value
    relation.set_value(2, NAME, MISSING)  # and its rollback
    assert answer(built, "ROME", 1.0).tolist() == [0, 1]
    assert index._posting_codes is arrays  # noqa: SLF001
    relation.set_value(2, NAME, "OSLO")  # a new distinct value
    assert answer(built, "OSLO", 0.0).tolist() == [2]
    assert index._posting_codes is not arrays  # noqa: SLF001
