"""Differential tests of the CSV codec against a per-cell reference.

The reference below transcribes the row-by-row codec: ``infer_type``
tests every value, ``_parse`` strips and null-tests every cell, a
relation coerces every cell, and ``to_csv_text`` writes one row at a
time.  The production codec decides each distinct cell once, stops
inference early and renders column by column; both must agree on
types, cells (type and value), text, and on the exception type and
message of every failure.

The reference applies the numeric-literal rule as its own grammar (a
regular expression), independent of the production code's spelling
guard, so the two also cross-check that rule.
"""

from __future__ import annotations

import csv
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import (
    MISSING,
    Attribute,
    AttributeType,
    Relation,
    infer_type,
    read_csv_text,
    to_csv_text,
)
from repro.dataset.csv_io import DEFAULT_NULL_LITERALS, _check_duplicate_headers
from repro.dataset.missing import is_missing
from repro.exceptions import CSVFormatError, DataError

# ----------------------------------------------------------------------
# Reference: the per-cell codec
# ----------------------------------------------------------------------
_TRUE = {"true", "t", "yes", "y"}
_FALSE = {"false", "f", "no", "n"}

#: ASCII sign, digits, point and exponent; or the words Python's float
#: spells, which only a declared float column reads.
_NUMBER = re.compile(
    r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[+-]?(?:inf|infinity|nan)",
    re.IGNORECASE,
)


def _ref_number_text(value):
    text = str(value).strip()
    if not _NUMBER.fullmatch(text):
        raise ValueError(text)
    return text


def _ref_is_bool_literal(value):
    if isinstance(value, bool):
        return True
    if isinstance(value, (int, float)):
        return False
    text = str(value).strip().lower()
    return text in _TRUE or text in _FALSE


def _ref_is_int_literal(text):
    if not text:
        return False
    try:
        int(_ref_number_text(text))
    except ValueError:
        return False
    return True


def _ref_is_float_literal(text):
    if not text:
        return False
    try:
        value = float(_ref_number_text(text))
    except ValueError:
        return False
    return value == value and value not in (float("inf"), float("-inf"))


def ref_infer_type(values):
    saw_value = False
    could_be_bool = True
    could_be_int = True
    could_be_float = True
    saw_bool_literal = False
    for value in values:
        if is_missing(value):
            continue
        saw_value = True
        if isinstance(value, bool):
            saw_bool_literal = True
            could_be_int = False
            could_be_float = False
            continue
        could_be_bool = could_be_bool and _ref_is_bool_literal(value)
        saw_bool_literal = saw_bool_literal or _ref_is_bool_literal(value)
        if isinstance(value, int):
            continue
        if isinstance(value, float):
            could_be_int = False
            continue
        text = str(value).strip()
        if not _ref_is_int_literal(text):
            could_be_int = False
        if not _ref_is_float_literal(text):
            could_be_float = False
    if not saw_value:
        return AttributeType.STRING
    if could_be_bool and saw_bool_literal:
        return AttributeType.BOOLEAN
    if could_be_int:
        return AttributeType.INTEGER
    if could_be_float:
        return AttributeType.FLOAT
    return AttributeType.STRING


def _ref_coerce_bool(value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise DataError(f"cannot coerce {value!r} to boolean")


def ref_coerce_value(value, attr_type):
    if is_missing(value):
        return MISSING
    try:
        if attr_type is AttributeType.BOOLEAN:
            return _ref_coerce_bool(value)
        if attr_type is AttributeType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float):
                if not value.is_integer():
                    raise DataError(
                        f"cannot coerce non-integral {value!r} to integer"
                    )
                return int(value)
            text = _ref_number_text(value)
            try:
                return int(text)
            except ValueError:
                as_float = float(text)
                if not as_float.is_integer():
                    raise
                return int(as_float)
        if attr_type is AttributeType.FLOAT:
            if isinstance(value, bool):
                return float(value)
            number = float(_ref_number_text(value))
            return number if number == number else MISSING
        return str(value)
    except (ValueError, TypeError) as exc:
        raise DataError(
            f"cannot coerce {value!r} to {attr_type.value}"
        ) from exc


def _ref_relation(attributes, columns, name):
    """What ``Relation(attributes, columns)`` held: every cell coerced."""
    cells = {
        attr.name: [ref_coerce_value(v, attr.type) for v in columns[attr.name]]
        for attr in attributes
    }
    return (name, tuple(attributes), cells)


def ref_read_csv_text(
    text, *, name="relation", types=None,
    null_literals=DEFAULT_NULL_LITERALS, delimiter=",",
):
    nulls = {literal.lower() for literal in null_literals}
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    line_number = 1
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise CSVFormatError(
                "CSV input is empty (no header row)"
            ) from None
        header = [column.strip() for column in header]
        for position, column in enumerate(header, start=1):
            if not column:
                raise CSVFormatError(
                    f"line 1, column {position}: blank column name "
                    f"in header {header}"
                )
        _check_duplicate_headers(header)
        columns = {column: [] for column in header}
        for line_number, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise CSVFormatError(
                    f"line {line_number}: expected {len(header)} fields, "
                    f"got {len(record)}"
                )
            for column, raw in zip(header, record):
                cell = raw.strip()
                # An empty cell is missing whatever the literals hold.
                if not cell or cell.lower() in nulls:
                    columns[column].append(MISSING)
                else:
                    columns[column].append(cell)
    except csv.Error as exc:
        raise CSVFormatError(
            f"line {max(1, reader.line_num)}: {exc}"
        ) from exc
    declared = dict(types or {})
    attributes = [
        Attribute(column, declared.get(column)
                  or ref_infer_type(columns[column]))
        for column in header
    ]
    return _ref_relation(attributes, columns, name)


def ref_from_rows(attributes, rows, *, name="relation"):
    rows = [list(row) for row in rows]
    resolved = [
        attr if isinstance(attr, Attribute)
        else Attribute(attr, ref_infer_type([row[i] for row in rows]))
        for i, attr in enumerate(attributes)
    ]
    columns = {
        attr.name: [row[i] for row in rows]
        for i, attr in enumerate(resolved)
    }
    return _ref_relation(resolved, columns, name)


def ref_to_csv_text(relation, *, null_literal="", delimiter=","):
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(relation.attribute_names)
    for row in range(relation.n_tuples):
        writer.writerow([
            null_literal if is_missing(value) else value
            for value in relation.row_values(row)
        ])
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _typed(value):
    """A cell as (type, exact text), so 1 / 1.0 / True and 0.0 / -0.0
    stay apart."""
    return (type(value).__name__, repr(value))


def _snapshot(relation):
    return (
        relation.name,
        relation.attributes,
        {name: [_typed(v) for v in relation.column(name)]
         for name in relation.attribute_names},
    )


def _ref_snapshot(reference):
    name, attributes, cells = reference
    return (
        name,
        attributes,
        {column: [_typed(v) for v in values]
         for column, values in cells.items()},
    )


def _outcome(call, snapshot):
    try:
        return ("ok", snapshot(call()))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_LITERALS = [
    "007", "5.0", "1e3", "-2.5E-1", ".5", "1.", "+4", "-0", "-0.0",
    "42", "1", "0", "1e400", "nan", "NaN", "inf", "-inf", "Infinity",
    "true", "False", "YES", "no", "t", "F", "y", "N",
    "1_000", "2_5", "٣", "１", "12٣",
    "", "_", "?", "NA", "n/a", "Null", "none", " na ", "  NULL\t",
    "x", "Granita", "a b", "hello, world", 'say "hi"', "two\nlines",
    " 12 ", "\t3.5 ", " yes ", "missing",
]

_NOISE = st.text(alphabet="0123456789+-.eE_ aInNfFtxy,\"\n٣", max_size=6)

_raw_cell = st.one_of(st.sampled_from(_LITERALS), _NOISE)


@st.composite
def _csv_inputs(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    header = [f"C{i}" for i in range(width)]
    if draw(st.booleans()):
        header[draw(st.integers(0, width - 1))] = draw(
            st.sampled_from([" C0 ", "", "C1", "Name"])
        )
    # A few distinct cells per column, repeated, so the per-distinct
    # decision is exercised the way real columns exercise it.
    pools = [
        draw(st.lists(_raw_cell, min_size=1, max_size=5))
        for _ in range(width)
    ]
    n_rows = draw(st.integers(min_value=0, max_value=12))
    records = [
        [draw(st.sampled_from(pool)) for pool in pools]
        for _ in range(n_rows)
    ]
    if records and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(records) - 1))
        records[at] = records[at][: draw(st.integers(1, width + 1))] + (
            ["extra"] if len(records[at]) == width else []
        )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        if draw(st.integers(0, 6)) == 0:
            buffer.write("\n")  # a blank line
        writer.writerow(record)
    text = buffer.getvalue()
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    types = {}
    for column in header:
        if draw(st.integers(0, 3)) == 0:
            types[column] = draw(st.sampled_from(list(AttributeType)))
    null_literals = draw(st.sampled_from([
        DEFAULT_NULL_LITERALS, ["missing"], ["", "NA"], [],
    ]))
    return text, types, null_literals


_python_value = st.one_of(
    st.sampled_from([
        1, 1.0, True, 0, 0.0, False, 2, 2.5, -0.0, float("inf"),
        float("nan"), None, MISSING, "1", "1.0", "True", "x", " 7 ",
        "1_000", "no", "",
    ]),
    st.integers(-5, 5),
    st.floats(allow_nan=False, width=16),
)


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
class TestReadCsvTextMatchesPerCellCodec:
    @settings(max_examples=300, deadline=None)
    @given(_csv_inputs())
    def test_types_cells_and_errors_agree(self, case):
        text, types, null_literals = case
        ours = _outcome(
            lambda: read_csv_text(
                text, name="t", types=types, null_literals=null_literals
            ),
            _snapshot,
        )
        theirs = _outcome(
            lambda: ref_read_csv_text(
                text, name="t", types=types, null_literals=null_literals
            ),
            _ref_snapshot,
        )
        assert ours == theirs

    @settings(max_examples=150, deadline=None)
    @given(_csv_inputs(), st.sampled_from(["", "_", "NA"]))
    def test_rendering_agrees(self, case, null_literal):
        text, types, null_literals = case
        try:
            relation = read_csv_text(
                text, types=types, null_literals=null_literals
            )
        except DataError:
            return
        for delimiter in (",", ";"):
            assert to_csv_text(
                relation, null_literal=null_literal, delimiter=delimiter
            ) == ref_to_csv_text(
                relation, null_literal=null_literal, delimiter=delimiter
            )


class TestInferenceAndRowsMatchPerValueCode:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_python_value, _raw_cell), max_size=10))
    def test_infer_type_agrees(self, values):
        assert infer_type(values) is ref_infer_type(values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(_python_value, _python_value, _raw_cell),
            max_size=8,
        ),
        st.sampled_from([None, *AttributeType]),
    )
    def test_from_rows_agrees(self, rows, declared):
        first = "A" if declared is None else Attribute("A", declared)
        attributes = [first, "B", "C"]
        ours = _outcome(
            lambda: Relation.from_rows(attributes, rows, name="r"),
            _snapshot,
        )
        theirs = _outcome(
            lambda: ref_from_rows(attributes, rows, name="r"),
            _ref_snapshot,
        )
        assert ours == theirs

    def test_hash_equal_python_values_keep_their_own_coercion(self):
        rows = [[1], [1.0], [True]]
        relation = Relation.from_rows(
            [Attribute("A", AttributeType.STRING)], rows
        )
        assert relation.column("A") == ("1", "1.0", "True")
        assert infer_type([1, 1.0, True]) is ref_infer_type([1, 1.0, True])
