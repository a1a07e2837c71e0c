"""CSV import/export for relations.

Empty (or whitespace-only) cells, whatever ``null_literals`` holds, and
a configurable set of null literals (``_``, ``NA`` …) map to
:data:`~repro.dataset.missing.MISSING`; attribute types are inferred
from the remaining values unless declared explicitly.

Malformed input — ragged rows, duplicate or blank headers, undecodable
bytes, embedded NULs — raises :class:`~repro.exceptions.CSVFormatError`
with 1-based row/column locations rather than leaking ``IndexError`` or
``UnicodeDecodeError`` from the parsing internals.  Writes go through a
write-temp-then-rename so a crash mid-write never leaves a truncated
file at the target path.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Mapping, Sequence

from repro.dataset.attribute import (
    Attribute,
    AttributeType,
    coerce_value,
    infer_type,
)
from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation
from repro.exceptions import CSVFormatError
from repro.utils.atomic import atomic_write_text

DEFAULT_NULL_LITERALS = frozenset({"", "_", "?", "na", "n/a", "null", "none"})


def read_csv(
    path: str | Path,
    *,
    name: str | None = None,
    types: Mapping[str, AttributeType] | None = None,
    null_literals: Sequence[str] | frozenset[str] = DEFAULT_NULL_LITERALS,
    delimiter: str = ",",
) -> Relation:
    """Read a CSV file (with header row) into a :class:`Relation`."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        return _parse(
            handle,
            name=name or path.stem,
            types=types,
            null_literals=null_literals,
            delimiter=delimiter,
        )


def read_csv_text(
    text: str,
    *,
    name: str = "relation",
    types: Mapping[str, AttributeType] | None = None,
    null_literals: Sequence[str] | frozenset[str] = DEFAULT_NULL_LITERALS,
    delimiter: str = ",",
) -> Relation:
    """Parse CSV content from a string; convenient for tests and examples."""
    return _parse(
        io.StringIO(text),
        name=name,
        types=types,
        null_literals=null_literals,
        delimiter=delimiter,
    )


def split_line(line: str) -> list[str]:
    """The fields of one CSV line (a header, say), split as
    :func:`read_csv` splits them."""
    return next(csv.reader(io.StringIO(line)))


def write_csv(
    relation: Relation,
    path: str | Path,
    *,
    null_literal: str = "",
    delimiter: str = ",",
) -> None:
    """Write a relation to a CSV file, rendering missing cells as
    ``null_literal``.

    The write is atomic (temp file + rename): a run killed mid-write
    leaves either the previous file or the complete new one.
    """
    atomic_write_text(
        Path(path),
        to_csv_text(relation, null_literal=null_literal,
                    delimiter=delimiter),
    )


def to_csv_text(
    relation: Relation,
    *,
    null_literal: str = "",
    delimiter: str = ",",
) -> str:
    """Render a relation as CSV text.

    The rendering goes column by column: each column is read once, its
    missing cells (always the :data:`MISSING` sentinel in a relation)
    replaced by ``null_literal``, and the rows are written as one
    ``writerows`` over the zipped columns.  The bytes are those of a
    row-by-row rendering; relation fingerprints hash them.
    """
    columns = [
        [null_literal if value is MISSING else value
         for value in relation.column(name)]
        for name in relation.attribute_names
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(relation.attribute_names)
    writer.writerows(zip(*columns))
    return buffer.getvalue()


def _parse(
    handle: io.TextIOBase,
    *,
    name: str,
    types: Mapping[str, AttributeType] | None,
    null_literals: Sequence[str] | frozenset[str],
    delimiter: str,
) -> Relation:
    """Read ``handle`` into raw columns, then decide each column once
    per distinct raw cell (see :func:`_decide_column`)."""
    nulls = {literal.lower() for literal in null_literals}
    reader = csv.reader(handle, delimiter=delimiter)
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

        width = len(header)
        raw_columns: list[list[str]] = [[] for _ in header]
        chunk: list[list[str]] = []
        for line_number, record in enumerate(reader, start=2):
            if len(record) != width:
                if not record:
                    continue  # skip completely blank lines
                raise CSVFormatError(
                    f"line {line_number}: expected {width} fields, "
                    f"got {len(record)}"
                )
            chunk.append(record)
            if len(chunk) == _TRANSPOSE_CHUNK:
                _transpose_into(raw_columns, chunk)
        _transpose_into(raw_columns, chunk)
    except UnicodeDecodeError as exc:
        raise CSVFormatError(
            f"undecodable input after line {max(line_number, reader.line_num)}"
            f": {exc.reason} at byte offset {exc.start} "
            f"(file is not valid UTF-8)"
        ) from exc
    except csv.Error as exc:
        raise CSVFormatError(
            f"line {max(1, reader.line_num)}: {exc}"
        ) from exc

    declared = dict(types or {})
    attributes = []
    columns: dict[str, list[object]] = {}
    for column, raw in zip(header, raw_columns):
        attribute, columns[column] = _decide_column(
            column, raw, declared.get(column), nulls
        )
        attributes.append(attribute)
    return Relation(attributes, columns, name=name, coerce=False)


#: Records gathered before they are moved into the raw columns, so a
#: parse never holds every record beside the columns.
_TRANSPOSE_CHUNK = 1024


def _transpose_into(
    raw_columns: list[list[str]], chunk: list[list[str]]
) -> None:
    """Append ``chunk``'s records to ``raw_columns`` and empty it."""
    for raw, cells in zip(raw_columns, zip(*chunk)):
        raw.extend(cells)
    chunk.clear()


def _decide_column(
    column: str,
    raw: list[str],
    declared: AttributeType | None,
    nulls: set[str],
) -> tuple[Attribute, list[object]]:
    """Type and canonical cells of one raw column.

    Each distinct raw cell is stripped, null-tested and coerced once,
    through one dict; the cells are then read from that dict.  Distinct
    cells are decided in order of first appearance, so a failed
    coercion names the same cell a row-by-row pass would.
    """
    decided: dict[str, object] = {}
    for cell in dict.fromkeys(raw):
        literal = cell.strip()
        decided[cell] = (
            MISSING if not literal or literal.lower() in nulls else literal
        )
    attr_type = declared or infer_type(decided.values())
    for cell, literal in decided.items():
        decided[cell] = coerce_value(literal, attr_type)
    return Attribute(column, attr_type), list(map(decided.__getitem__, raw))


def _check_duplicate_headers(header: list[str]) -> None:
    """Raise with the duplicate name and its 1-based column positions."""
    if len(set(header)) == len(header):
        return
    positions: dict[str, list[int]] = {}
    for position, column in enumerate(header, start=1):
        positions.setdefault(column, []).append(position)
    duplicates = {
        column: cols for column, cols in positions.items() if len(cols) > 1
    }
    rendered = ", ".join(
        f"{column!r} at columns {cols}"
        for column, cols in duplicates.items()
    )
    raise CSVFormatError(f"duplicate column names in header: {rendered}")
