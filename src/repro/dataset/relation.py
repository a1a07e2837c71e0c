"""The relation instance: a small, column-oriented in-memory table.

The datasets the paper evaluates on are laptop-scale (hundreds to a few
thousand tuples), and RENUVER's inner loops read cells attribute-by-
attribute, so a plain column store (one Python list per attribute) is both
the simplest and the fastest layout here.

A :class:`Relation` is mutable only through :meth:`set_value` — exactly the
operation the imputation algorithms need — and every mutation bumps a
version counter so caches (distance patterns, key-RFD status) can detect
staleness.  :meth:`append_rows` grows it, writing each new cell through
:meth:`set_value`.  :meth:`encoding` gives the columnar readers one
dictionary encoding per column, patched by every write.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.dataset.attribute import (
    Attribute,
    AttributeType,
    coerce_value,
    infer_type,
)
from repro.dataset.encoding import ColumnEncoding
from repro.dataset.missing import MISSING, is_missing
from repro.exceptions import DataError, SchemaError


class RowView(Mapping[str, Any]):
    """Read-only mapping view of one tuple of a relation.

    Supports lookup by attribute name (``row["Phone"]``) and exposes the
    source row index as :attr:`index`.  Views are live: they reflect later
    imputations on the underlying relation.
    """

    __slots__ = ("_relation", "_index")

    def __init__(self, relation: "Relation", index: int) -> None:
        self._relation = relation
        self._index = index

    @property
    def index(self) -> int:
        """Position of this tuple in the relation."""
        return self._index

    @property
    def relation(self) -> "Relation":
        """The relation this view reads from."""
        return self._relation

    def __getitem__(self, name: str) -> Any:
        return self._relation.value(self._index, name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._relation.attribute_names)

    def __len__(self) -> int:
        return self._relation.n_attributes

    def values_tuple(self) -> tuple[Any, ...]:
        """All cell values of this tuple, in schema order."""
        return tuple(
            self._relation.value(self._index, name)
            for name in self._relation.attribute_names
        )

    def missing_attributes(self) -> tuple[str, ...]:
        """Names of attributes on which this tuple is missing."""
        return tuple(
            name for name in self._relation.attribute_names
            if is_missing(self[name])
        )

    def is_incomplete(self) -> bool:
        """Whether the tuple has at least one missing value."""
        return any(is_missing(self[name]) for name in self)

    def __repr__(self) -> str:
        cells = ", ".join(f"{name}={self[name]!r}" for name in self)
        return f"RowView({self._index}: {cells})"


class Relation:
    """A typed relational instance with explicit missing values.

    Construct via :meth:`from_rows`, :meth:`from_columns` or
    :func:`repro.dataset.csv_io.read_csv`.
    """

    def __init__(
        self,
        attributes: Sequence[Attribute],
        columns: Mapping[str, Sequence[Any]],
        *,
        name: str = "relation",
        coerce: bool = True,
    ) -> None:
        """Check the schema and take one list per attribute.

        With ``coerce`` every cell goes through
        :func:`~repro.dataset.attribute.coerce_value`.  Without it the
        columns must already be canonical — coerced values and
        :data:`MISSING` for every missing cell, as CSV parsing and an
        existing relation's columns are — and are copied as they are.
        """
        names = _checked_names(attributes)
        missing_cols = [n for n in names if n not in columns]
        if missing_cols:
            raise SchemaError(f"no column data for attributes {missing_cols}")
        lengths = {len(columns[n]) for n in names}
        if len(lengths) > 1:
            raise DataError(f"ragged columns: lengths {sorted(lengths)}")

        canonical: dict[str, list[Any]] = {}
        for attr in attributes:
            raw = columns[attr.name]
            if coerce:
                canonical[attr.name] = [
                    coerce_value(v, attr.type) for v in raw
                ]
            else:
                canonical[attr.name] = list(raw)
        self._adopt(tuple(attributes), canonical, name)

    def _adopt(
        self,
        attributes: tuple[Attribute, ...],
        columns: dict[str, list[Any]],
        name: str,
    ) -> None:
        """Take ``columns`` as this relation's own, unchecked.

        The columns must already be canonical — one list per attribute,
        in schema order, of equal length, with coerced values and
        :data:`MISSING` for every missing cell — as the columns of an
        existing relation are.
        """
        self.name = name
        self._attributes = attributes
        self._index: dict[str, int] = {
            attr.name: i for i, attr in enumerate(attributes)
        }
        self._columns = columns
        self._encodings: dict[str, ColumnEncoding] = {}
        self._version = 0
        self._listeners: list[Callable[[int, str, Any], None]] = []

    @staticmethod
    def _derive(
        attributes: tuple[Attribute, ...],
        columns: dict[str, list[Any]],
        name: str,
    ) -> "Relation":
        """A new relation over columns derived from an existing
        relation's: already canonical, so nothing is coerced or
        normalized again."""
        relation = Relation.__new__(Relation)
        relation._adopt(attributes, columns, name)
        return relation

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[Attribute | str],
        rows: Iterable[Sequence[Any]],
        *,
        name: str = "relation",
        infer: bool = True,
    ) -> "Relation":
        """Build a relation from row tuples.

        ``attributes`` may mix :class:`Attribute` objects and bare names;
        bare names get their type inferred from the data when ``infer`` is
        true, else default to string.
        """
        rows = [list(row) for row in rows]
        width = len(attributes)
        for position, row in enumerate(rows):
            if len(row) != width:
                raise DataError(
                    f"row {position} has {len(row)} values, expected {width}"
                )
        resolved: list[Attribute] = []
        for position, attr in enumerate(attributes):
            if isinstance(attr, Attribute):
                resolved.append(attr)
                continue
            if infer:
                column = (row[position] for row in rows)
                resolved.append(Attribute(attr, infer_type(column)))
            else:
                resolved.append(Attribute(attr, AttributeType.STRING))
        columns = {
            attr.name: [row[position] for row in rows]
            for position, attr in enumerate(resolved)
        }
        return cls(resolved, columns, name=name)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[Any]],
        *,
        types: Mapping[str, AttributeType] | None = None,
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from named columns, inferring missing types."""
        types = dict(types or {})
        attributes = [
            Attribute(col, types.get(col) or infer_type(values))
            for col, values in columns.items()
        ]
        return cls(attributes, columns, name=name)

    # ------------------------------------------------------------------
    # Schema access
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The schema, in declaration order."""
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return tuple(attr.name for attr in self._attributes)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; have {list(self._index)}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        """Whether ``name`` is part of the schema."""
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of attribute ``name`` in the schema."""
        self.attribute(name)  # raises SchemaError on unknown names
        return self._index[name]

    # ------------------------------------------------------------------
    # Size and versioning
    # ------------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        """Number of tuples (the paper's *n*)."""
        return len(self._columns[self._attributes[0].name])

    @property
    def n_attributes(self) -> int:
        """Number of attributes (the paper's *m*)."""
        return len(self._attributes)

    def __len__(self) -> int:
        return self.n_tuples

    @property
    def version(self) -> int:
        """Counter bumped by every :meth:`set_value`; lets caches detect
        staleness after imputations."""
        return self._version

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------
    def value(self, row: int, name: str) -> Any:
        """The value of tuple ``row`` on attribute ``name`` (``t[A]``)."""
        self._check_row(row)
        try:
            return self._columns[name][row]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def set_value(self, row: int, name: str, value: Any) -> None:
        """Write a cell, coercing ``value`` to the attribute type.

        This is the single mutation point of a relation; imputers call it
        to fill (or re-blank) cells.

        Mutation listeners cannot corrupt the write: the cell is stored,
        the column's encoding patched and the version bumped first, then
        *every* registered listener runs (so cache invalidation hooks
        fire even when an earlier listener raises), and only afterwards
        is the first listener failure surfaced, wrapped in
        :class:`~repro.exceptions.DataError`.
        """
        attr = self.attribute(name)
        self._check_row(row)
        stored = self._columns[name][row] = coerce_value(value, attr.type)
        encoding = self._encodings.get(name)
        if encoding is not None:
            encoding.set(row, stored)
        self._version += 1
        if not self._listeners:
            return
        errors: list[Exception] = []
        for listener in tuple(self._listeners):
            try:
                listener(row, name, stored)
            except Exception as exc:  # noqa: BLE001 - isolate listeners
                errors.append(exc)
        if errors:
            others = (
                f" (+{len(errors) - 1} more listener failures)"
                if len(errors) > 1 else ""
            )
            raise DataError(
                f"mutation listener failed after writing cell "
                f"({row}, {name!r}): {errors[0]}{others}"
            ) from errors[0]

    def clear_value(self, row: int, name: str) -> None:
        """Blank a cell back to :data:`MISSING`."""
        self.set_value(row, name, MISSING)

    def append_rows(
        self,
        rows: Sequence[Sequence[Any]],
        *,
        error: type[Exception] = DataError,
    ) -> range:
        """Append tuples (schema order) in place; returns their indices.

        Every column first grows by ``len(rows)`` :data:`MISSING`
        placeholders, then each cell is written through
        :meth:`set_value`, so values are coerced and mutation listeners
        see every appended cell.  A row of the wrong width raises
        ``error`` before anything changes.
        """
        width = len(self._attributes)
        for offset, row in enumerate(rows):
            if len(row) != width:
                raise error(
                    f"appended row {offset} has {len(row)} values, "
                    f"schema needs {width}"
                )
        start = self.n_tuples
        for column in self._columns.values():
            column.extend([MISSING] * len(rows))
        for encoding in self._encodings.values():
            encoding.extend(len(rows))
        for offset, row in enumerate(rows):
            for attr, value in zip(self._attributes, row):
                self.set_value(start + offset, attr.name, value)
        return range(start, start + len(rows))

    def add_mutation_listener(
        self, listener: Callable[[int, str, Any], None]
    ) -> None:
        """Register a dirty-cell hook fired after every :meth:`set_value`.

        Listeners receive ``(row, name, stored_value)`` with the value as
        stored post-coercion.  Caches that materialize column data (the
        donor-scan kernels) register here so tentative writes and
        rollbacks invalidate them.  Listeners are not carried over by
        :meth:`copy` and friends.
        """
        self._listeners.append(listener)

    def remove_mutation_listener(
        self, listener: Callable[[int, str, Any], None]
    ) -> None:
        """Unregister a previously added dirty-cell hook."""
        self._listeners.remove(listener)

    def is_missing_cell(self, row: int, name: str) -> bool:
        """Whether ``t[A] = _`` for the given cell."""
        return is_missing(self.value(row, name))

    def column(self, name: str) -> tuple[Any, ...]:
        """An immutable snapshot of one column."""
        self.attribute(name)
        return tuple(self._columns[name])

    def encoding(self, name: str) -> ColumnEncoding:
        """The dictionary encoding of one column
        (:mod:`repro.dataset.encoding`), built on first request and
        patched by every write; read it, never write to it.  A copy
        builds its own, and of two concurrent first requests only one
        build is published."""
        encoding = self._encodings.get(name)
        if encoding is None:
            attribute = self.attribute(name)
            encoding = self._encodings.setdefault(
                name, ColumnEncoding(self._columns[name], attribute.type)
            )
        return encoding

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, index: int) -> RowView:
        """A live view of one tuple."""
        self._check_row(index)
        return RowView(self, index)

    def rows(self) -> Iterator[RowView]:
        """Iterate over live views of all tuples."""
        for index in range(self.n_tuples):
            yield RowView(self, index)

    def row_values(self, index: int) -> tuple[Any, ...]:
        """The raw cell values of one tuple, in schema order."""
        self._check_row(index)
        return tuple(self._columns[a.name][index] for a in self._attributes)

    # ------------------------------------------------------------------
    # Missing-value helpers
    # ------------------------------------------------------------------
    def missing_cells(self) -> list[tuple[int, str]]:
        """All ``(row, attribute)`` coordinates holding a missing value."""
        cells = [
            (row, attr.name)
            for attr in self._attributes
            for row in _missing_rows(self._columns[attr.name])
        ]
        cells.sort()
        return cells

    def incomplete_rows(self) -> list[int]:
        """Indices of tuples with at least one missing value (``r-hat``)."""
        incomplete: set[int] = set()
        for attr in self._attributes:
            incomplete.update(_missing_rows(self._columns[attr.name]))
        return sorted(incomplete)

    def count_missing(self) -> int:
        """Total number of missing cells."""
        return sum(
            len(_missing_rows(self._columns[attr.name]))
            for attr in self._attributes
        )

    def completeness(self) -> float:
        """Fraction of non-missing cells, in [0, 1]."""
        total = self.n_tuples * self.n_attributes
        if total == 0:
            return 1.0
        return 1.0 - self.count_missing() / total

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self, *, name: str | None = None) -> "Relation":
        """A deep, independent copy of this relation."""
        columns = {
            attr.name: list(self._columns[attr.name])
            for attr in self._attributes
        }
        return self._derive(self._attributes, columns, name or self.name)

    def project(self, names: Sequence[str], *,
                name: str | None = None) -> "Relation":
        """A copy restricted to the given attributes (``Pi_X(r)``)."""
        attributes = tuple(self.attribute(n) for n in names)
        _checked_names(attributes)
        columns = {n: list(self._columns[n]) for n in names}
        return self._derive(
            attributes, columns, name or f"{self.name}[{','.join(names)}]"
        )

    def take(self, rows: Sequence[int], *,
             name: str | None = None) -> "Relation":
        """A copy containing only the given tuples, in the given order."""
        for row in rows:
            self._check_row(row)
        columns = {
            attr.name: [self._columns[attr.name][row] for row in rows]
            for attr in self._attributes
        }
        return self._derive(
            self._attributes, columns,
            name or f"{self.name}[{len(rows)} rows]",
        )

    def head(self, count: int, *, name: str | None = None) -> "Relation":
        """A copy of the first ``count`` tuples."""
        count = max(0, min(count, self.n_tuples))
        return self.take(list(range(count)), name=name)

    # ------------------------------------------------------------------
    # Comparison / display
    # ------------------------------------------------------------------
    def equals(self, other: "Relation") -> bool:
        """Structural equality: same schema, same cells (missing included)."""
        if self._attributes != other._attributes:
            return False
        if self.n_tuples != other.n_tuples:
            return False
        return all(
            self._columns[a.name] == other._columns[a.name]
            for a in self._attributes
        )

    def diff_cells(self, other: "Relation") -> list[tuple[int, str]]:
        """Coordinates where this relation differs from ``other``.

        Both relations must share the schema and tuple count; used by the
        evaluation harness to locate imputed cells.
        """
        if self._attributes != other._attributes:
            raise SchemaError("diff_cells requires identical schemas")
        if self.n_tuples != other.n_tuples:
            raise DataError("diff_cells requires identical tuple counts")
        diffs: list[tuple[int, str]] = []
        for attr in self._attributes:
            mine = self._columns[attr.name]
            theirs = other._columns[attr.name]
            for row in range(self.n_tuples):
                if mine[row] != theirs[row]:
                    diffs.append((row, attr.name))
        diffs.sort()
        return diffs

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {self.n_tuples} tuples x "
            f"{self.n_attributes} attributes)"
        )

    def to_text(self, limit: int = 10) -> str:
        """A small fixed-width rendering for debugging and examples."""
        names = list(self.attribute_names)
        shown = min(limit, self.n_tuples)
        rows = [[_render(self.value(r, n)) for n in names]
                for r in range(shown)]
        widths = [
            max(len(names[i]), *(len(row[i]) for row in rows), 1)
            if rows else len(names[i])
            for i in range(len(names))
        ]
        lines = [
            "  ".join(names[i].ljust(widths[i]) for i in range(len(names)))
        ]
        for row in rows:
            lines.append(
                "  ".join(row[i].ljust(widths[i]) for i in range(len(names)))
            )
        if shown < self.n_tuples:
            lines.append(f"... ({self.n_tuples - shown} more tuples)")
        return "\n".join(lines)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_tuples:
            raise DataError(
                f"row {row} out of range for {self.n_tuples} tuples"
            )


def _checked_names(attributes: Sequence[Attribute]) -> list[str]:
    """The attribute names of a schema: at least one, none repeated."""
    if not attributes:
        raise SchemaError("a relation needs at least one attribute")
    names = [attr.name for attr in attributes]
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate attribute names in {names}")
    return names


def _missing_rows(column: list[Any]) -> list[int]:
    """Rows of one column holding :data:`MISSING`.

    Construction and :meth:`Relation.set_value` store every missing
    representation (``None``, ``NaN``, a spelled-out float ``"nan"``) as
    the canonical sentinel, so one identity test per cell finds every
    missing cell.
    """
    return [row for row, value in enumerate(column) if value is MISSING]


def _render(value: Any) -> str:
    if is_missing(value):
        return "_"
    return str(value)
