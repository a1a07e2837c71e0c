"""One dictionary encoding per column of a relation.

RENUVER compares cells through one distance per attribute: edit
distance for strings, absolute difference for numbers and booleans.
The donor-scan kernels, the blocking indexes, the keyness test and
discovery's pair matrix all read a column through its
:class:`ColumnEncoding`:

* ``codes[row]`` is the row's code, ``-1`` for MISSING, and
  ``present[row]`` is ``codes[row] >= 0``;
* ``values[code]`` is the value a code names; the list only grows, so a
  code always names one value, and equal values share one code;
* ``counts[code]`` is how many rows hold the code now;
* ``generation`` moves exactly when a value gains its first row or
  loses its last;
* for numeric and boolean columns, ``floats[code]`` is the value as a
  float (a boolean reads 0.0 or 1.0) and ``floats[-1]`` is NaN, so
  ``floats[codes]`` is the column as floats, NaN where missing.  This
  is the one place a cell becomes a float.

:meth:`~repro.dataset.relation.Relation.encoding` builds it on first
request; every write of the column patches it before any mutation
listener runs.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.dataset.attribute import AttributeType
from repro.dataset.missing import MISSING


class ColumnEncoding:
    """The dictionary encoding of one column (see the module doc)."""

    __slots__ = (
        "codes", "present", "values", "counts", "floats", "generation",
        "_index",
    )

    def __init__(
        self, column: Sequence[Any], attr_type: AttributeType
    ) -> None:
        index: dict[Any, int] = {}
        intern = index.setdefault
        self.codes = np.fromiter(
            (
                -1 if value is MISSING else intern(value, len(index))
                for value in column
            ),
            dtype=np.int64,
            count=len(column),
        )
        self.present = self.codes >= 0
        self.values: list[Any] = list(index)
        self.counts: list[int] = np.bincount(
            self.codes[self.present], minlength=len(index)
        ).tolist()
        self.floats: np.ndarray | None = None
        if attr_type is not AttributeType.STRING:
            self.floats = np.array(
                [float(value) for value in self.values] + [np.nan]
            )
        self.generation = 0
        self._index = index

    def code(self, value: Any) -> int:
        """The code of ``value``; ``-1`` for MISSING or a value no row
        has ever held."""
        if value is MISSING:
            return -1
        return self._index.get(value, -1)

    def set(self, row: int, value: Any) -> None:
        """Record that ``row`` now holds ``value`` (already coerced)."""
        new = self.code(value)
        if new < 0 and value is not MISSING:
            new = self._add(value)
        old = int(self.codes[row])
        if new == old:
            return
        self.codes[row] = new
        self.present[row] = new >= 0
        counts = self.counts
        if old >= 0:
            counts[old] -= 1
            if not counts[old]:
                self.generation += 1
        if new >= 0:
            counts[new] += 1
            if counts[new] == 1:
                self.generation += 1

    def extend(self, count: int) -> None:
        """Grow by ``count`` rows, all MISSING."""
        self.codes = np.concatenate(
            (self.codes, np.full(count, -1, dtype=np.int64))
        )
        self.present = np.concatenate(
            (self.present, np.zeros(count, dtype=bool))
        )

    def _add(self, value: Any) -> int:
        """A code for a value never seen before, with no rows yet."""
        code = self._index[value] = len(self.values)
        self.values.append(value)
        self.counts.append(0)
        floats = self.floats
        if floats is not None:
            # The last cell stays NaN, for code -1: grow by doubling
            # before a new code would take it.
            if code >= floats.size - 1:
                grown = np.full(2 * floats.size, np.nan)
                grown[:code] = floats[:code]
                self.floats = floats = grown
            floats[code] = float(value)
        return code
