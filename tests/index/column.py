"""One-column relations and the indexes that follow their writes.

The unit and round-trip suites build every index over a
:class:`~repro.dataset.relation.Relation` and write through
``set_value`` and ``append_rows``, as the imputation engine does, with
the index fed each write by a mutation listener, as
:class:`~repro.index.plan.IndexPlan` feeds it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.dataset.attribute import Attribute, AttributeType, coerce_value
from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation

NAME = "A"


def one_column(
    values: Sequence[Any], attr_type: AttributeType = AttributeType.STRING
) -> Relation:
    """A relation of one attribute ``A`` holding ``values``."""
    return Relation([Attribute(NAME, attr_type)], {NAME: list(values)})


def follow(relation: Relation, *indexes: Any) -> None:
    """Feed every later write of ``relation`` to each of ``indexes``."""
    def listener(row: int, name: str, value: Any) -> None:
        for index in indexes:
            index.update(row, value)

    relation.add_mutation_listener(listener)


def write(relation: Relation, row: int, value: Any) -> None:
    """``relation[row] = value``, appending MISSING rows up to ``row``."""
    missing = row + 1 - relation.n_tuples
    if missing > 0:
        relation.append_rows([[MISSING]] * missing)
    relation.set_value(row, NAME, value)


def code_of(relation: Relation, value: Any) -> int:
    """The code of ``value`` in the column's encoding.

    A value no row has held is written into a new last row and blanked
    again, so it gets a code and holds no row.
    """
    stored = coerce_value(value, relation.attribute(NAME).type)
    if stored is MISSING:
        return -1
    encoding = relation.encoding(NAME)
    code = encoding.code(stored)
    if code < 0:
        row = relation.append_rows([[stored]])[0]
        relation.set_value(row, NAME, MISSING)
        code = encoding.code(stored)
    return code


def ask(index: Any, relation: Relation, value: Any, threshold: float,
        within: Any) -> Any:
    """The rows of every value ``within`` accepts among those the
    index's filters keep for ``value``; ``None`` when it declines."""
    codes = index.match(code_of(relation, value), threshold, within)
    return None if codes is None else index.rows(codes)
