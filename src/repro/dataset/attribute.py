"""Attributes, attribute types and type inference.

RENUVER chooses a distance function per attribute domain (edit distance for
strings, absolute difference for numbers, equality for booleans), so every
:class:`Attribute` carries an :class:`AttributeType`.  Types can be declared
explicitly or inferred from data with :func:`infer_type`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable

from repro.dataset.missing import MISSING, is_missing
from repro.exceptions import DataError, SchemaError

_TRUE_LITERALS = {"true", "t", "yes", "y"}
_FALSE_LITERALS = {"false", "f", "no", "n"}
_BOOL_LITERALS = _TRUE_LITERALS | _FALSE_LITERALS


class AttributeType(enum.Enum):
    """Domain of an attribute; drives the default distance function."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"

    @property
    def is_numeric(self) -> bool:
        """Whether values compare by absolute difference."""
        return self in (AttributeType.INTEGER, AttributeType.FLOAT)


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation schema."""

    name: str
    type: AttributeType = AttributeType.STRING

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")

    def __str__(self) -> str:
        return self.name


def infer_type(values: Iterable[Any]) -> AttributeType:
    """Infer the narrowest :class:`AttributeType` covering ``values``.

    Missing values are ignored.  Precedence is boolean > integer > float >
    string: a column of ``{"0", "1"}`` stays integer (not boolean) because
    numeric literals are only treated as booleans when the column contains
    ``true``/``false`` style literals or Python bools.

    A text literal is a number only under the rule :func:`coerce_value`
    applies too: ASCII sign, digits, point and exponent, with no ``_``
    digit groups and no non-ASCII digits, so ``"1_000"`` and ``"٣"``
    stay strings.  Spelled-out ``inf`` and ``nan`` are strings as well.

    The scan costs the column's distinct values: each distinct ``str``
    is checked once (one boolean-literal test, then the numeric tests
    it can still pass), and the scan stops at the first value that
    rules out every type narrower than string.  Other values are
    checked one by one, because ``1``, ``1.0`` and ``True`` are equal
    but infer differently.
    """
    saw_value = False
    could_be_bool = True
    could_be_int = True
    could_be_float = True
    saw_bool_literal = False
    seen: set[str] = set()
    for value in values:
        if type(value) is str:
            if value in seen:
                continue
            seen.add(value)
            if not value:  # the empty string is missing
                continue
        elif is_missing(value):
            continue
        saw_value = True
        if isinstance(value, bool):
            saw_bool_literal = True
            could_be_int = False
            could_be_float = False
        elif isinstance(value, (int, float)):
            could_be_bool = False
            could_be_int = could_be_int and isinstance(value, int)
        else:
            text = str(value).strip()
            if text.lower() in _BOOL_LITERALS:
                # A boolean literal is never a number.
                saw_bool_literal = True
                could_be_int = False
                could_be_float = False
            else:
                could_be_bool = False
                could_be_int = could_be_int and _is_int_literal(text)
                could_be_float = could_be_float and _is_float_literal(text)
        if not (could_be_bool or could_be_int or could_be_float):
            return AttributeType.STRING
    if not saw_value:
        return AttributeType.STRING
    if could_be_bool and saw_bool_literal:
        return AttributeType.BOOLEAN
    if could_be_int:
        return AttributeType.INTEGER
    if could_be_float:
        return AttributeType.FLOAT
    return AttributeType.STRING


def coerce_value(value: Any, attr_type: AttributeType) -> Any:
    """Coerce ``value`` into the Python representation of ``attr_type``.

    :data:`MISSING` passes through untouched.  Raises :class:`DataError`
    when the value cannot represent the target type; under a numeric
    type that includes text the numeric-literal rule of
    :func:`infer_type` refuses, such as ``"1_000"``.
    """
    if is_missing(value):
        return MISSING
    try:
        if attr_type is AttributeType.BOOLEAN:
            return _coerce_bool(value)
        if attr_type is AttributeType.INTEGER:
            if type(value) is int:
                return value
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float):
                if not value.is_integer():
                    raise DataError(
                        f"cannot coerce non-integral {value!r} to integer"
                    )
                return int(value)
            text = _number_text(value)
            try:
                return int(text)
            except ValueError:
                # "5.0" style literals: accept when integral.
                as_float = float(text)
                if not as_float.is_integer():
                    raise
                return int(as_float)
        if attr_type is AttributeType.FLOAT:
            if type(value) is float:
                return value
            if isinstance(value, bool):
                return float(value)
            number = float(_number_text(value))
            # A spelled-out "nan" is missing too: store the sentinel.
            return number if number == number else MISSING
        return str(value)
    except (ValueError, TypeError) as exc:
        raise DataError(
            f"cannot coerce {value!r} to {attr_type.value}"
        ) from exc


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in _TRUE_LITERALS:
        return True
    if text in _FALSE_LITERALS:
        return False
    raise DataError(f"cannot coerce {value!r} to boolean")


def _is_number_spelling(text: str) -> bool:
    """The numeric-literal rule shared by inference and coercion.

    Python's ``int`` and ``float`` also read ``_`` digit groups and
    non-ASCII digits.  In a data file those spell identifiers
    (``12_34``) or another script's numerals, not numbers, so a number
    is written in ASCII without ``_``: sign, digits, point and exponent,
    or the ``inf``/``nan`` words only a declared float column accepts.
    """
    return text.isascii() and "_" not in text


def _number_text(value: Any) -> str:
    """The stripped text of ``value``; ``ValueError`` if the rule
    refuses it."""
    text = str(value).strip()
    if not _is_number_spelling(text):
        raise ValueError(f"not a numeric literal: {text!r}")
    return text


def _is_int_literal(text: str) -> bool:
    if not text or not _is_number_spelling(text):
        return False
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is_float_literal(text: str) -> bool:
    if not text or not _is_number_spelling(text):
        return False
    try:
        value = float(text)
    except ValueError:
        return False
    # Reject inf/nan spelled out in data files; they are almost always noise.
    return value == value and value not in (float("inf"), float("-inf"))
