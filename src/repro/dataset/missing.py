"""The missing-value sentinel.

The paper writes a missing value as ``t[A] = _``.  We model it with a
dedicated singleton rather than ``None`` or ``NaN`` so that

* missing-ness survives round-trips through CSV files and copies,
* it is type-agnostic (usable in string, numeric and boolean columns),
* accidental arithmetic on a missing value fails loudly instead of
  propagating ``NaN``.
"""

from __future__ import annotations

import math
from typing import Any


class MissingType:
    """Singleton type of the :data:`MISSING` sentinel."""

    _instance: "MissingType | None" = None

    def __new__(cls) -> "MissingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"

    def __str__(self) -> str:
        return "_"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MissingType)

    def __hash__(self) -> int:
        return hash(MissingType)

    def __reduce__(self) -> tuple[Any, ...]:
        return (MissingType, ())


MISSING = MissingType()
"""The unique missing-value marker, rendered as ``_`` like in the paper."""


def is_missing(value: Any) -> bool:
    """Return ``True`` if ``value`` denotes a missing cell.

    Besides :data:`MISSING` itself, ``None``, float ``NaN`` and ``""``
    (what CSV writes for a missing cell) are missing, so relations built
    from third-party data behave sensibly.  Whitespace is a value.
    """
    if value is MISSING or value is None:
        return True
    kind = type(value)
    if kind is str:
        return not value
    if kind is int:
        return False
    if isinstance(value, MissingType):
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def normalize_missing(value: Any) -> Any:
    """Map every missing representation to the canonical :data:`MISSING`."""
    return MISSING if is_missing(value) else value
