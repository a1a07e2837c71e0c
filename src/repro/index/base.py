"""The per-attribute blocking index: rows kept per distinct value.

A blocking index answers one question: *which rows are within
``threshold`` of this value on this attribute?*  Every index kind is a
:class:`ValueIndex` and answers it in one form, exactly:

* :meth:`ValueIndex.match` names the distinct values within
  ``threshold`` of the probe value as *keys*: the kind's filters pick
  candidate values, and a caller-supplied ``within`` confirms each
  surviving value once, on one row that holds it.
* :meth:`ValueIndex.rows` turns keys into the live rows holding them,
  from one sorted ``int64`` array per value that an update drops only
  for the old and the new value of the written row.

Keys stay valid while :attr:`ValueIndex.generation` stands; it moves
exactly when the set of distinct values changes (a key gains its first
row or loses its last), which an imputation's tentative writes and
rollbacks never do.
:class:`~repro.index.plan.IndexPlan` memoizes ``match`` per
(attribute, value, threshold) on that basis.

Two rules hold for every kind:

* :meth:`ValueIndex.update` keeps the index consistent with a relation
  mutation, including appends past the size the index was built at
  (new rows materialize as missing first, exactly how
  ``ImputationSession.append`` grows the relation).  After any update
  sequence the index must answer exactly as a fresh build over the
  final column would — the property the hypothesis round-trip suite in
  ``tests/index/`` asserts.
* An index may decline a question — "I cannot serve this" — with
  :attr:`ValueIndex.skip_reason` set (``"unsupported"``,
  ``"hot_group"``, ``"probe_cost"``).  The caller confirms that
  constraint on its other rows itself: slower, never wrong.

Rows missing on the attribute never answer: their distance is
undefined and every engine mask excludes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.dataset.missing import MISSING

#: The canonical empty probe result.
EMPTY_ROWS: np.ndarray = np.empty(0, dtype=np.int64)


@dataclass
class IndexStats:
    """Mutable probe/maintenance tallies of one index."""

    probes: int = 0
    served: int = 0
    updates: int = 0
    builds: int = 0
    skips: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.skips[reason] = self.skips.get(reason, 0) + 1


class ValueIndex:
    """Rows kept per distinct value, answered as value keys.

    The row-per-value bookkeeping lives here once: each row's key
    (``None`` when missing), the live rows of each key (a key with no
    rows is deleted), a sorted row array per key built on demand, and
    :attr:`generation`.  A kind supplies ``_key`` (a present value's
    key) and ``match``, and defines its own ``update`` calling
    :meth:`_update`.

    Parameters
    ----------
    column:
        The column values at build time (``MISSING`` allowed).
    max_result:
        Answers holding more rows than this decline with
        ``skip_reason = "hot_group"`` instead of materializing a group
        the caller would reject anyway.
    """

    #: Short kind tag for spans and diagnostics.
    kind: str

    def __init__(
        self, column: list[Any], *, max_result: int | None = None
    ) -> None:
        self._max_result = max_result
        self._keys: list[Hashable | None] = [
            None if value is MISSING else self._key(value)
            for value in column
        ]
        self._rows_of: dict[Hashable, set[int]] = {}
        for row, key in enumerate(self._keys):
            if key is not None:
                self._rows_of.setdefault(key, set()).add(row)
        self._arrays: dict[Hashable, np.ndarray] = {}
        self.generation = 0
        #: Why the last question was declined (engine-internal use).
        self.skip_reason = ""
        self.stats = IndexStats()
        self.stats.builds += 1

    def _key(self, value: Any) -> Hashable:
        raise NotImplementedError

    def _update(self, row: int, value: Any) -> None:
        """Apply one ``set_value`` mutation (row may be an append)."""
        self.stats.updates += 1
        keys = self._keys
        if row >= len(keys):
            keys.extend([None] * (row + 1 - len(keys)))
        old = keys[row]
        new = None if value is MISSING else self._key(value)
        if new == old:
            return
        if old is not None:
            self._arrays.pop(old, None)
            rows = self._rows_of[old]
            rows.discard(row)
            if not rows:
                del self._rows_of[old]
                self.generation += 1
        keys[row] = new
        if new is not None:
            self._arrays.pop(new, None)
            rows = self._rows_of.get(new)
            if rows is None:
                self._rows_of[new] = {row}
                self.generation += 1
            else:
                rows.add(row)

    def match(
        self,
        value: Any,
        threshold: float,
        within: Callable[[np.ndarray], np.ndarray],
    ) -> Sequence[Hashable] | None:
        """Keys of exactly the distinct values within ``threshold`` of
        ``value``, or ``None`` to decline (the skip counted).

        ``within`` receives one row holding each candidate value and
        returns whether that row's value is within ``threshold``.
        """
        raise NotImplementedError

    def _confirmed(
        self,
        keys: Sequence[Hashable],
        within: Callable[[np.ndarray], np.ndarray],
    ) -> list[Hashable]:
        """The ``keys`` whose value ``within`` accepts, each confirmed
        on one row holding it."""
        if not keys:
            return []
        rows_of = self._rows_of
        holders = np.fromiter(
            (next(iter(rows_of[key])) for key in keys),
            dtype=np.int64,
            count=len(keys),
        )
        return [
            key for key, keep in zip(keys, within(holders).tolist())
            if keep
        ]

    def rows(self, keys: Sequence[Hashable]) -> np.ndarray | None:
        """Sorted live rows holding any of ``keys``, or ``None`` past
        ``max_result`` rows.

        The keys name distinct values, so their arrays are disjoint.
        The result may be an array the index keeps: read it, never
        write to it.
        """
        arrays = self._arrays
        parts = []
        for key in keys:
            array = arrays.get(key)
            if array is None:
                array = arrays[key] = sorted_rows(
                    list(self._rows_of.get(key, ()))
                )
            parts.append(array)
        if not parts:
            out = EMPTY_ROWS
        elif len(parts) == 1:
            out = parts[0]
        else:
            out = np.concatenate(parts)
            out.sort()
        if self._max_result is not None and out.size > self._max_result:
            self._decline("hot_group")
            return None
        self.stats.served += 1
        return out

    def _decline(self, reason: str) -> None:
        self.skip_reason = reason
        self.stats.skip(reason)


def sorted_rows(rows: list[int]) -> np.ndarray:
    """A probe result array from a list of (unique) row indices."""
    if not rows:
        return EMPTY_ROWS
    out = np.fromiter(rows, dtype=np.int64, count=len(rows))
    out.sort()
    return out
