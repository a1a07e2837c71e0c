"""The per-attribute blocking-index protocols.

A blocking index answers one question: *which rows can be within
``threshold`` of this value on this attribute?*  Every index
(:class:`BlockingIndex`) honours two rules:

* :meth:`BlockingIndex.update` keeps the index consistent with a
  relation mutation, including appends past the size the index was
  built at (new rows materialize as missing first, exactly how
  ``ImputationSession.append`` grows the relation).  After any update
  sequence the index must answer exactly as a fresh build over the
  final column would — the property the hypothesis round-trip suite in
  ``tests/index/`` asserts.
* An index may decline a question — "I cannot serve this" — with
  :attr:`BlockingIndex.skip_reason` set (``"unsupported"``,
  ``"hot_group"``, ``"probe_cost"``).  The caller falls back to the
  full scan for that attribute: slower, never wrong.

Rows missing on the attribute never answer: their distance is
undefined and every engine mask excludes them.  The answer itself
comes in one of two forms:

* the numeric window's ``probe(value, threshold)`` returns a sorted,
  duplicate-free ``int64`` array that is a **superset** of the rows
  within ``threshold``; the engine confirms the exact distances on it;
* the two string indexes hold their rows per distinct value
  (:class:`ValueIndex`) and answer **exactly**.
  :meth:`ValueIndex.match` names the distinct values within
  ``threshold`` of the probe value as index-local *keys*: the index
  filters candidate values, and a caller-supplied ``within`` confirms
  each surviving value once, on one row that holds it.
  :meth:`ValueIndex.rows` turns keys into the live rows holding them,
  from one sorted ``int64`` array per value that an update drops only
  for the old and the new value of the written row.  Keys stay valid
  while :attr:`ValueIndex.generation` stands; it moves only when the
  set of distinct values (or, for the q-gram index, their codes)
  changes, which an imputation's tentative writes and rollbacks never
  do.  :class:`~repro.index.plan.IndexPlan` memoizes ``match`` per
  (attribute, value, threshold) on that basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Hashable,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

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


@runtime_checkable
class BlockingIndex(Protocol):
    """Structural protocol every index kind implements."""

    #: Short kind tag for spans and diagnostics.
    kind: str
    #: Why the last question was declined (engine-internal use).
    skip_reason: str
    stats: IndexStats

    def update(self, row: int, value: Any) -> None:
        """Apply one ``set_value`` mutation (row may be an append)."""
        ...


class ValueIndex:
    """Rows kept per distinct value, answered as value keys.

    Subclasses hold ``_max_result``, ``skip_reason``, ``stats`` and
    ``generation``, implement ``match`` (the keys of exactly the
    distinct values within a threshold, or ``None`` to decline, with
    the skip counted) and ``_row_set`` (the live rows of one key), and
    drop a key's ``_arrays`` entry whenever its rows change.
    """

    _max_result: int | None
    skip_reason: str
    stats: IndexStats
    generation: int
    _arrays: dict[Hashable, np.ndarray]

    def match(
        self,
        value: Any,
        threshold: float,
        within: Callable[[np.ndarray], np.ndarray],
    ) -> Sequence[Hashable] | None:
        """Keys of exactly the distinct values within ``threshold`` of
        ``value``, or ``None`` to decline.

        ``within`` receives one row holding each candidate value and
        returns whether that row's value is within ``threshold``.
        """
        raise NotImplementedError

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
                array = arrays[key] = sorted_rows(list(self._row_set(key)))
            parts.append(array)
        if not parts:
            out = EMPTY_ROWS
        elif len(parts) == 1:
            out = parts[0]
        else:
            out = np.concatenate(parts)
            out.sort()
        if self._max_result is not None and out.size > self._max_result:
            self.skip_reason = "hot_group"
            self.stats.skip("hot_group")
            return None
        self.stats.served += 1
        return out

    def _row_set(self, key: Hashable) -> set[int]:
        raise NotImplementedError


def sorted_rows(rows: list[int]) -> np.ndarray:
    """A probe result array from a list of (unique) row indices."""
    if not rows:
        return EMPTY_ROWS
    out = np.fromiter(rows, dtype=np.int64, count=len(rows))
    out.sort()
    return out
