"""The per-attribute blocking index: rows kept per distinct value.

A blocking index answers one question: *which rows are within
``threshold`` of this value on this attribute?*  Every index kind is a
:class:`ValueIndex` over the relation's encoding of the column
(:mod:`repro.dataset.encoding`) and answers it in one form, exactly:

* :meth:`ValueIndex.match` names the distinct values within
  ``threshold`` of the probe value by their codes: the kind's filters
  pick candidate values, and a caller-supplied ``within`` confirms each
  surviving value once, on one row that holds it.
* :meth:`ValueIndex.rows` turns codes into the live rows holding them.

Codes stay valid while the encoding's ``generation`` stands, which an
imputation's tentative writes and rollbacks never move;
:class:`~repro.index.plan.IndexPlan` memoizes ``match`` per
(attribute, code, threshold) on that basis.

Rows per code live in numpy: one stable argsort of the codes at build
lays each code's rows out as a slice of one array, and
:meth:`ValueIndex.update` records a written row under the code it now
holds.  A read that finds the slice disagreeing with the code's live
count or recorded rows merges those rows in (filtering against the live
codes only if rows also left), and the result replaces the slice.

After any writes an index answers exactly as a fresh build over the
final column would — the property the hypothesis round-trip suite in
``tests/index/`` asserts.  An index may decline a question with
:attr:`ValueIndex.skip_reason` set (``"unsupported"``, ``"hot_group"``,
``"probe_cost"``); the caller then confirms that constraint on its
other rows itself: slower, never wrong.  Rows missing on the attribute
never answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.dataset.encoding import ColumnEncoding

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
    """Rows kept per code of one column's encoding, answered as codes.

    A kind supplies ``match(code, threshold, within)``, returning the
    codes of exactly the distinct values within ``threshold`` of the
    value of ``code`` (``within`` confirms a candidate value on one row
    holding it), or ``None`` to decline; and it defines its own
    ``update`` calling :meth:`_update`.

    Parameters
    ----------
    encoding:
        The relation's encoding of the column; the relation keeps it
        current, and :meth:`update` must follow every write after it.
    max_result:
        Answers holding more rows than this decline with
        ``skip_reason = "hot_group"`` instead of materializing a group
        the caller would reject anyway.
    """

    #: Short kind tag for spans and diagnostics.
    kind: str

    def __init__(
        self, encoding: ColumnEncoding, *, max_result: int | None = None
    ) -> None:
        self.encoding = encoding
        self._max_result = max_result
        codes = encoding.codes
        order = np.argsort(codes, kind="stable")
        #: Rows by code (MISSING, code -1, sorts first and is dropped);
        #: code ``c`` owns ``_order[_starts[c]:_starts[c + 1]]``.
        self._order = order[order.size - sum(encoding.counts):]
        self._starts = np.zeros(len(encoding.counts) + 1, dtype=np.int64)
        np.cumsum(encoding.counts, out=self._starts[1:])
        #: Each code's rows as last read (a slice of ``_order`` or a
        #: refreshed array), and the rows written since that read.
        self._arrays: dict[int, np.ndarray] = {}
        self._written: dict[int, list[int]] = {}
        #: Why the last question was declined (engine-internal use).
        self.skip_reason = ""
        self.stats = IndexStats()
        self.stats.builds += 1

    def _update(self, row: int) -> None:
        """Apply one ``set_value`` mutation (row may be an append)."""
        self.stats.updates += 1
        code = int(self.encoding.codes[row])
        if code >= 0:
            self._written.setdefault(code, []).append(row)

    def _live(self, code: int) -> np.ndarray:
        """The sorted rows holding ``code`` now.

        Every row that took the code since the last read is recorded,
        so when none of those still holds it, the array read last holds
        every live row, and it holds only live rows exactly when its
        size is the live count.
        """
        rows = self._arrays.get(code)
        if rows is None:
            starts = self._starts
            rows = (
                self._order[starts[code]:starts[code + 1]]
                if code + 1 < starts.size else EMPTY_ROWS
            )
            self._arrays[code] = rows
        written = self._written.pop(code, None)
        count = self.encoding.counts[code]
        if written is None and rows.size == count:
            return rows
        codes = self.encoding.codes
        if written is not None:
            joined = np.array(written, dtype=np.int64)
            joined = joined[codes[joined] == code]
            if joined.size:
                rows = np.concatenate((rows, joined))
                if rows.size == count:
                    # Every row read last is still live, and the joined
                    # rows are new to the code.
                    rows.sort()
        if rows.size != count:
            rows = np.unique(rows[codes[rows] == code])
        self._arrays[code] = rows
        return rows

    def _confirmed(
        self,
        codes: Sequence[int],
        within: Callable[[np.ndarray], np.ndarray],
    ) -> list[int]:
        """The ``codes`` whose value ``within`` accepts, each confirmed
        on one row holding it."""
        if not codes:
            return []
        holders = np.fromiter(
            (self._live(code)[0] for code in codes),
            dtype=np.int64,
            count=len(codes),
        )
        return [
            code for code, keep in zip(codes, within(holders).tolist())
            if keep
        ]

    def rows(self, codes: Sequence[int]) -> np.ndarray | None:
        """Sorted live rows holding any of ``codes``, or ``None`` past
        ``max_result`` rows.

        The codes name distinct values, so their rows are disjoint.
        The result may be an array the index keeps: read it, never
        write to it.
        """
        arrays = self._arrays
        written = self._written
        counts = self.encoding.counts
        parts = []
        for code in codes:
            rows = arrays.get(code)
            if rows is None or code in written or rows.size != counts[code]:
                rows = self._live(code)
            parts.append(rows)
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
