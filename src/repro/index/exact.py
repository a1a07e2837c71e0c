"""Hash-bucket index for attributes only ever probed at ``tau = 0``.

Levenshtein distance is zero exactly when the rendered strings are
equal, so for attributes whose every LHS constraint is crisp the whole
probe is one dict lookup, and its answer is exact without a distance
computed: the one matching value is the probe value itself.  Probes
with a positive threshold decline (``skip_reason = "unsupported"``) —
the plan picks a :class:`~repro.index.strings.QGramIndex` instead when
it knows loose thresholds are coming.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.dataset.missing import MISSING
from repro.index.base import IndexStats, ValueIndex


class ExactMatchIndex(ValueIndex):
    """Distinct-value hash index over one rendered-string column.

    Keys are the rendered values themselves.  :attr:`generation` moves
    when a value gains its first row: a key the index did not hold
    before now has rows.
    """

    kind = "exact"

    def __init__(
        self, column: list[Any], *, max_result: int | None = None
    ) -> None:
        self._max_result = max_result
        self._values: list[str | None] = [
            None if value is MISSING else str(value) for value in column
        ]
        self._rows_by_value: dict[str, set[int]] = {}
        for row, value in enumerate(self._values):
            if value is not None:
                self._rows_by_value.setdefault(value, set()).add(row)
        self._arrays: dict[str, np.ndarray] = {}
        self.generation = 0
        self.skip_reason = ""
        self.stats = IndexStats()
        self.stats.builds += 1

    # ------------------------------------------------------------------
    def update(self, row: int, value: Any) -> None:
        self.stats.updates += 1
        if row >= len(self._values):
            self._values.extend([None] * (row + 1 - len(self._values)))
        old = self._values[row]
        if old is not None:
            self._arrays.pop(old, None)
            rows = self._rows_by_value[old]
            rows.discard(row)
            if not rows:
                del self._rows_by_value[old]
        new = None if value is MISSING else str(value)
        self._values[row] = new
        if new is not None:
            self._arrays.pop(new, None)
            rows = self._rows_by_value.get(new)
            if rows is None:
                self._rows_by_value[new] = {row}
                self.generation += 1
            else:
                rows.add(row)

    # ------------------------------------------------------------------
    def match(
        self,
        value: Any,
        threshold: float,
        within: Callable[[np.ndarray], np.ndarray],
    ) -> Sequence[str] | None:
        """The probe value itself (equal strings are at distance 0), or
        ``None`` for a threshold of 1 or more; ``within`` is not
        needed."""
        self.stats.probes += 1
        if threshold >= 1.0:
            # Edit distance is integral: tau in [0, 1) still means
            # "equal", anything >= 1 admits unequal values.
            self.skip_reason = "unsupported"
            self.stats.skip("unsupported")
            return None
        if value is MISSING:
            return ()
        return (str(value),)

    def _row_set(self, key: str) -> set[int]:
        return self._rows_by_value.get(key, set())
