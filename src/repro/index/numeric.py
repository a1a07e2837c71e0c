"""Bisect window index for numeric (and boolean) attributes.

The live codes of the column are kept sorted by their floats (read from
the relation's encoding), re-sorted only when the encoding's
``generation`` has moved.  ``|x - v| <= tau`` over them is a contiguous
slice: two ``searchsorted`` bisects bound the window, whose edges are
widened by a few ULP *of the operand magnitudes* (not of the
possibly-cancelled difference) so float rounding of ``v - tau`` /
``v + tau`` can never lose a value; ``within`` then confirms each code
of the window once, through the engine's own ``|x - v|``, so the answer
is exact.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.dataset.encoding import ColumnEncoding
from repro.index.base import ValueIndex


class NumericWindowIndex(ValueIndex):
    """Bisect window index over one numeric or boolean column."""

    kind = "numeric_window"

    def __init__(
        self, encoding: ColumnEncoding, *, max_result: int | None = None
    ) -> None:
        super().__init__(encoding, max_result=max_result)
        self._rebuild()

    def _rebuild(self) -> None:
        """Sort the live codes by their floats."""
        encoding = self.encoding
        live = np.flatnonzero(encoding.counts)
        floats = encoding.floats[live]
        order = np.argsort(floats, kind="stable")
        self._sorted_codes = live[order]
        self._sorted_floats = floats[order]
        self._built = encoding.generation

    def update(self, row: int, value: Any) -> None:
        self._update(row)

    def match(
        self,
        code: int,
        threshold: float,
        within: Callable[[np.ndarray], np.ndarray],
    ) -> list[int] | None:
        """The codes in the bisect window that ``within`` accepts."""
        self.stats.probes += 1
        if code < 0:
            return []
        if self._built != self.encoding.generation:
            self._rebuild()
        target = self.encoding.floats[code]
        # Widen the window by a few ULP of the operand scale: the values
        # the engine's |x - target| <= threshold test accepts lie
        # within tau plus half an ULP of tau, and the window-edge
        # subtraction itself may cancel — both are covered here, and
        # ``within`` drops whatever the widening lets in.
        if math.isfinite(target) and math.isfinite(threshold):
            scale = max(abs(target), abs(threshold), 1.0)
            margin = 4.0 * float(np.spacing(scale))
            low = target - threshold - margin
            high = target + threshold + margin
        else:
            low, high = -math.inf, math.inf
        start = int(np.searchsorted(self._sorted_floats, low, side="left"))
        stop = int(np.searchsorted(self._sorted_floats, high, side="right"))
        # Every live code has a row, so more codes than max_result
        # means more rows too: decline before confirming any.
        if self._max_result is not None and stop - start > self._max_result:
            self._decline("hot_group")
            return None
        return self._confirmed(
            self._sorted_codes[start:stop].tolist(), within
        )
