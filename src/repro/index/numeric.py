"""Bisect window index for numeric (and boolean) attributes.

Keys are the column's float codes, converted exactly as the engine's
codec converts them.  ``|x - v| <= tau`` over the sorted distinct keys
is a contiguous slice: two ``searchsorted`` bisects bound the window.
The window edges are widened by a few ULP *of the operand magnitudes*
(not of the possibly-cancelled difference) so a key whose computed
``|x - v|`` rounds to ``<= tau`` can never be lost to float rounding of
``v - tau`` / ``v + tau``; ``within`` then confirms each key of the
window once, through the engine's own ``|x - v|``, so the answer is
exact.

The sorted distinct keys are rebuilt when :attr:`generation` has
moved, which an imputation's tentative writes and rollbacks never
cause.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.dataset.missing import MISSING
from repro.index.base import ValueIndex


class NumericWindowIndex(ValueIndex):
    """Bisect window index over one numeric or boolean column.

    Parameters
    ----------
    column:
        The column values at build time (``MISSING`` allowed).
    convert:
        Value-to-float encoding; must match the engine codec's
        (``float`` for numerics, ``float(bool(v))`` for booleans) so the
        keys and the confirming distances agree.
    max_result:
        Answers holding more rows than this decline with
        ``skip_reason = "hot_group"``.
    """

    kind = "numeric_window"

    def __init__(
        self,
        column: list[Any],
        *,
        convert: Callable[[Any], float] = float,
        max_result: int | None = None,
    ) -> None:
        self._convert = convert
        super().__init__(column, max_result=max_result)
        self._rebuild()

    def _key(self, value: Any) -> float:
        return float(self._convert(value))

    def _rebuild(self) -> None:
        """Sort the live distinct keys."""
        self._sorted_keys = np.sort(np.fromiter(
            self._rows_of, dtype=np.float64, count=len(self._rows_of)
        ))
        self._built = self.generation

    def update(self, row: int, value: Any) -> None:
        self._update(row, value)

    def match(
        self,
        value: Any,
        threshold: float,
        within: Callable[[np.ndarray], np.ndarray],
    ) -> list[float] | None:
        """The keys in the bisect window that ``within`` accepts."""
        self.stats.probes += 1
        if value is MISSING:
            return []
        if self._built != self.generation:
            self._rebuild()
        target = self._key(value)
        # Widen the window by a few ULP of the operand scale: the keys
        # the engine's |code - target| <= threshold test accepts lie
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
        start = int(np.searchsorted(self._sorted_keys, low, side="left"))
        stop = int(np.searchsorted(self._sorted_keys, high, side="right"))
        # Every key has a row, so more keys than max_result means more
        # rows too: decline before confirming any.
        if self._max_result is not None and stop - start > self._max_result:
            self._decline("hot_group")
            return None
        return self._confirmed(
            self._sorted_keys[start:stop].tolist(), within
        )
