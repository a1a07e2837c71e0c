"""Exact-match index for attributes only ever probed at ``tau = 0``.

Levenshtein distance is zero exactly when the strings are equal, and
equal values share one code, so for attributes whose every LHS
constraint is crisp the whole probe is the probe value's own code, and
its answer is exact without a distance computed.  Probes with a
positive threshold decline (``skip_reason = "unsupported"``) — the plan
picks a :class:`~repro.index.strings.QGramIndex` instead when it knows
loose thresholds are coming.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.index.base import ValueIndex


class ExactMatchIndex(ValueIndex):
    """Distinct-value index over one string column."""

    kind = "exact"

    def update(self, row: int, value: Any) -> None:
        self._update(row)

    def match(
        self,
        code: int,
        threshold: float,
        within: Callable[[np.ndarray], np.ndarray],
    ) -> Sequence[int] | None:
        """The probe value's own code (equal strings are at distance
        0), or ``None`` for a threshold of 1 or more; ``within`` is not
        needed."""
        self.stats.probes += 1
        if threshold >= 1.0:
            # Edit distance is integral: tau in [0, 1) still means
            # "equal", anything >= 1 admits unequal values.
            self._decline("unsupported")
            return None
        if code < 0:
            return ()
        return (code,)
