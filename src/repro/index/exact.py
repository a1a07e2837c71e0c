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
from repro.index.base import ValueIndex


class ExactMatchIndex(ValueIndex):
    """Distinct-value hash index over one rendered-string column; keys
    are the rendered values themselves."""

    kind = "exact"
    _key = str

    def update(self, row: int, value: Any) -> None:
        self._update(row, value)

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
            self._decline("unsupported")
            return None
        if value is MISSING:
            return ()
        return (str(value),)
