"""Length- and q-gram-bucketed inverted index for banded Levenshtein.

Two classic filters bound the edit distance from below, and both are
array comparisons here:

* **Length filter** — ``|len(a) - len(b)| > tau`` forces more than
  ``tau`` insertions, so candidates have lengths in
  ``len(target) - tau .. len(target) + tau``.
* **Count filter** — one edit operation destroys at most ``q``
  overlapping q-grams, so two strings within distance ``tau`` share at
  least ``max(len(a), len(b)) - q + 1 - q*tau`` grams, counted as a
  *multiset* intersection (set semantics would under-count repeated
  grams and could prune a true match).

The filters run over the codes of the relation's encoding:
``lengths[code]`` is a live value's length (``-1`` for a code no row
holds), and in the CSR postings the slice ``offsets[g]:offsets[g + 1]``
of ``posting_codes`` / ``posting_counts`` lists the live codes whose
value contains gram ``g``, with the gram's count in that value.

The candidates are the codes surviving both filters.  When the
count filter binds (``len(target) - q + 1 - q*tau > 0``) every survivor
shares at least one gram with the target, so only the slices of the
target's grams are gathered: the multiset intersection is one
``np.minimum`` against the target's gram counts and one ``np.bincount``
over the gathered codes, and both filters are comparisons on the result.
Otherwise the length filter alone is one comparison on ``lengths`` (the
count filter is optional — it only ever prunes).  Either walk declines
with ``skip_reason = "probe_cost"`` when the postings it would touch (the
gathered slice lengths, or the codes in the length window) exceed the
probe-cost cap: hot gram distributions are exactly where a linear walk
stops beating the full scan.

:meth:`QGramIndex.match` confirms each surviving code once, on one row
holding it.  The CSR arrays are rebuilt, not patched, at the next walk
after the encoding's ``generation`` has moved; Alg. 4's tentative
writes copy a donor's value and roll back to missing, so during an
imputation the live values and the arrays stay put.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.dataset.encoding import ColumnEncoding
from repro.index.base import EMPTY_ROWS, ValueIndex


def qgrams(value: str, q: int) -> dict[str, int]:
    """Multiset of overlapping q-grams as a gram -> count mapping."""
    grams: dict[str, int] = {}
    for position in range(len(value) - q + 1):
        gram = value[position:position + q]
        grams[gram] = grams.get(gram, 0) + 1
    return grams


class QGramIndex(ValueIndex):
    """Inverted q-gram index over one string column, rebuilt over the
    live codes whenever the encoding's ``generation`` has moved."""

    kind = "qgram"

    def __init__(
        self,
        encoding: ColumnEncoding,
        *,
        q: int = 2,
        max_result: int | None = None,
        max_probe_cost: int | None = None,
    ) -> None:
        if q < 1:
            raise ValueError("q must be >= 1")
        self.q = q
        self._max_probe_cost = max_probe_cost
        super().__init__(encoding, max_result=max_result)
        self._rebuild()

    def _rebuild(self) -> None:
        """Re-derive ``lengths`` and the postings from the live codes."""
        encoding = self.encoding
        values = encoding.values
        live = np.flatnonzero(encoding.counts).tolist()
        self._lengths = np.full(len(values), -1, dtype=np.int64)
        self._lengths[live] = [len(values[code]) for code in live]
        q = self.q
        gram_id: dict[str, int] = {}
        intern = gram_id.setdefault
        gram_ids: list[int] = []
        owners: list[int] = []
        for code in live:
            value = values[code]
            width = len(value) - q + 1
            if width > 0:
                gram_ids.extend(
                    intern(value[i:i + q], len(gram_id))
                    for i in range(width)
                )
                owners.extend([code] * width)
        # One (gram, code) key per posting, sorted: gram-major runs are
        # the CSR slices, and repeats of a key are the gram's count.
        stride = max(len(values), 1)
        keys, counts = np.unique(
            np.array(gram_ids, dtype=np.int64) * stride
            + np.array(owners, dtype=np.int64),
            return_counts=True,
        )
        offsets = np.zeros(len(gram_id) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(keys // stride, minlength=len(gram_id)),
            out=offsets[1:],
        )
        self._gram_id = gram_id
        self._offsets = offsets.tolist()
        self._posting_codes = keys % stride
        self._posting_counts = counts
        self._built = encoding.generation

    def update(self, row: int, value: Any) -> None:
        self._update(row)

    # ------------------------------------------------------------------
    def _candidates(self, code: int, threshold: float) -> np.ndarray | None:
        """Codes surviving the length and count filters."""
        if code < 0:
            return EMPTY_ROWS
        tau = int(math.floor(threshold))  # distances are integral
        if tau < 0:
            return EMPTY_ROWS
        if self._built != self.encoding.generation:
            self._rebuild()
        target = self.encoding.values[code]
        q = self.q
        target_length = len(target)
        low = max(0, target_length - tau)
        high = target_length + tau
        min_required = target_length - q + 1 - q * tau
        if min_required > 0:
            matches = self._count_filter_walk(target, tau, low, high)
        else:
            matches = self._length_walk(low, high)
        if matches is None:
            self._decline("probe_cost")
        return matches

    def match(
        self,
        code: int,
        threshold: float,
        within: Callable[[np.ndarray], np.ndarray],
    ) -> list[int] | None:
        """The codes surviving both filters that ``within`` accepts,
        each confirmed once, on one row holding it."""
        self.stats.probes += 1
        codes = self._candidates(code, threshold)
        if codes is None:
            return None
        return self._confirmed(codes.tolist(), within)

    def _count_filter_walk(
        self, target: str, tau: int, low: int, high: int
    ) -> np.ndarray | None:
        """Surviving codes when every match must share >= 1 gram: gather
        only the posting slices of the target's grams."""
        gram_id = self._gram_id
        offsets = self._offsets
        spans: list[tuple[int, int, int]] = []
        cost = 0
        for gram, count in qgrams(target, self.q).items():
            found = gram_id.get(gram)
            if found is not None:
                start, stop = offsets[found], offsets[found + 1]
                spans.append((start, stop, count))
                cost += stop - start
        if self._max_probe_cost is not None and cost > self._max_probe_cost:
            return None
        if not cost:
            return EMPTY_ROWS
        codes = np.concatenate(
            [self._posting_codes[start:stop] for start, stop, _ in spans]
        )
        if all(count == 1 for _, _, count in spans):
            # min(1, count in the value) is 1 for every posting.
            shared = np.bincount(codes)
        else:
            counts = self._posting_counts
            shared = np.bincount(codes, weights=np.concatenate([
                np.minimum(counts[start:stop], count)
                for start, stop, count in spans
            ]))
        lengths = self._lengths[:shared.size]
        required = np.maximum(lengths, len(target)) - self.q + 1 - self.q * tau
        return np.flatnonzero(
            (lengths >= low) & (lengths <= high) & (shared >= required)
        )

    def _length_walk(self, low: int, high: int) -> np.ndarray | None:
        """Surviving codes by length filter alone (count filter not
        binding)."""
        lengths = self._lengths
        matches = np.flatnonzero((lengths >= low) & (lengths <= high))
        if (
            self._max_probe_cost is not None
            and matches.size > self._max_probe_cost
        ):
            return None
        return matches
