"""The dict-walk q-gram index, kept as the oracle of the columnar one.

:class:`DictQGramIndex` is the earlier ``QGramIndex``: postings as
``dict[gram, dict[value, count]]``, distinct values bucketed by length
in sets, and both walks as Python loops.  The columnar
:class:`~repro.index.strings.QGramIndex`, asked with every candidate
accepted, must return the same rows, the same declines and the same
``stats`` on every probe.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.dataset.missing import MISSING
from repro.index.base import EMPTY_ROWS, IndexStats
from repro.index.strings import qgrams


class DictQGramIndex:
    """Inverted q-gram index over dicts of distinct values."""

    kind = "qgram"

    def __init__(
        self,
        column: list[Any],
        *,
        q: int = 2,
        max_result: int | None = None,
        max_probe_cost: int | None = None,
    ) -> None:
        self.q = q
        self._max_result = max_result
        self._max_probe_cost = max_probe_cost
        self._values: list[str | None] = [
            None if value is MISSING else str(value) for value in column
        ]
        self._rows_by_value: dict[str, set[int]] = {}
        self._values_by_length: dict[int, set[str]] = {}
        self._postings: dict[str, dict[str, int]] = {}
        for row, value in enumerate(self._values):
            if value is None:
                continue
            rows = self._rows_by_value.get(value)
            if rows is None:
                self._rows_by_value[value] = {row}
                self._add_value(value)
            else:
                rows.add(row)
        self.skip_reason = ""
        self.stats = IndexStats()
        self.stats.builds += 1

    def _add_value(self, value: str) -> None:
        self._values_by_length.setdefault(len(value), set()).add(value)
        for gram, count in qgrams(value, self.q).items():
            self._postings.setdefault(gram, {})[value] = count

    def _drop_value(self, value: str) -> None:
        bucket = self._values_by_length[len(value)]
        bucket.discard(value)
        if not bucket:
            del self._values_by_length[len(value)]
        for gram in qgrams(value, self.q):
            postings = self._postings[gram]
            del postings[value]
            if not postings:
                del self._postings[gram]

    def update(self, row: int, value: Any) -> None:
        self.stats.updates += 1
        if row >= len(self._values):
            self._values.extend([None] * (row + 1 - len(self._values)))
        old = self._values[row]
        if old is not None:
            rows = self._rows_by_value[old]
            rows.discard(row)
            if not rows:
                del self._rows_by_value[old]
                self._drop_value(old)
        new = None if value is MISSING else str(value)
        self._values[row] = new
        if new is not None:
            rows = self._rows_by_value.get(new)
            if rows is None:
                self._rows_by_value[new] = {row}
                self._add_value(new)
            else:
                rows.add(row)

    def probe(self, value: Any, threshold: float) -> np.ndarray | None:
        self.stats.probes += 1
        if value is MISSING:
            self.stats.served += 1
            return EMPTY_ROWS
        target = str(value)
        tau = int(math.floor(threshold))
        if tau < 0:
            self.stats.served += 1
            return EMPTY_ROWS
        q = self.q
        target_length = len(target)
        low = max(0, target_length - tau)
        high = target_length + tau
        min_required = target_length - q + 1 - q * tau
        if min_required > 0:
            matches = self._count_filter_walk(target, tau, low, high)
        else:
            matches = self._length_bucket_walk(low, high)
        if matches is None:
            self.skip_reason = "probe_cost"
            self.stats.skip("probe_cost")
            return None
        rows: list[int] = []
        for match in matches:
            rows.extend(self._rows_by_value[match])
        if self._max_result is not None and len(rows) > self._max_result:
            self.skip_reason = "hot_group"
            self.stats.skip("hot_group")
            return None
        self.stats.served += 1
        if not rows:
            return EMPTY_ROWS
        return np.array(sorted(rows), dtype=np.int64)

    def _count_filter_walk(
        self, target: str, tau: int, low: int, high: int
    ) -> list[str] | None:
        postings_lists = []
        cost = 0
        for gram, target_count in qgrams(target, self.q).items():
            postings = self._postings.get(gram)
            if postings:
                postings_lists.append((target_count, postings))
                cost += len(postings)
        if self._max_probe_cost is not None and cost > self._max_probe_cost:
            return None
        shared: dict[str, int] = {}
        for target_count, postings in postings_lists:
            for candidate, count in postings.items():
                shared[candidate] = shared.get(candidate, 0) + min(
                    target_count, count
                )
        matches = []
        for candidate, shared_count in shared.items():
            length = len(candidate)
            if length < low or length > high:
                continue
            longer = max(length, len(target))
            if shared_count < longer - self.q + 1 - self.q * tau:
                continue
            matches.append(candidate)
        return matches

    def _length_bucket_walk(self, low: int, high: int) -> list[str] | None:
        buckets = [
            self._values_by_length[length]
            for length in range(low, high + 1)
            if length in self._values_by_length
        ]
        if self._max_probe_cost is not None:
            if sum(len(bucket) for bucket in buckets) > self._max_probe_cost:
                return None
        return [value for bucket in buckets for value in bucket]
