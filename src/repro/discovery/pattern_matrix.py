"""All-pairs distance matrices for discovery.

Discovery evaluates threshold candidates over *every* tuple pair, so the
pair distances are materialized once per attribute as numpy arrays
(``NaN`` marks pairs where either side is missing).  String distances are
the edit distance clamped at ``limit + 1``: discovery never needs to
distinguish distances beyond the threshold limit.  Each distinct value
pair is computed once, in one batched bit-parallel kernel call
(:func:`~repro.distance.levenshtein.levenshtein_bounded_many`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dataset.attribute import AttributeType
from repro.dataset.missing import is_missing
from repro.dataset.relation import Relation
from repro.distance.levenshtein import levenshtein_bounded_many
from repro.exceptions import DiscoveryError
from repro.utils.rng import spawn_rng


class PairDistanceMatrix:
    """Distances of (sampled) tuple pairs, one numpy array per attribute.

    Parameters
    ----------
    relation:
        The instance to analyze.
    string_limit:
        Clamp for string distances: values above it are stored as
        ``string_limit + 1``.  Must be at least the largest threshold the
        caller will test.
    max_pairs / seed:
        Optional reservoir cap on the number of pairs; beyond it a seeded
        random subset is used and :attr:`exact` turns false.
    """

    def __init__(
        self,
        relation: Relation,
        *,
        string_limit: float = 15.0,
        max_pairs: int | None = None,
        seed: int = 0,
    ) -> None:
        if string_limit < 0:
            raise DiscoveryError("string_limit must be >= 0")
        self.relation = relation
        self.string_limit = float(string_limit)
        n = relation.n_tuples
        total_pairs = n * (n - 1) // 2
        self.exact = max_pairs is None or total_pairs <= max_pairs
        if self.exact:
            first, second = np.triu_indices(n, k=1)
        else:
            rng = spawn_rng(seed, "pair-sample", n, max_pairs)
            positions = np.array(
                rng.sample(range(total_pairs), max_pairs), dtype=np.int64
            )
            positions.sort()
            first, second = _decode_pairs(positions, n)
        self.pairs: np.ndarray = np.stack([first, second], axis=1).astype(
            np.int64
        )
        self._distances: dict[str, np.ndarray] = {}
        for attribute in relation.attributes:
            self._distances[attribute.name] = self._column_distances(
                attribute.name, attribute.type
            )

    @property
    def n_pairs(self) -> int:
        """Number of pairs represented (sampled or exhaustive)."""
        return int(self.pairs.shape[0])

    def distances(self, attribute: str) -> np.ndarray:
        """Pair distances on one attribute (``NaN`` where undefined)."""
        try:
            return self._distances[attribute]
        except KeyError:
            raise DiscoveryError(f"unknown attribute {attribute!r}") from None

    def defined_mask(self, attribute: str) -> np.ndarray:
        """Boolean mask of pairs with both values present."""
        return ~np.isnan(self._distances[attribute])

    # ------------------------------------------------------------------
    def _column_distances(
        self, name: str, attr_type: AttributeType
    ) -> np.ndarray:
        column = self.relation.column(name)
        out = np.full(self.n_pairs, np.nan, dtype=np.float64)
        if attr_type.is_numeric:
            self._fill_numeric(column, out)
        elif attr_type is AttributeType.BOOLEAN:
            self._fill_boolean(column, out)
        else:
            self._fill_string(column, out)
        return out

    def _fill_numeric(self, column: tuple, out: np.ndarray) -> None:
        self._fill_difference(
            [math.nan if is_missing(v) else float(v) for v in column], out
        )

    def _fill_boolean(self, column: tuple, out: np.ndarray) -> None:
        self._fill_difference(
            [math.nan if is_missing(v) else float(bool(v)) for v in column],
            out,
        )

    def _fill_difference(self, encoded: list[float], out: np.ndarray) -> None:
        values = np.array(encoded, dtype=np.float64)
        np.abs(values[self.pairs[:, 0]] - values[self.pairs[:, 1]], out=out)

    def _fill_string(self, column: tuple, out: np.ndarray) -> None:
        # Factorize the column (-1 = missing), then compute each distinct
        # unordered value pair once and scatter it back to its pairs.
        index: dict[str, int] = {}
        codes = np.fromiter(
            (
                -1 if is_missing(v) else index.setdefault(str(v), len(index))
                for v in column
            ),
            dtype=np.int64,
            count=len(column),
        )
        left = codes[self.pairs[:, 0]]
        right = codes[self.pairs[:, 1]]
        present = (left >= 0) & (right >= 0)
        low = np.minimum(left, right)[present]
        high = np.maximum(left, right)[present]
        keys, inverse = np.unique(
            low * len(index) + high, return_inverse=True
        )
        texts = np.array(list(index), dtype=object)
        distances = levenshtein_bounded_many(
            texts[keys // len(index)],
            texts[keys % len(index)],
            int(math.ceil(self.string_limit)),
        )
        out[present] = distances[inverse]


def _decode_pairs(
    positions: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``(i, j)``, ``i < j``, of positions in the row-major
    enumeration of the ``n * (n - 1) / 2`` pairs of ``n`` tuples."""

    def row_start(row: np.ndarray) -> np.ndarray:
        return row * (2 * n - row - 1) // 2

    # Invert row_start(i) <= p by the quadratic formula, then repair
    # the float rounding by at most one row either way.
    edge = 2 * n - 1
    row = np.floor(
        (edge - np.sqrt(np.maximum(edge * edge - 8.0 * positions, 0.0))) / 2
    ).astype(np.int64)
    row -= row_start(row) > positions
    row += row_start(row + 1) <= positions
    return row, positions - row_start(row) + row + 1
