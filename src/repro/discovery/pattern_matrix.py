"""All-pairs distance matrices for discovery.

Discovery evaluates threshold candidates over *every* tuple pair, so the
pair distances are materialized once per attribute as numpy arrays
(``NaN`` marks pairs where either side is missing), read through the
relation's dictionary encoding of each column
(:mod:`repro.dataset.encoding`): numbers and booleans as the difference
of their codes' floats, strings by code.  String distances are
the edit distance clamped at ``limit + 1``: discovery never needs to
distinguish distances beyond the threshold limit.  Each distinct value
pair is computed once, in one batched bit-parallel kernel call
(:func:`~repro.distance.levenshtein.levenshtein_bounded_many`).
"""

from __future__ import annotations

import math

import numpy as np

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
        for name in relation.attribute_names:
            self._distances[name] = self._column_distances(name)

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
    def _column_distances(self, name: str) -> np.ndarray:
        encoding = self.relation.encoding(name)
        left = encoding.codes[self.pairs[:, 0]]
        right = encoding.codes[self.pairs[:, 1]]
        floats = encoding.floats
        if floats is not None:
            return np.abs(floats[left] - floats[right])
        # Compute each distinct unordered value pair once and scatter it
        # back to its pairs.
        out = np.full(self.n_pairs, np.nan, dtype=np.float64)
        present = (left >= 0) & (right >= 0)
        low = np.minimum(left, right)[present]
        high = np.maximum(left, right)[present]
        stride = len(encoding.values)
        keys, inverse = np.unique(low * stride + high, return_inverse=True)
        texts = np.array(encoding.values, dtype=object)
        distances = levenshtein_bounded_many(
            texts[keys // stride],
            texts[keys % stride],
            int(math.ceil(self.string_limit)),
        )
        out[present] = distances[inverse]
        return out


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
