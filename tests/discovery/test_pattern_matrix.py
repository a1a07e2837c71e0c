"""Tests for the all-pairs distance matrices."""

import numpy as np
import pytest

from repro.dataset import MISSING, Relation
from repro.dataset.attribute import AttributeType
from repro.dataset.missing import is_missing
from repro.datasets import load_dataset
from repro.discovery.pattern_matrix import PairDistanceMatrix, _decode_pairs
from repro.distance.levenshtein import BOUNDED_STATS, levenshtein_bounded
from repro.exceptions import DiscoveryError
from repro.utils.rng import spawn_rng


@pytest.fixture()
def mixed() -> Relation:
    return Relation.from_rows(
        ["S", "N", "B"],
        [
            ["abc", 1.5, True],
            ["abd", 2.5, False],
            [MISSING, 4.0, True],
        ],
    )


class TestShape:
    def test_pair_enumeration(self, mixed):
        matrix = PairDistanceMatrix(mixed)
        assert matrix.n_pairs == 3
        assert matrix.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_single_tuple_has_no_pairs(self):
        relation = Relation.from_rows(["A"], [["x"]])
        matrix = PairDistanceMatrix(relation)
        assert matrix.n_pairs == 0


class TestDistances:
    def test_numeric(self, mixed):
        matrix = PairDistanceMatrix(mixed)
        assert matrix.distances("N").tolist() == [1.0, 2.5, 1.5]

    def test_string_with_missing(self, mixed):
        matrix = PairDistanceMatrix(mixed)
        distances = matrix.distances("S")
        assert distances[0] == 1.0
        assert np.isnan(distances[1]) and np.isnan(distances[2])

    def test_boolean(self, mixed):
        matrix = PairDistanceMatrix(mixed)
        assert matrix.distances("B").tolist() == [1.0, 0.0, 1.0]
        relation = Relation.from_rows(
            ["B"], [[True], [MISSING], [False], [True]]
        )
        distances = PairDistanceMatrix(relation).distances("B")
        # Pairs (0,1) and (1,2)/(1,3) have MISSING on the right / left.
        assert np.array_equal(
            distances,
            [np.nan, 1.0, 0.0, np.nan, np.nan, 1.0],
            equal_nan=True,
        )

    def test_string_clamped_at_limit(self):
        relation = Relation.from_rows(
            ["S"], [["aaaaaaaaaa"], ["zzzzzzzzzz"]]
        )
        matrix = PairDistanceMatrix(relation, string_limit=3)
        assert matrix.distances("S")[0] == 4.0  # limit + 1

    def test_defined_mask(self, mixed):
        matrix = PairDistanceMatrix(mixed)
        assert matrix.defined_mask("S").tolist() == [True, False, False]
        assert matrix.defined_mask("N").all()

    def test_unknown_attribute_raises(self, mixed):
        matrix = PairDistanceMatrix(mixed)
        with pytest.raises(DiscoveryError):
            matrix.distances("Nope")

    def test_negative_limit_raises(self, mixed):
        with pytest.raises(DiscoveryError):
            PairDistanceMatrix(mixed, string_limit=-1)


class TestSampling:
    def test_sampling_caps_pairs(self):
        relation = Relation.from_rows(
            ["A"], [[i] for i in range(30)]
        )
        matrix = PairDistanceMatrix(relation, max_pairs=50, seed=1)
        assert matrix.n_pairs == 50
        assert not matrix.exact

    def test_sampling_deterministic(self):
        relation = Relation.from_rows(["A"], [[i] for i in range(30)])
        first = PairDistanceMatrix(relation, max_pairs=50, seed=1)
        second = PairDistanceMatrix(relation, max_pairs=50, seed=1)
        assert first.pairs.tolist() == second.pairs.tolist()

    def test_no_sampling_when_under_cap(self):
        relation = Relation.from_rows(["A"], [[i] for i in range(5)])
        matrix = PairDistanceMatrix(relation, max_pairs=100)
        assert matrix.exact
        assert matrix.n_pairs == 10

    def test_sampled_pairs_pinned(self):
        relation = Relation.from_rows(["A"], [[i] for i in range(30)])
        matrix = PairDistanceMatrix(relation, max_pairs=50, seed=1)
        assert matrix.pairs.tolist() == [
            [0, 6], [0, 13], [0, 15], [0, 26], [1, 10], [1, 12], [1, 14],
            [2, 11], [2, 14], [3, 20], [3, 21], [3, 28], [4, 6], [4, 8],
            [5, 12], [5, 14], [5, 16], [5, 19], [5, 28], [5, 29], [6, 19],
            [6, 24], [7, 18], [8, 18], [8, 20], [8, 24], [9, 10], [9, 15],
            [10, 13], [10, 20], [11, 13], [11, 15], [11, 20], [11, 24],
            [12, 16], [13, 21], [13, 26], [13, 27], [14, 22], [15, 24],
            [15, 26], [15, 27], [15, 28], [16, 28], [17, 18], [18, 20],
            [18, 23], [19, 21], [19, 24], [23, 28],
        ]

    def test_unsampled_pairs_are_row_major(self):
        relation = Relation.from_rows(["A"], [[i] for i in range(7)])
        matrix = PairDistanceMatrix(relation)
        assert matrix.pairs.dtype == np.int64
        assert matrix.pairs.tolist() == [
            [i, j] for i in range(7) for j in range(i + 1, 7)
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 17, 100])
    def test_decode_inverts_row_major_enumeration(self, n):
        expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
        first, second = _decode_pairs(np.arange(len(expected)), n)
        assert list(zip(first.tolist(), second.tolist())) == expected

    def test_decode_exact_at_scale(self):
        # Row starts near the end of a large enumeration, where the
        # float square root of the decode is least precise.
        n = 200_000
        rows = np.array([0, 1, n // 2, n - 3, n - 2])
        starts = rows * (2 * n - rows - 1) // 2
        positions = np.concatenate([starts, starts + n - rows - 2])
        first, second = _decode_pairs(positions, n)
        assert first.tolist() == rows.tolist() * 2
        assert second.tolist() == (rows + 1).tolist() + [n - 1] * 5


class TestBuiltinStringColumns:
    """Every string column of the builtin datasets matches a per-pair
    ``levenshtein_bounded`` loop memoized per distinct value pair,
    counters included."""

    @pytest.mark.parametrize("name", ["restaurant", "cars", "bridges"])
    def test_matches_per_pair_oracle(self, name):
        relation = load_dataset(name)
        rng = spawn_rng(3, "matrix-oracle", name)
        for row in range(relation.n_tuples):
            for attribute in relation.attribute_names:
                if rng.random() < 0.05:
                    relation.set_value(row, attribute, MISSING)
        limit = 3
        before = BOUNDED_STATS.snapshot()
        matrix = PairDistanceMatrix(
            relation, string_limit=limit, max_pairs=20_000, seed=1
        )
        built = BOUNDED_STATS.snapshot()
        strings = [
            a.name for a in relation.attributes
            if not a.type.is_numeric and a.type is not AttributeType.BOOLEAN
        ]
        assert strings
        for attribute in strings:
            column = relation.column(attribute)
            expected = np.full(matrix.n_pairs, np.nan)
            memo: dict[tuple[str, str], float] = {}
            for index, (i, j) in enumerate(matrix.pairs.tolist()):
                a, b = column[i], column[j]
                if is_missing(a) or is_missing(b):
                    continue
                key = tuple(sorted((str(a), str(b))))
                if key not in memo:
                    memo[key] = float(levenshtein_bounded(*key, limit))
                expected[index] = memo[key]
            assert np.array_equal(
                matrix.distances(attribute), expected, equal_nan=True
            ), attribute
        after = BOUNDED_STATS.snapshot()
        assert built[0] - before[0] == after[0] - built[0]
        assert built[1] - before[1] == after[1] - built[1]
