"""Tests for the Levenshtein implementations, incl. metric properties."""

import importlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.levenshtein import (
    BOUNDED_STATS,
    CHUNK_PAIRS,
    MATCH_TABLE_CELLS,
    WORD_BITS,
    levenshtein,
    levenshtein_bounded,
    levenshtein_bounded_many,
    normalized_levenshtein,
)

# The package re-exports the ``levenshtein`` function under the module's
# name, so fetch the module itself.
levenshtein_module = importlib.import_module("repro.distance.levenshtein")

short_text = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N", "P", "Z")),
    max_size=24,
)


class TestExact:
    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("Los Angeles", "LA", 9),
            ("213/848-6677", "213-848-6677", 1),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_paper_example_name_distance(self):
        # Example 5.5: Name("Fenix", "Fenix Argyle") = 7
        assert levenshtein("Fenix", "Fenix Argyle") == 7


class TestExactProperties:
    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        distance = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(short_text, short_text)
    def test_positivity(self, a, b):
        if a != b:
            assert levenshtein(a, b) >= 1

    @settings(max_examples=50)
    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text)
    def test_single_char_append(self, a, b):
        assert levenshtein(a + "x", a) == 1


class TestBounded:
    @given(short_text, short_text, st.integers(min_value=0, max_value=30))
    def test_agrees_with_exact_up_to_limit(self, a, b, limit):
        exact = levenshtein(a, b)
        bounded = levenshtein_bounded(a, b, limit)
        if exact <= limit:
            assert bounded == exact
        else:
            assert bounded == limit + 1

    def test_zero_limit(self):
        assert levenshtein_bounded("same", "same", 0) == 0
        assert levenshtein_bounded("same", "Same", 0) == 1

    def test_length_gap_short_circuit(self):
        assert levenshtein_bounded("a" * 30, "a", 5) == 6

    def test_negative_limit_raises(self):
        with pytest.raises(ValueError):
            levenshtein_bounded("a", "b", -1)

    def test_empty_strings(self):
        assert levenshtein_bounded("", "", 3) == 0
        assert levenshtein_bounded("", "ab", 3) == 2
        assert levenshtein_bounded("", "abcd", 3) == 4

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_clamp_property_randomized(self, seed):
        """levenshtein_bounded(a, b, k) == min(levenshtein(a, b), k + 1)
        on seeded random pairs — the exact contract the donor-scan
        kernels rely on when clamping string vectors at the largest
        threshold in play."""
        rng = random.Random(seed)
        alphabet = "abcXYZ 0189-/"

        def sample() -> str:
            return "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 20))
            )

        pairs = [(sample(), sample()) for _ in range(200)]
        # Force the boundary shapes in every run: empty strings, identical
        # strings, and a length gap larger than any limit tried below.
        pairs += [("", ""), ("", sample()), ("abc", "abc"), ("a" * 25, "a")]
        for a, b in pairs:
            exact = levenshtein(a, b)
            for limit in (0, 1, 2, 3, 8, 30):
                assert levenshtein_bounded(a, b, limit) == min(
                    exact, limit + 1
                ), (a, b, limit)


# Arbitrary unicode, plus strings whose lengths straddle the 64-character
# word of the bit-parallel kernel (a small alphabet keeps such pairs
# within small limits of each other).
unicode_text = st.text(max_size=24)
near_word = st.builds(
    str.__add__,
    st.text(alphabet="ab", min_size=WORD_BITS - 6, max_size=WORD_BITS + 6),
    st.text(max_size=3),
)
text_pairs = st.one_of(
    st.tuples(unicode_text, unicode_text),
    unicode_text.map(lambda text: (text, text)),
    st.tuples(near_word, near_word),
    st.tuples(near_word, unicode_text),
    st.tuples(unicode_text, near_word),
)


def scalar_run(pairs, limit):
    """The scalar oracle: distances and BOUNDED_STATS deltas."""
    before = BOUNDED_STATS.snapshot()
    distances = [levenshtein_bounded(a, b, limit) for a, b in pairs]
    after = BOUNDED_STATS.snapshot()
    return distances, (after[0] - before[0], after[1] - before[1])


def batched_run(pairs, limit):
    before = BOUNDED_STATS.snapshot()
    distances = levenshtein_bounded_many(
        [a for a, _ in pairs], [b for _, b in pairs], limit
    )
    after = BOUNDED_STATS.snapshot()
    return distances, (after[0] - before[0], after[1] - before[1])


class TestBoundedMany:
    @settings(max_examples=300)
    @given(st.lists(text_pairs, max_size=40), st.integers(0, 40))
    def test_matches_scalar_elementwise(self, pairs, limit):
        distances, _ = batched_run(pairs, limit)
        assert distances.dtype == np.int64
        assert distances.tolist() == scalar_run(pairs, limit)[0]

    @given(st.lists(text_pairs, max_size=40), st.integers(0, 40))
    def test_counters_match_scalar_calls(self, pairs, limit):
        assert batched_run(pairs, limit)[1] == scalar_run(pairs, limit)[1]

    @pytest.mark.parametrize(
        ("chunk", "table_cells"),
        [(1, MATCH_TABLE_CELLS), (7, 64), (CHUNK_PAIRS, MATCH_TABLE_CELLS)],
    )
    def test_chunking_does_not_change_results(
        self, chunk, table_cells, monkeypatch
    ):
        rng = random.Random(chunk)
        alphabet = "ab cXé\U0001f600"

        def sample() -> str:
            return "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 80))
            )

        pairs = [(sample(), sample()) for _ in range(300)]
        pairs += [(text, text) for text, _ in pairs[:20]]
        monkeypatch.setattr(levenshtein_module, "CHUNK_PAIRS", chunk)
        monkeypatch.setattr(
            levenshtein_module, "MATCH_TABLE_CELLS", table_cells
        )
        for limit in (0, 3, 15, 80):
            distances, counts = batched_run(pairs, limit)
            assert (distances.tolist(), counts) == scalar_run(pairs, limit)

    def test_word_boundary(self):
        # Shorter sides of 64 (bit-parallel) and 65 characters (scalar).
        pairs = [
            ("a" * 64, "a" * 63 + "b"),
            ("a" * 64, "b" + "a" * 64),
            ("a" * 65, "a" * 64 + "b"),
            ("a" * 65, "b" + "a" * 66),
        ]
        assert levenshtein_bounded_many(
            [a for a, _ in pairs], [b for _, b in pairs], 5
        ).tolist() == [1, 1, 1, 2]

    def test_empty_batch(self):
        assert levenshtein_bounded_many([], [], 3).tolist() == []

    def test_negative_limit_raises(self):
        with pytest.raises(ValueError):
            levenshtein_bounded_many(["a"], ["b"], -1)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            levenshtein_bounded_many(["a"], [], 3)


class TestNormalized:
    def test_identical(self):
        assert normalized_levenshtein("abc", "abc") == 0.0

    def test_empty_pair(self):
        assert normalized_levenshtein("", "") == 0.0

    def test_disjoint(self):
        assert normalized_levenshtein("abc", "xyz") == pytest.approx(
            6 / 9
        )

    @given(short_text, short_text)
    def test_range(self, a, b):
        assert 0.0 <= normalized_levenshtein(a, b) <= 1.0

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert normalized_levenshtein(a, b) == normalized_levenshtein(b, a)
