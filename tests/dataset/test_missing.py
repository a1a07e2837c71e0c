"""Tests for the MISSING sentinel."""

import math
import pickle

import pytest

from repro.dataset.missing import (
    MISSING,
    MissingType,
    is_missing,
    normalize_missing,
)


class TestMissingSingleton:
    def test_singleton_identity(self):
        assert MissingType() is MISSING

    def test_repr_is_underscore(self):
        assert repr(MISSING) == "_"
        assert str(MISSING) == "_"

    def test_is_falsy(self):
        assert not MISSING

    def test_equality_with_itself(self):
        assert MISSING == MissingType()

    def test_not_equal_to_other_values(self):
        assert MISSING != ""
        assert MISSING != 0
        assert MISSING != None  # noqa: E711 - equality (not identity) on purpose

    def test_hashable_and_stable(self):
        assert hash(MISSING) == hash(MissingType())
        assert len({MISSING, MissingType()}) == 1

    def test_pickle_round_trip_preserves_identity(self):
        clone = pickle.loads(pickle.dumps(MISSING))
        assert clone is MISSING


class TestIsMissing:
    def test_missing_sentinel(self):
        assert is_missing(MISSING)

    def test_none(self):
        assert is_missing(None)

    def test_nan(self):
        assert is_missing(float("nan"))
        assert is_missing(math.nan)

    def test_empty_string(self):
        assert is_missing("")

    @pytest.mark.parametrize(
        "value", [" ", "\t", 0, 0.0, False, "_", "NA", [], float("inf")]
    )
    def test_present_values(self, value):
        assert not is_missing(value)


class TestNormalizeMissing:
    def test_maps_none_to_sentinel(self):
        assert normalize_missing(None) is MISSING

    def test_maps_nan_to_sentinel(self):
        assert normalize_missing(float("nan")) is MISSING

    def test_keeps_present_values(self):
        assert normalize_missing("x") == "x"
        assert normalize_missing(0) == 0
