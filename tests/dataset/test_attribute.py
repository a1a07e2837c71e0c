"""Tests for attributes, types and inference/coercion."""

import pytest

from repro.dataset.attribute import (
    Attribute,
    AttributeType,
    coerce_value,
    infer_type,
)
from repro.dataset.missing import MISSING
from repro.exceptions import DataError, SchemaError


class TestAttribute:
    def test_defaults_to_string(self):
        assert Attribute("Name").type is AttributeType.STRING

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_is_hashable_value_object(self):
        assert Attribute("A") == Attribute("A")
        assert len({Attribute("A"), Attribute("A")}) == 1

    def test_str_is_name(self):
        assert str(Attribute("Phone")) == "Phone"


class TestAttributeType:
    def test_numeric_flags(self):
        assert AttributeType.INTEGER.is_numeric
        assert AttributeType.FLOAT.is_numeric
        assert not AttributeType.STRING.is_numeric
        assert not AttributeType.BOOLEAN.is_numeric


class TestInferType:
    def test_integers(self):
        assert infer_type([1, 2, 3]) is AttributeType.INTEGER

    def test_integer_strings(self):
        assert infer_type(["1", "42", "-7"]) is AttributeType.INTEGER

    def test_floats(self):
        assert infer_type([1.5, 2.0]) is AttributeType.FLOAT

    def test_float_strings(self):
        assert infer_type(["1.5", "2"]) is AttributeType.FLOAT

    def test_mixed_int_float_is_float(self):
        assert infer_type([1, 2.5]) is AttributeType.FLOAT

    def test_strings(self):
        assert infer_type(["a", "b"]) is AttributeType.STRING

    def test_booleans(self):
        assert infer_type([True, False]) is AttributeType.BOOLEAN

    def test_boolean_literals(self):
        assert infer_type(["true", "False", "yes"]) is AttributeType.BOOLEAN

    def test_numeric_01_stays_integer(self):
        # 0/1 columns are integers unless true/false literals appear.
        assert infer_type([0, 1, 1, 0]) is AttributeType.INTEGER

    def test_missing_values_ignored(self):
        assert infer_type([MISSING, 3, None]) is AttributeType.INTEGER

    def test_all_missing_defaults_to_string(self):
        assert infer_type([MISSING, None]) is AttributeType.STRING

    def test_empty_defaults_to_string(self):
        assert infer_type([]) is AttributeType.STRING

    def test_mixed_types_fall_back_to_string(self):
        assert infer_type(["1", "x"]) is AttributeType.STRING

    def test_inf_literals_are_strings(self):
        assert infer_type(["inf", "nan"]) is AttributeType.STRING

    @pytest.mark.parametrize(
        "literal", ["1_000", "2_5", "1_0.5", "1e1_0", "\u0663", "1\u0663"]
    )
    def test_python_only_number_spellings_are_strings(self, literal):
        # int() and float() read digit groups and non-ASCII digits; a
        # data file means an identifier by them.
        assert infer_type(["12", literal]) is AttributeType.STRING

    def test_stops_at_the_first_deciding_literal(self):
        def cells():
            yield "12"
            yield "x"  # no narrower type is left: the scan stops here
            raise AssertionError("read past the deciding literal")

        assert infer_type(cells()) is AttributeType.STRING

    def test_boolean_literal_keeps_scanning(self):
        # "yes" rules out the numbers but not boolean.
        assert infer_type(["yes", "no", "Y"]) is AttributeType.BOOLEAN
        assert infer_type(["yes", "no", "maybe"]) is AttributeType.STRING


class TestCoerceValue:
    def test_missing_passes_through(self):
        assert coerce_value(MISSING, AttributeType.INTEGER) is MISSING

    def test_int_from_string(self):
        assert coerce_value(" 42 ", AttributeType.INTEGER) == 42

    def test_float_from_string(self):
        assert coerce_value("2.5", AttributeType.FLOAT) == 2.5

    def test_string_from_number(self):
        assert coerce_value(7, AttributeType.STRING) == "7"

    @pytest.mark.parametrize(
        ("literal", "expected"),
        [("true", True), ("no", False), ("Y", True), (False, False)],
    )
    def test_boolean_literals(self, literal, expected):
        assert coerce_value(literal, AttributeType.BOOLEAN) is expected

    def test_bad_int_raises(self):
        with pytest.raises(DataError):
            coerce_value("abc", AttributeType.INTEGER)

    @pytest.mark.parametrize(
        ("literal", "attr_type"),
        [
            ("1_000", AttributeType.INTEGER),
            ("1_000", AttributeType.FLOAT),
            ("2_5.0", AttributeType.FLOAT),
            ("\u0663", AttributeType.INTEGER),
            ("\u0663.5", AttributeType.FLOAT),
        ],
    )
    def test_python_only_number_spellings_raise(self, literal, attr_type):
        with pytest.raises(DataError) as excinfo:
            coerce_value(literal, attr_type)
        assert str(excinfo.value) == (
            f"cannot coerce {literal!r} to {attr_type.value}"
        )

    def test_ascii_number_spellings_still_coerce(self):
        assert coerce_value("+1e3", AttributeType.INTEGER) == 1000
        assert coerce_value("007", AttributeType.INTEGER) == 7
        assert coerce_value(" .5 ", AttributeType.FLOAT) == 0.5
        assert coerce_value("nan", AttributeType.FLOAT) is MISSING

    def test_bad_boolean_raises(self):
        with pytest.raises(DataError):
            coerce_value("maybe", AttributeType.BOOLEAN)
