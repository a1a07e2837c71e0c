"""Tests for the Relation column store."""

import pytest

from repro.dataset import (
    MISSING,
    Attribute,
    AttributeType,
    Relation,
    is_missing,
)
from repro.dataset.csv_io import read_csv_text, to_csv_text
from repro.exceptions import DataError, SchemaError
from repro.utils.fingerprint import relation_fingerprint


@pytest.fixture()
def small() -> Relation:
    return Relation.from_rows(
        ["Name", "Age", "City"],
        [
            ["alice", 34, "LA"],
            ["bob", MISSING, "NY"],
            ["carol", 29, MISSING],
        ],
        name="small",
    )


class TestConstruction:
    def test_from_rows_infers_types(self, small):
        assert small.attribute("Age").type is AttributeType.INTEGER
        assert small.attribute("Name").type is AttributeType.STRING

    def test_from_columns(self):
        relation = Relation.from_columns(
            {"A": [1, 2], "B": ["x", "y"]}, name="cols"
        )
        assert relation.n_tuples == 2
        assert relation.attribute("A").type is AttributeType.INTEGER

    def test_from_columns_type_override(self):
        relation = Relation.from_columns(
            {"A": [1, 2]}, types={"A": AttributeType.STRING}
        )
        assert relation.value(0, "A") == "1"

    def test_explicit_attributes_coerce(self):
        relation = Relation.from_rows(
            [Attribute("A", AttributeType.FLOAT)], [["3"], ["4.5"]]
        )
        assert relation.value(0, "A") == 3.0

    def test_rejects_duplicate_attribute_names(self):
        with pytest.raises(SchemaError):
            Relation.from_rows(["A", "A"], [[1, 2]])

    def test_rejects_no_attributes(self):
        with pytest.raises(SchemaError):
            Relation([], {})

    def test_rejects_ragged_rows(self):
        with pytest.raises(DataError):
            Relation.from_rows(["A", "B"], [[1, 2], [3]])

    def test_rejects_ragged_columns(self):
        with pytest.raises(DataError):
            Relation.from_columns({"A": [1, 2], "B": [1]})

    def test_normalizes_none_and_nan_to_missing(self):
        relation = Relation.from_columns({"A": [None, float("nan"), 1.0]})
        assert relation.value(0, "A") is MISSING
        assert relation.value(1, "A") is MISSING


class TestAccess:
    def test_dimensions(self, small):
        assert small.n_tuples == 3
        assert small.n_attributes == 3
        assert len(small) == 3

    def test_value_and_row_values(self, small):
        assert small.value(0, "Name") == "alice"
        assert small.row_values(1) == ("bob", MISSING, "NY")

    def test_unknown_attribute_raises(self, small):
        with pytest.raises(SchemaError):
            small.value(0, "Nope")

    def test_row_out_of_range_raises(self, small):
        with pytest.raises(DataError):
            small.value(3, "Name")

    def test_column_snapshot_is_immutable_copy(self, small):
        column = small.column("Age")
        assert column == (34, MISSING, 29)
        assert isinstance(column, tuple)

    def test_index_of(self, small):
        assert small.index_of("City") == 2
        with pytest.raises(SchemaError):
            small.index_of("Nope")


class TestMutation:
    def test_set_value_coerces(self, small):
        small.set_value(1, "Age", "40")
        assert small.value(1, "Age") == 40

    def test_set_value_bumps_version(self, small):
        before = small.version
        small.set_value(0, "Name", "alicia")
        assert small.version == before + 1

    def test_clear_value(self, small):
        small.clear_value(0, "Name")
        assert small.is_missing_cell(0, "Name")

    def test_set_value_rejects_bad_type(self, small):
        with pytest.raises(DataError):
            small.set_value(0, "Age", "forty")


class TestMissingHelpers:
    def test_missing_cells(self, small):
        assert small.missing_cells() == [(1, "Age"), (2, "City")]

    def test_incomplete_rows(self, small):
        assert small.incomplete_rows() == [1, 2]

    def test_count_missing_and_completeness(self, small):
        assert small.count_missing() == 2
        assert small.completeness() == pytest.approx(1 - 2 / 9)

    def test_complete_relation(self):
        relation = Relation.from_rows(["A"], [[1], [2]])
        assert relation.missing_cells() == []
        assert relation.completeness() == 1.0


class TestRowView:
    def test_mapping_interface(self, small):
        row = small.row(0)
        assert row["Name"] == "alice"
        assert set(row) == {"Name", "Age", "City"}
        assert len(row) == 3

    def test_missing_attributes(self, small):
        assert small.row(1).missing_attributes() == ("Age",)
        assert small.row(0).missing_attributes() == ()

    def test_is_incomplete(self, small):
        assert small.row(1).is_incomplete()
        assert not small.row(0).is_incomplete()

    def test_views_are_live(self, small):
        row = small.row(1)
        small.set_value(1, "Age", 99)
        assert row["Age"] == 99

    def test_values_tuple(self, small):
        assert small.row(0).values_tuple() == ("alice", 34, "LA")


class TestDerivation:
    def test_copy_is_independent(self, small):
        clone = small.copy()
        clone.set_value(0, "Name", "zed")
        assert small.value(0, "Name") == "alice"
        assert clone.equals(small) is False

    def test_copy_preserves_missing(self, small):
        assert is_missing(small.copy().value(1, "Age"))

    def test_project(self, small):
        projected = small.project(["Name", "City"])
        assert projected.attribute_names == ("Name", "City")
        assert projected.n_tuples == 3

    def test_project_unknown_raises(self, small):
        with pytest.raises(SchemaError):
            small.project(["Nope"])

    def test_take_reorders(self, small):
        taken = small.take([2, 0])
        assert taken.value(0, "Name") == "carol"
        assert taken.value(1, "Name") == "alice"

    def test_head(self, small):
        assert small.head(2).n_tuples == 2
        assert small.head(10).n_tuples == 3


class TestComparison:
    def test_equals_self_copy(self, small):
        assert small.equals(small.copy())

    def test_diff_cells(self, small):
        other = small.copy()
        other.set_value(0, "Name", "alicia")
        other.set_value(2, "Age", 1)
        assert other.diff_cells(small) == [(0, "Name"), (2, "Age")]

    def test_diff_cells_schema_mismatch(self, small):
        with pytest.raises(SchemaError):
            small.diff_cells(small.project(["Name"]))

    def test_empty_string_is_missing_on_every_surface(self):
        """``""`` and MISSING render as the same empty CSV cell, so they
        must be the same cell: equal relations, one fingerprint."""
        rows = [["a", "x"], ["b", MISSING]]
        built = Relation.from_rows(["K", "V"], rows)
        blank = Relation.from_rows(["K", "V"], [["a", "x"], ["b", ""]])
        assert blank.value(1, "V") is MISSING
        assert blank.equals(built)
        assert relation_fingerprint(blank) == relation_fingerprint(built)
        written = Relation.from_rows(["K", "V"], [["a", "x"], ["b", "y"]])
        written.set_value(1, "V", "")
        assert written.equals(built)
        appended = Relation.from_rows(["K", "V"], rows[:1])
        appended.append_rows([["b", ""]])
        assert appended.equals(built)
        for literals in ([], ["missing"]):
            parsed = read_csv_text(to_csv_text(built), null_literals=literals)
            assert parsed.equals(built)

    def test_to_text_renders_missing_as_underscore(self, small):
        text = small.to_text()
        assert "_" in text
        assert "alice" in text


class TestListenerSafety:
    """``set_value`` must apply the write and run *every* listener
    before surfacing a listener failure (wrapped in DataError)."""

    @pytest.fixture()
    def relation(self):
        return Relation.from_rows(
            ["Name", "Age"], [["alice", 34], ["bob", 41]]
        )

    def test_failing_listener_does_not_corrupt_write(self, relation):
        def bad(row, name, value):
            raise RuntimeError("listener exploded")

        relation.add_mutation_listener(bad)
        before = relation.version
        with pytest.raises(DataError) as excinfo:
            relation.set_value(0, "Name", "alicia")
        assert relation.value(0, "Name") == "alicia"  # write applied
        assert relation.version == before + 1         # caches can react
        assert "(0, 'Name')" in str(excinfo.value)
        assert excinfo.value.__cause__.args == ("listener exploded",)

    def test_later_listeners_still_run(self, relation):
        calls = []

        def bad(row, name, value):
            raise RuntimeError("first fails")

        def invalidator(row, name, value):
            calls.append((row, name, value))

        relation.add_mutation_listener(bad)
        relation.add_mutation_listener(invalidator)
        with pytest.raises(DataError):
            relation.set_value(1, "Age", 50)
        assert calls == [(1, "Age", 50)]

    def test_multiple_failures_are_counted(self, relation):
        def bad(row, name, value):
            raise RuntimeError("boom")

        relation.add_mutation_listener(bad)
        relation.add_mutation_listener(bad)
        with pytest.raises(DataError) as excinfo:
            relation.set_value(0, "Age", 1)
        assert "+1 more listener failure" in str(excinfo.value)

    def test_healthy_listeners_raise_nothing(self, relation):
        seen = []
        relation.add_mutation_listener(
            lambda row, name, value: seen.append(value)
        )
        relation.set_value(0, "Age", 99)
        assert seen == [99]
