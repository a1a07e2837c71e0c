"""Tests for CSV import/export."""

import pytest

from repro.dataset import (
    AttributeType,
    MISSING,
    read_csv,
    read_csv_text,
    to_csv_text,
    write_csv,
)
from repro.dataset.attribute import coerce_value
from repro.exceptions import CSVFormatError, DataError


class TestReadCsvText:
    def test_basic_parse_and_inference(self):
        relation = read_csv_text("A,B\n1,x\n2,y\n")
        assert relation.n_tuples == 2
        assert relation.attribute("A").type is AttributeType.INTEGER
        assert relation.value(1, "B") == "y"

    def test_empty_cell_is_missing(self):
        relation = read_csv_text("A,B\n1,\n,y\n")
        assert relation.value(0, "B") is MISSING
        assert relation.value(1, "A") is MISSING

    @pytest.mark.parametrize("literal", ["_", "?", "NA", "null", "None"])
    def test_null_literals(self, literal):
        relation = read_csv_text(f"A\n{literal}\n")
        assert relation.value(0, "A") is MISSING

    def test_custom_null_literals(self):
        relation = read_csv_text("A\nmissing\n", null_literals=["missing"])
        assert relation.value(0, "A") is MISSING

    def test_declared_types_override_inference(self):
        relation = read_csv_text(
            "A\n1\n2\n", types={"A": AttributeType.STRING}
        )
        assert relation.value(0, "A") == "1"

    def test_whitespace_stripped(self):
        relation = read_csv_text("A,B\n 1 , x \n")
        assert relation.value(0, "A") == 1
        assert relation.value(0, "B") == "x"

    def test_semicolon_delimiter(self):
        relation = read_csv_text("A;B\n1;2\n", delimiter=";")
        assert relation.value(0, "B") == 2

    def test_empty_input_raises(self):
        with pytest.raises(CSVFormatError):
            read_csv_text("")

    def test_duplicate_header_raises(self):
        with pytest.raises(CSVFormatError):
            read_csv_text("A,A\n1,2\n")

    def test_blank_header_raises(self):
        with pytest.raises(CSVFormatError):
            read_csv_text("A,\n1,2\n")

    def test_digit_groups_stay_strings(self):
        relation = read_csv_text("code,x\n1_000,a\n2_5,b\n")
        assert relation.attribute("code").type is AttributeType.STRING
        assert relation.column("code") == ("1_000", "2_5")

    def test_non_ascii_digits_stay_strings(self):
        relation = read_csv_text("code\n\u0663\n4\n")
        assert relation.attribute("code").type is AttributeType.STRING
        assert relation.column("code") == ("\u0663", "4")

    def test_digit_groups_under_a_declared_integer_raise(self):
        with pytest.raises(DataError) as excinfo:
            read_csv_text(
                "code\n12\n1_000\n", types={"code": AttributeType.INTEGER}
            )
        assert str(excinfo.value) == "cannot coerce '1_000' to integer"

    def test_each_distinct_cell_is_coerced_once(self, monkeypatch):
        import repro.dataset.csv_io as csv_io
        import repro.dataset.relation as relation_mod

        calls = []

        def counting(value, attr_type):
            calls.append(value)
            return coerce_value(value, attr_type)

        def refuse(value, attr_type):
            raise AssertionError("the relation coerced a parsed cell again")

        monkeypatch.setattr(csv_io, "coerce_value", counting)
        monkeypatch.setattr(relation_mod, "coerce_value", refuse)
        relation = read_csv_text("A,B\n1,x\n1,x\n 1 ,y\n,x\nNA,x\n")
        # A: "1", " 1 ", "" and "NA"; B: "x" and "y".
        assert len(calls) == 6
        assert relation.column("A") == (1, 1, 1, MISSING, MISSING)
        assert relation.column("B") == ("x", "x", "y", "x", "x")

    def test_field_count_mismatch_raises(self):
        with pytest.raises(CSVFormatError) as excinfo:
            read_csv_text("A,B\n1\n")
        assert "line 2" in str(excinfo.value)


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        relation = read_csv_text("Name,Age\nalice,34\nbob,\n")
        path = tmp_path / "out.csv"
        write_csv(relation, path)
        back = read_csv(path)
        assert back.equals(relation)
        assert back.name == "out"

    def test_to_csv_text_renders_missing(self):
        relation = read_csv_text("A,B\n1,\n")
        text = to_csv_text(relation, null_literal="_")
        assert text == "A,B\n1,_\n"

    def test_read_csv_uses_stem_as_name(self, tmp_path):
        path = tmp_path / "mydata.csv"
        path.write_text("A\n1\n")
        assert read_csv(path).name == "mydata"


class TestIngestHardening:
    """Malformed input fails fast with 1-based row/column locations."""

    def test_ragged_row_reports_location(self):
        with pytest.raises(CSVFormatError) as excinfo:
            read_csv_text("A,B,C\n1,2,3\n4,5\n")
        message = str(excinfo.value)
        assert "line 3" in message
        assert "2" in message and "3" in message  # got vs expected

    def test_duplicate_headers_name_the_columns(self):
        with pytest.raises(CSVFormatError) as excinfo:
            read_csv_text("Id,Name,Id\n1,a,2\n")
        message = str(excinfo.value)
        assert "duplicate" in message
        assert "'Id'" in message
        assert "1" in message and "3" in message  # both column positions

    def test_blank_header_reports_column(self):
        with pytest.raises(CSVFormatError) as excinfo:
            read_csv_text("A,,C\n1,2,3\n")
        message = str(excinfo.value)
        assert "line 1" in message
        assert "column 2" in message

    def test_undecodable_bytes_raise_csv_format_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"A,B\n1,caf\xe9\n")
        with pytest.raises(CSVFormatError) as excinfo:
            read_csv(path)
        message = str(excinfo.value)
        assert "UTF-8" in message
        assert "byte offset" in message

    def test_write_csv_is_atomic(self, tmp_path, monkeypatch):
        """A crash mid-write must not clobber the existing file."""
        import repro.utils.atomic as atomic_mod

        relation = read_csv_text("A,B\n1,2\n")
        target = tmp_path / "out.csv"
        target.write_text("precious\n")

        real_replace = atomic_mod.os.replace

        def exploding_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(atomic_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            write_csv(relation, target)
        monkeypatch.setattr(atomic_mod.os, "replace", real_replace)
        assert target.read_text() == "precious\n"  # untouched
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []  # temp file cleaned up

    def test_write_csv_replaces_on_success(self, tmp_path):
        relation = read_csv_text("A,B\n1,2\n")
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        write_csv(relation, target)
        assert read_csv(target).equals(relation)
