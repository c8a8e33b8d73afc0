"""Artifact writers: an interrupted write keeps the previous file, and the
CSV and JSON formats every module writes through."""

import math

import pytest

from calibforge.artifacts import json_number, write_csv, write_json, write_lines


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "report.csv"
    write_lines(path, ["old", "content"])

    def producer():
        yield "new first line"
        raise RuntimeError("producer failed mid-write")

    with pytest.raises(RuntimeError):
        write_lines(path, producer())
    assert path.read_text() == "old\ncontent\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


@pytest.mark.parametrize("comment, first", [(None, []), ("", []), ("meta", ["# meta"])])
def test_csv_rows_hold_the_repr_of_each_value_and_nothing_for_none(tmp_path, comment, first):
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b", "c"), [(1, 0.1, None), (2, 1e-300, 2.5)], comment)
    assert path.read_text().splitlines() == [*first, "a,b,c", "1,0.1,", "2,1e-300,2.5"]


def test_json_is_indented_by_two_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"kind": "temperature", "T": 1.5})
    assert path.read_text() == '{\n  "kind": "temperature",\n  "T": 1.5\n}\n'


@pytest.mark.parametrize("value, number", [
    (1, 1.0), (-2.5, -2.5), (-(10**300), -1e300), (math.inf, math.inf),
    (True, None), (False, None), ("1.5", None), (None, None), ([1.0], None),
    (10**400, None), (-(10**400), None),
])
def test_json_number_is_an_int_or_float_within_the_float_range(value, number):
    assert json_number(value) == number
