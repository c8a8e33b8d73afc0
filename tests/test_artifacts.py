"""Artifact writer: an interrupted write keeps the previous file."""

import pytest

from calibforge.artifacts import write_lines


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
