"""How benchmarks/same_outputs.py tells two parses' outputs apart."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_differing_files_names_changed_and_one_sided_files(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    for directory in (base, change):
        (directory / "page.tsv").write_bytes(b"id\ttitle\n1\ta\n")
    (base / "relation.tsv").write_bytes(b"id\n1\n")
    (change / "relation.tsv").write_bytes(b"id\n2\n")
    (base / "index_fi.tsv").write_bytes(b"")
    (change / "index_sq.tsv").write_bytes(b"")
    assert same_outputs.differing_files(base, change) == [
        "index_fi.tsv", "index_sq.tsv", "relation.tsv"]
    assert same_outputs.differing_files(base, base) == []


def test_line_diff_is_empty_only_for_equal_lines():
    counters = ["pages seen:                 3", "pages parsed:               2"]
    assert same_outputs.line_diff("counters", counters, list(counters)) == []
    diff = same_outputs.line_diff("counters", counters, [counters[0], "pages parsed: 1"])
    assert "-pages parsed:               2" in diff and "+pages parsed: 1" in diff
