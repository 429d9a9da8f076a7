"""The summary benchmarks/pairs.py writes into a BENCH file."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_summary_of_fixed_pairs():
    base = [{"pages_per_s": v, "import_s": s}
            for v, s in ((100, 0.50), (110, 0.40), (90, 0.45), (120, 0.40), (105, 0.60))]
    change = [{"pages_per_s": v, "import_s": s}
              for v, s in ((104, 0.45), (110, 0.50), (99, 0.40), (118, 0.30), (130, 0.50))]
    summary = pairs.summarize(base, change, {"pages_per_s": "higher", "import_s": "lower"},
                              {"pages_per_s": 0.25, "import_s": 0.25})

    rate = summary["pages_per_s"]
    assert rate["base"] == pytest.approx({"q1": 100, "median": 105, "q3": 110})
    assert rate["change"] == pytest.approx({"q1": 104, "median": 110, "q3": 118})
    assert (rate["wins"], rate["pairs"]) == (3, 5)  # the tie at 110 counts for neither
    assert rate["median_change"] == pytest.approx(110 / 105 - 1)

    times = summary["import_s"]
    spread = pytest.approx({"q1": 0.40, "median": 0.45, "q3": 0.50})
    assert times["base"] == spread and times["change"] == spread
    assert (times["wins"], times["better"]) == (4, "lower")  # lower is better
    assert times["median_change"] == pytest.approx(0)


def test_summary_flags_a_median_worse_beyond_its_bound():
    base = [{"rate": 100.0, "time": 1.0}]
    summary = pairs.summarize(
        base, [{"rate": 74.0, "time": 1.26}],
        {"rate": "higher", "time": "lower"}, {"rate": 0.25, "time": 0.25})
    assert summary["rate"]["worse_beyond_bound"] is True  # 26% slower
    assert summary["time"]["worse_beyond_bound"] is True  # 26% longer
    summary = pairs.summarize(
        base, [{"rate": 76.0, "time": 1.24}],
        {"rate": "higher", "time": "lower"}, {"rate": 0.25, "time": 0.25})
    assert summary["rate"]["worse_beyond_bound"] is False  # within the bound
    assert summary["time"]["worse_beyond_bound"] is False
    summary = pairs.summarize(
        base, [{"rate": 200.0, "time": 0.1}],
        {"rate": "higher", "time": "lower"}, {"rate": 0.25, "time": 0.25})
    assert summary["rate"]["worse_beyond_bound"] is False  # better is never worse
    assert summary["time"]["worse_beyond_bound"] is False


def test_summary_needs_matched_pairs():
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        pairs.summarize([{"x": 1}], [], {"x": "lower"}, {"x": 0.25})


def test_uncommitted_edits_count_untracked_files(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("/.perfbench/\n", encoding="utf-8")
    (tmp_path / "kept.py").write_text("x = 1\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    assert not pairs.has_uncommitted_edits(tmp_path)
    (tmp_path / ".perfbench").mkdir()
    (tmp_path / ".perfbench" / "result.json").write_text("{}", encoding="utf-8")
    (tmp_path / "BENCH_parse_en.json").write_text("{}", encoding="utf-8")
    assert not pairs.has_uncommitted_edits(tmp_path)  # ignored files and BENCH output
    (tmp_path / "new_module.py").write_text("y = 2\n", encoding="utf-8")
    assert pairs.has_uncommitted_edits(tmp_path)
    (tmp_path / "new_module.py").unlink()
    (tmp_path / "kept.py").write_text("x = 2\n", encoding="utf-8")
    assert pairs.has_uncommitted_edits(tmp_path)
