"""The summary benchmarks/pairs.py writes into a BENCH file."""

import importlib.util
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
    summary = pairs.summarize(base, change, {"pages_per_s": "higher", "import_s": "lower"})

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


def test_summary_needs_matched_pairs():
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        pairs.summarize([{"x": 1}], [], {"x": "lower"})
