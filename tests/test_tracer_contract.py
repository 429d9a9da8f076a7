"""The return shapes the benchmark's tracer counts through (perfbench/tracing.py).

`run.py --trace 1` reports relation and translation counts by wrapping the
extractors and reading their results; if a result shape changes, those
counts go wrong silently. A traced parse of each fixture corpus must count
exactly the rows the store holds, with one pool worker and with two: every
parse analyses its pages in workers, whose spans and counts the tracer
carries back through the pool's result iterator.
"""

import os
import sys

import pytest

from conftest import fixture_dump_pages, write_dump
from wiktmrd.pipeline import ParseConfig, run_parse
from wiktmrd.store import MrdStore

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("dialect, workers", [
    pytest.param("en", 1, id="en"), pytest.param("ru", 1, id="ru"),
    pytest.param("en", 2, id="en-workers2"), pytest.param("ru", 2, id="ru-workers2"),
])
def test_traced_parse_counts_the_stored_rows(tmp_path, dialect, workers):
    dump = write_dump(tmp_path / f"{dialect}.xml", fixture_dump_pages(dialect))
    store_path = tmp_path / f"{dialect}.db"
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        report = run_parse(ParseConfig(dialect=dialect, dump_path=dump,
                                       store_path=store_path, worker_count=workers))
    finally:
        uninstall()
    with MrdStore(store_path) as store:
        sizes = store.table_sizes()
    assert sizes["relation"] > 0 and sizes["translation_entry"] > 0
    assert tracer.counts["relations.records"] == sizes["relation"]
    assert tracer.counts["translations.entries"] == sizes["translation_entry"]
    assert tracer.counts["translations.lines_skipped"] == report.translation_lines_skipped
    assert tracer.counts["pipeline.kind.parsed"] == report.pages_parsed
    assert tracer.summary()["pipeline.wait_workers"]["calls"] > 0
