"""Self-tests of the benchmark: seeded inputs repeat and the output checks bite.

    python -m pytest perfbench -q
"""

import sqlite3

import pytest

import gen
import run

run._import_program()

SMALL_EN = gen.DumpSpec("en", 60, vocab=50, langs_per_block=(3, 6))


def test_same_seed_gives_byte_identical_dumps(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = run.write_dump(tmp_path / "a", "d", SMALL_EN, 7, compress=True)
    b = run.write_dump(tmp_path / "b", "d", SMALL_EN, 7, compress=True)
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.oracle == b.oracle
    assert gen.make_dump(SMALL_EN, 8)[0] != gen.make_dump(SMALL_EN, 7)[0]


@pytest.mark.parametrize("spec", [
    gen.DumpSpec("en", 400, vocab=600, langs_per_block=(3, 8)),
    gen.DumpSpec("ru", 250, vocab=300, langs_per_block=(10, 20)),
])
def test_seeds_give_dumps_of_the_same_make_up(spec):
    tables = [gen.make_dump(spec, seed)[1].tables for seed in range(6)]
    for table in ("lang_pos", "meaning", "relation", "translation_entry"):
        counts = [t[table] for t in tables]
        assert max(counts) <= 1.05 * min(counts), (table, counts)


@pytest.fixture(scope="module")
def parsed(tmp_path_factory):
    work = tmp_path_factory.mktemp("parsed")
    dump = run.write_dump(work, "d", SMALL_EN, 3, compress=False)
    store = work / "s.db"
    proc = run.run_parse(dump, store, 1, work, "parse")
    return dump, store, run.parse_report(proc.stdout)


def test_unchanged_program_passes_the_parse_check(parsed):
    dump, store, report = parsed
    assert run.check_parse(report, dump.oracle, store) == []


@pytest.mark.parametrize("sql", [
    "DELETE FROM translation_entry WHERE id = (SELECT MAX(id) FROM translation_entry)",
    "DELETE FROM lang_pos WHERE id = (SELECT MAX(id) FROM lang_pos)",
])
def test_store_with_one_row_deleted_fails_the_parse_check(parsed, tmp_path, sql):
    dump, store, report = parsed
    broken = tmp_path / "broken.db"
    with sqlite3.connect(store) as src, sqlite3.connect(broken) as dst:
        src.backup(dst)
    with sqlite3.connect(broken) as conn:
        conn.execute(sql)
    assert run.check_parse(report, dump.oracle, broken)


def test_wrong_page_count_in_the_report_fails_the_parse_check(parsed):
    dump, store, report = parsed
    assert run.check_parse(dict(report, pages_parsed=report["pages_parsed"] - 1),
                           dump.oracle, store)


def _query_result(oracle, work):
    for name in ("export", "reexport"):
        (work / name).mkdir()
        (work / name / "page.tsv").write_text("id\ttitle\n1\tx\n")
    words = sorted(oracle.reverse)[:5] + ["absent-word"]
    return {"errors": 0,
            "reverse_answers": {w: sorted(map(list, oracle.reverse.get(w, ()))) for w in words},
            "lookup_answers": {t: oracle.sections[t] for t in oracle.titles[:5]}}


def test_correct_query_answers_pass(parsed, tmp_path):
    oracle = parsed[0].oracle
    assert run.check_query(_query_result(oracle, tmp_path), oracle, tmp_path) == []


def test_reverse_lookup_with_one_wrong_title_fails(parsed, tmp_path):
    oracle = parsed[0].oracle
    result = _query_result(oracle, tmp_path)
    word = next(iter(result["reverse_answers"]))
    result["reverse_answers"][word][0][0] += "x"
    assert run.check_query(result, oracle, tmp_path)


def test_round_trip_that_changes_a_byte_fails(parsed, tmp_path):
    oracle = parsed[0].oracle
    result = _query_result(oracle, tmp_path)
    (tmp_path / "reexport" / "page.tsv").write_text("id\ttitle\n1\ty\n")
    assert run.check_query(result, oracle, tmp_path)
