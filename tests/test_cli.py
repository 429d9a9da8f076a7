"""The command-line surface, driven through main()."""

import json
import sqlite3

import pytest

from conftest import fixture_dump_pages, write_dump
from wiktmrd.cli import main
from wiktmrd.store import SCHEMA_VERSION, MrdStore, StoreError


@pytest.fixture(scope="module")
def parsed_store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    dump = write_dump(tmp / "en.xml", fixture_dump_pages("en"))
    store = tmp / "en.db"
    assert main(["parse", "--dialect", "en", "--dump", str(dump),
                 "--store", str(store)]) == 0
    return store


@pytest.fixture(scope="module")
def parsed_ru_store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_ru")
    dump = write_dump(tmp / "ru.xml", fixture_dump_pages("ru"))
    store = tmp / "ru.db"
    assert main(["parse", "--dialect", "ru", "--dump", str(dump),
                 "--store", str(store)]) == 0
    return store


# the en fixture corpus's counters, by the labels perfbench/run.py reads
_EN_SUMMARY = {"pages seen": 11, "pages parsed": 11, "pages skipped (redirect)": 0,
               "pages skipped (namespace)": 0, "pages failed": 0,
               "sections skipped (unknown language)": 2, "translation lines skipped": 0}


def test_parse_reports_summary(tmp_path, capsys):
    dump = write_dump(tmp_path / "en.xml", fixture_dump_pages("en"))
    assert main(["parse", "--dialect", "en", "--dump", dump,
                 "--store", str(tmp_path / "en.db")]) == 0
    lines = capsys.readouterr().out.splitlines()
    counters = {}
    for line in lines:
        label, sep, value = line.partition(":")
        if sep and label.strip() in _EN_SUMMARY:
            counters[label.strip()] = int(value.split()[0])
    assert counters == _EN_SUMMARY
    assert len(lines) == len(_EN_SUMMARY) + 1 and lines[-1].startswith("elapsed: ")


def test_stats_text(parsed_store, capsys):
    assert main(["stats", "--store", str(parsed_store)]) == 0
    out = capsys.readouterr().out
    assert "table_size.relation" in out
    assert "avg_relations_per_native_word" in out


def test_stats_json_lines(parsed_store, capsys):
    assert main(["stats", "--store", str(parsed_store)]) == 0
    capsys.readouterr()
    assert main(["stats", "--store", str(parsed_store), "--json"]) == 0
    out = capsys.readouterr().out
    metrics = {}
    for line in out.splitlines():
        rec = json.loads(line)
        assert set(rec) == {"name", "value", "numerator", "denominator"}
        metrics[rec["name"]] = rec
    assert metrics["table_size.relation_type"]["value"] == 9
    assert metrics["avg_relations_per_native_word"]["denominator"] > 0


def test_stats_empty_store(tmp_path, capsys):
    dump = write_dump(tmp_path / "e.xml", [])
    assert main(["parse", "--dialect", "en", "--dump", str(dump),
                 "--store", str(tmp_path / "empty.db")]) == 0
    capsys.readouterr()
    assert main(["stats", "--store", str(tmp_path / "empty.db")]) == 0
    out = capsys.readouterr().out
    assert "empty_store" in out


def test_lookup_nationality(parsed_store, capsys):
    assert main(["lookup", "--store", str(parsed_store), "nationality"]) == 0
    out = capsys.readouterr().out
    assert "1. Membership of a particular nation" in out
    assert "synonym: citizenship" in out
    assert "translations (membership of a nation)" in out
    assert "fi: kansallisuus" in out


def test_lookup_language_filter(parsed_store, capsys):
    assert main(["lookup", "--store", str(parsed_store), "qen", "--lang", "sq"]) == 0
    out = capsys.readouterr().out
    assert "sq · noun" in out
    assert main(["lookup", "--store", str(parsed_store), "qen", "--lang", "fi"]) == 1


def test_lookup_absent_word(parsed_store, capsys):
    assert main(["lookup", "--store", str(parsed_store), "nonesuch"]) == 1
    err = capsys.readouterr().err
    assert "not found" in err


def test_lookup_reverse_absent_word(parsed_store, capsys):
    assert main(["lookup", "--store", str(parsed_store), "nonesuch", "--reverse"]) == 1
    assert capsys.readouterr().err.startswith("not found: ")


def test_lookup_soft_redirect_points_to_lemma(parsed_store, capsys):
    assert main(["lookup", "--store", str(parsed_store), "dogs"]) == 0
    out = capsys.readouterr().out
    assert "plural of → dog" in out


def test_lookup_reverse(parsed_ru_store, capsys):
    assert main(["lookup", "--store", str(parsed_ru_store), "enkeli", "--reverse"]) == 0
    out = capsys.readouterr().out
    assert "ангел" in out


def test_lookup_reverse_sorted_by_title_then_language(tmp_path, capsys):
    # each title translates "kissa" into fi before de, and "zeta" is saved first
    path = tmp_path / "s.db"
    with MrdStore(path, dialect="en") as store:
        for record_id, title in enumerate(("zeta", "alpha")):
            store.save_word(title, record_id, [(
                "en", "noun", 0, [], [],
                [("cat", [("fi", "kissa", "{{t|fi|kissa}}"),
                          ("de", "kissa", "{{t|de|kissa}}")])], None)])
        expected = [("alpha", "de"), ("alpha", "fi"), ("zeta", "de"), ("zeta", "fi")]
        assert store.reverse_lookup("kissa") == expected
    capsys.readouterr()
    assert main(["lookup", "--store", str(path), "kissa", "--reverse"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{title}  (translated into {code} as kissa)" for title, code in expected]


def test_compare_identical_store_with_itself(parsed_store, capsys):
    assert main(["compare", "--store-a", str(parsed_store),
                 "--store-b", str(parsed_store)]) == 0
    out = capsys.readouterr().out
    assert "red list" in out
    assert "better presented in a: -" in out
    assert "better presented in b: -" in out


def test_compare_en_ru(parsed_store, parsed_ru_store, capsys):
    assert main(["compare", "--store-a", str(parsed_store),
                 "--store-b", str(parsed_ru_store)]) == 0
    out = capsys.readouterr().out
    assert "relation" in out


@pytest.mark.parametrize("command", [
    ["stats", "--store", "{missing}"],
    ["lookup", "--store", "{missing}", "dog"],
    ["compare", "--store-a", "{present}", "--store-b", "{missing}"],
    ["compare", "--store-a", "{missing}", "--store-b", "{present}"],
])
def test_read_commands_refuse_a_missing_store(parsed_store, tmp_path, capsys, command):
    missing = tmp_path / "typo.db"
    args = [arg.format(missing=missing, present=parsed_store) for arg in command]
    assert main(args) == 2
    assert capsys.readouterr().err.strip() == f"error: no store at {missing}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit, found", [
    ("DELETE FROM meta WHERE key = 'schema_version'", "none"),
    ("UPDATE meta SET value = '2' WHERE key = 'schema_version'", "2"),  # the layout before this one
], ids=["missing", "other"])
def test_store_of_another_layout_version_is_refused(tmp_path, capsys, edit, found):
    dump = write_dump(tmp_path / "en.xml", fixture_dump_pages("en"))
    path = tmp_path / "en.db"
    assert main(["parse", "--dialect", "en", "--dump", dump, "--store", str(path)]) == 0
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(edit)
    conn.close()
    before = path.read_bytes()
    with pytest.raises(StoreError) as exc:  # meta values unlike the stored ones
        MrdStore(path, dialect="ru")
    assert str(exc.value).endswith(
        f"layout version {found}, but this wiktmrd reads version {SCHEMA_VERSION}; "
        f"reparse the dump into a new store")
    assert path.read_bytes() == before  # a refused open writes nothing
    capsys.readouterr()
    store = str(path)
    for command in (["stats", "--store", store], ["lookup", "--store", store, "dog"],
                    ["compare", "--store-a", store, "--store-b", store],
                    ["parse", "--dialect", "en", "--dump", dump, "--store", store]):
        assert main(command) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: store layout version {found}"), err
        assert path.read_bytes() == before


def test_languages_count(capsys):
    assert main(["languages"]) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    count = int(first.split()[0])
    assert count >= 540
    assert "fi\tFinnish\tФинский" in out


def test_languages_custom_registry(tmp_path, capsys):
    reg_file = tmp_path / "extra.tsv"
    reg_file.write_text("zzx\tZizzish\t\n", encoding="utf-8")
    assert main(["languages", "--registry", str(reg_file)]) == 0
    out = capsys.readouterr().out
    assert "zzx\tZizzish" in out


def test_parse_rejects_bad_dump(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<mediawiki><page><title>x</title>", encoding="utf-8")
    rc = main(["parse", "--dialect", "en", "--dump", str(bad),
               "--store", str(tmp_path / "s.db")])
    assert rc == 2
    assert "malformed dump" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--dump", "--registry"])
def test_parse_refuses_a_missing_input_file(tmp_path, capsys, option):
    missing = str(tmp_path / "typo")
    dump = write_dump(tmp_path / "en.xml", fixture_dump_pages("en"))
    args = {"--dump": ["--dump", missing],
            "--registry": ["--dump", dump, "--registry", missing]}[option]
    store = tmp_path / "s.db"
    assert main(["parse", "--dialect", "en", "--store", str(store), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err and len(err.splitlines()) == 1
    assert not store.exists()


@pytest.mark.parametrize("option,value", [
    ("--workers", "0"), ("--workers", "-1"),
    ("--checkpoint-interval", "0"), ("--checkpoint-interval", "-1"),
    ("--start-record", "-1"),
])
def test_parse_rejects_out_of_range_counts(tmp_path, capsys, option, value):
    dump = write_dump(tmp_path / "en.xml", fixture_dump_pages("en"))
    store = tmp_path / "s.db"
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--dialect", "en", "--dump", dump, "--store", str(store),
              option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err
    assert not store.exists()


def test_parse_accepts_start_record_zero(tmp_path):
    dump = write_dump(tmp_path / "en.xml", fixture_dump_pages("en"))
    assert main(["parse", "--dialect", "en", "--dump", dump,
                 "--store", str(tmp_path / "s.db"), "--start-record", "0"]) == 0


def test_lookup_reverse_refuses_lang(tmp_path, capsys):
    # a reverse lookup searches translations into every language
    store = tmp_path / "missing.db"
    with pytest.raises(SystemExit) as exc:
        main(["lookup", "--store", str(store), "kissa", "--reverse", "--lang", "fi"])
    assert exc.value.code == 2
    assert "argument --lang: not allowed with argument --reverse" in capsys.readouterr().err
    assert not store.exists()
