"""Dump iteration, the parse run, resume/crash behavior, worker determinism."""

import dataclasses
import os
import random
import sqlite3
import string
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    DATA_DIR, assert_full_index_set, build_dump_xml, fixture_dump_pages, write_dump)
from wiktmrd import pipeline
from wiktmrd import store as store_module
from wiktmrd.cli import main
from wiktmrd.entry import Page
from wiktmrd.pipeline import EDITIONS, MalformedDump, ParseConfig, iterate_dump, run_parse
from wiktmrd.store import _SECONDARY_INDEXES, ChecksumMismatch, MrdStore


def test_iterate_dump_three_pages(tmp_path):
    dump = write_dump(tmp_path / "d.xml", [("a", "x"), ("b", "y"), ("c", "z")])
    pages = list(iterate_dump(dump))
    assert [(p.title, p.record_id) for p in pages] == [("a", 0), ("b", 1), ("c", 2)]
    assert all(not p.is_redirect for p in pages)


def test_iterate_dump_redirect_flag(tmp_path):
    dump = write_dump(tmp_path / "d.xml",
                      [("a", "x"), ("b", "#REDIRECT [[a]]", 0, "a")])
    pages = list(iterate_dump(dump))
    assert [p.is_redirect for p in pages] == [False, True]


def test_iterate_dump_skips_other_namespaces(tmp_path):
    dump = write_dump(tmp_path / "d.xml",
                      [("a", "x"), ("Wiktionary:About", "meta", 4), ("b", "y")])
    pages = list(iterate_dump(dump))
    assert [(p.title, p.record_id) for p in pages] == [("a", 0), ("b", 1)]


def test_iterate_dump_truncated_raises_with_offset(tmp_path):
    full = write_dump(tmp_path / "full.xml", [("a", "x" * 200), ("b", "y" * 5000)])
    data = Path(full).read_bytes()
    cut = len(data) // 2  # inside page b, after page a is complete
    truncated = tmp_path / "cut.xml"
    truncated.write_bytes(data[:cut])
    seen = []
    with pytest.raises(MalformedDump) as exc:
        for page in iterate_dump(truncated):
            seen.append(page.title)
    assert exc.value.byte_offset == cut
    assert seen == ["a"]  # pages before the damage still stream out


def test_truncated_dump_with_workers_fails_without_hanging(tmp_path):
    pages = [(f"w{i:03d}", f"==English==\n===Noun===\n# Word {i}.\n") for i in range(400)]
    data = Path(write_dump(tmp_path / "full.xml", pages)).read_bytes()
    cut = tmp_path / "cut.xml"
    cut.write_bytes(data[:len(data) * 2 // 3])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "wiktmrd.cli", "parse", "--dialect", "en", "--dump", str(cut),
         "--store", str(tmp_path / "s.db"), "--workers", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "malformed dump at byte offset" in proc.stderr


def _varied_pages(n):
    """Pages of seeded random letters, which compress about as little as prose."""
    rng = random.Random(n)
    return [(f"w{i:04d}", "==English==\n===Noun===\n# "
             + "".join(rng.choices(string.ascii_lowercase + " ", k=300)) + "\n")
            for i in range(n)]


def _damage(path, how):
    """Cut the file as stored at 2/3 of its length, or overwrite 64 bytes there."""
    with open(path, "rb") as f:
        data = f.read()
    at = len(data) * 2 // 3
    noise = bytes(random.Random(1).randrange(256) for _ in range(64))
    data = data[:at] if how == "cut" else data[:at] + noise + data[at + 64:]
    with open(path, "wb") as f:
        f.write(data)


def test_iterate_dump_malformed_xml_raises_with_offset(tmp_path):
    pages = _varied_pages(400)
    xml = build_dump_xml(pages)
    at = xml.index("<title>w0300</title>")
    bad = tmp_path / "bad.xml"
    bad.write_text(xml[:at] + "<title>w0300</titel>" + xml[at + 20:], encoding="utf-8")
    seen = []
    with pytest.raises(MalformedDump) as exc:
        for page in iterate_dump(bad):
            seen.append(page.title)
    assert seen == [title for title, _ in pages[:300]]
    assert exc.value.byte_offset > len(xml[:at].encode())


@pytest.mark.parametrize("how", ["cut", "corrupt"])
@pytest.mark.parametrize("compression", ["gz", "bz2"])
def test_iterate_damaged_compressed_dump_raises_with_offset(tmp_path, compression, how):
    pages = _varied_pages(1000)
    dump = write_dump(tmp_path / "d.bin", pages, compression)
    _damage(dump, how)
    pipeline.dump_identity(dump)  # the damage lies past the first 64 KiB of XML
    seen = []
    with pytest.raises(MalformedDump) as exc:
        for page in iterate_dump(dump):
            seen.append(page.title)
    assert 0 < len(seen) < len(pages)
    assert seen == [title for title, _ in pages[:len(seen)]]
    xml = build_dump_xml(pages).encode()
    last_end = xml.index(b"</page>", xml.index(f"<title>{seen[-1]}<".encode()))
    assert exc.value.byte_offset > last_end


@pytest.mark.parametrize("how", ["cut", "corrupt"])
@pytest.mark.parametrize("compression", ["gz", "bz2"])
def test_damaged_compressed_dump_head_fails_identity(tmp_path, compression, how):
    pages = _varied_pages(50)
    assert len(build_dump_xml(pages)) < 65536
    dump = write_dump(tmp_path / "d.bin", pages, compression)
    _damage(dump, how)
    with pytest.raises(MalformedDump) as exc:
        pipeline.dump_identity(dump)
    assert exc.value.byte_offset == 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("compression", ["gz", "bz2"])
def test_damaged_compressed_dump_fails_keeping_checkpoints(tmp_path, compression, workers):
    dump = write_dump(tmp_path / "d.bin", _varied_pages(1000), compression)
    _damage(dump, "cut")
    store_path = tmp_path / "s.db"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "wiktmrd.cli", "parse", "--dialect", "en", "--dump", dump,
         "--store", str(store_path), "--workers", str(workers),
         "--checkpoint-interval", "100"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "malformed dump at byte offset" in proc.stderr
    assert "Traceback" not in proc.stderr
    with MrdStore(store_path) as store:
        committed = store.load_checkpoint().last_record_id
        assert committed > 0 and committed % 100 == 0
        assert store.table_sizes()["page"] == committed


@pytest.mark.parametrize("compression", [None, "gz", "bz2"])
def test_iterate_dump_compression(tmp_path, compression):
    dump = write_dump(tmp_path / "d.bin", [("word", "text")], compression)
    assert [p.title for p in iterate_dump(dump)] == ["word"]


def test_dump_identity_distinguishes_dumps(tmp_path):
    a = write_dump(tmp_path / "a.xml", [("a", "x")])
    b = write_dump(tmp_path / "b.xml", [("a", "y")])
    assert pipeline.dump_identity(a) != pipeline.dump_identity(b)
    assert pipeline.dump_identity(a) == pipeline.dump_identity(str(a))


@pytest.mark.parametrize("dialect", ["fi", "EN", ""])
def test_run_parse_rejects_unknown_dialect(tmp_path, capsys, dialect):
    # the dump is missing too: the dialect is refused before anything is read
    config = ParseConfig(dialect=dialect, dump_path=tmp_path / "missing.xml",
                         store_path=tmp_path / "s.db")
    with pytest.raises(ValueError, match=f"unsupported dialect: {dialect!r}"):
        run_parse(config)
    # the CLI offers the names of EDITIONS only
    with pytest.raises(SystemExit) as exited:
        main(["parse", "--dialect", dialect, "--dump", str(config.dump_path),
              "--store", str(config.store_path)])
    assert exited.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_an_edition_built_from_existing_parts(registry):
    # ru headings, POS split and definitions, with en {{trans-top}} boxes
    edition = dataclasses.replace(
        EDITIONS["ru"], extract_translations=EDITIONS["en"].extract_translations)
    page = Page(title="пёс", raw_text=(
        "= {{-ru-}} =\n{{сущ ru m a 1a}}\n==== Значение ====\n# [[собака]]\n"
        "==== Синонимы ====\n# [[собака]]\n=== Перевод ===\n{{trans-top|animal}}\n"
        "* English: {{t|en|dog}}\n* Finnish: [[koira]]\n{{trans-bottom}}\n"
        "{{перев-блок|животное|de=[[Hund]]}}\n"))
    analyzed = pipeline.analyze_page(page, edition, registry)
    assert (analyzed.kind, analyzed.skipped_sections, analyzed.skipped_lines) == ("parsed", 0, 0)
    assert analyzed.lang_pos == [(
        "ru", "noun", 0,
        [(1, "[[собака]]", ["собака"])],
        [("synonym", "собака", "[[собака]]", 1)],
        [("animal", [("en", "dog", "{{t|en|dog}}"), ("fi", "koira", "[[koira]]")])],
        None)]


@pytest.mark.parametrize("compression", [None, "bz2"])
def test_resume_against_dump_sharing_its_head_rejected(tmp_path, compression):
    pages = [(f"w{i:03d}", "==English==\n===Noun===\n# " + "word " * 100 + "\n")
             for i in range(200)]
    a = write_dump(tmp_path / "a.xml", pages, compression)
    b = write_dump(tmp_path / "b.xml", pages + [("extra", "==English==\nx\n")],
                   compression)
    assert len(build_dump_xml(pages)) > 2 * 65536  # the first 64 KiB of XML agree
    store_path = tmp_path / "s.db"
    run_parse(ParseConfig(dialect="en", dump_path=a, store_path=store_path))
    with pytest.raises(ChecksumMismatch):
        run_parse(ParseConfig(dialect="en", dump_path=b, store_path=store_path))


def parse_fixture_corpus(tmp_path, dialect, **kwargs):
    dump = write_dump(tmp_path / f"{dialect}.xml", fixture_dump_pages(dialect))
    store_path = tmp_path / f"{dialect}.db"
    report = run_parse(ParseConfig(dialect=dialect, dump_path=dump,
                                   store_path=store_path, **kwargs))
    return report, store_path


def test_run_parse_en_fixture_corpus(tmp_path):
    report, store_path = parse_fixture_corpus(tmp_path, "en")
    assert report.pages_seen == 11
    assert report.pages_parsed == 11
    assert report.pages_failed == 0
    # Qqzish, plus broken.txt's malformed heading that opens a language slot
    assert report.sections_skipped_unknown_language == 2
    assert report.pages_seen == (report.pages_parsed + report.pages_skipped_redirect
                                 + report.pages_skipped_namespace + report.pages_failed)
    with MrdStore(store_path) as store:
        [(n,)] = store.query(
            "SELECT COUNT(*) FROM relation r JOIN lang_pos lp ON lp.id=r.lang_pos_id "
            "JOIN page p ON p.id=lp.page_id WHERE p.title='toe'")
        assert n == 7
        sizes = store.table_sizes()
        assert sizes["index_native"] > 0
        assert sizes["index_sq"] == 1  # the Albanian entry


def test_completed_parse_leaves_exactly_the_store_indexes(tmp_path):
    _, store_path = parse_fixture_corpus(tmp_path, "en")
    with MrdStore(store_path) as store:
        assert_full_index_set(store)
    # a reparse into the filled store keeps its indexes
    run_parse(ParseConfig(dialect="en", dump_path=tmp_path / "en.xml",
                          store_path=store_path, start_record=0))
    with MrdStore(store_path) as store:
        assert_full_index_set(store)


@pytest.mark.parametrize("dialect", ["en", "ru"])
def test_texts_of_one_hash_are_told_apart_by_their_text(tmp_path, monkeypatch, dialect):
    # every text has the same hash, and a cache of two strings sends nearly
    # every text to the lookup by hash, which must compare the texts
    monkeypatch.setattr(store_module, "_text_hash", lambda text: 0)
    monkeypatch.setattr(store_module, "_WIKI_TEXT_CACHE_SIZE", 2)
    _, store_path = parse_fixture_corpus(tmp_path, dialect)
    with MrdStore(store_path) as store:
        store.export_tsv(tmp_path / "export")
    assert_export_dirs_equal(tmp_path / "export", os.path.join(DATA_DIR, f"golden_{dialect}"))
    with MrdStore(tmp_path / "imported.db", dialect=dialect) as store:
        store.import_tsv(tmp_path / "export")
        store.export_tsv(tmp_path / "again")
    assert_export_dirs_equal(tmp_path / "again", tmp_path / "export")


def test_import_drops_the_checkpoint_of_the_content_it_replaces(tmp_path):
    report, store_path = parse_fixture_corpus(tmp_path, "en")
    assert report.pages_parsed == 11
    with MrdStore(tmp_path / "empty.db") as empty:
        empty.export_tsv(tmp_path / "empty")
    with MrdStore(store_path) as store:
        assert store.load_checkpoint().last_record_id == 11
        store.import_tsv(tmp_path / "empty")
    # imported content has no place in a dump, so the same dump parses whole
    again = run_parse(ParseConfig(dialect="en", dump_path=tmp_path / "en.xml",
                                  store_path=store_path))
    assert again.pages_parsed == 11
    with MrdStore(store_path) as store:
        store.export_tsv(tmp_path / "export")
    assert_export_dirs_equal(tmp_path / "export", os.path.join(DATA_DIR, "golden_en"))


def test_run_parse_ru_fixture_corpus(tmp_path):
    report, store_path = parse_fixture_corpus(tmp_path, "ru")
    assert report.pages_parsed == 4
    assert report.sections_skipped_unknown_language == 1  # the qqz page
    with MrdStore(store_path) as store:
        hits = store.reverse_lookup("enkeli")
        assert [(t, c) for t, c in hits] == [("ангел", "fi")]


def test_run_parse_counts_redirects_and_namespaces(tmp_path):
    dump = write_dump(tmp_path / "d.xml", [
        ("dog", "==English==\n===Noun===\n# An animal.\n"),
        ("hound", "#REDIRECT [[dog]]", 0, "dog"),
        ("Wikisaurus:dog", "==English==\nnot parsed\n"),
    ])
    report = run_parse(ParseConfig(dialect="en", dump_path=dump,
                                   store_path=tmp_path / "s.db"))
    assert report.pages_parsed == 1
    assert report.pages_skipped_redirect == 1
    assert report.pages_skipped_namespace == 1
    assert report.pages_seen == (report.pages_parsed + report.pages_skipped_redirect
                                 + report.pages_skipped_namespace + report.pages_failed)
    with MrdStore(tmp_path / "s.db") as store:
        assert store.query("SELECT title FROM page") == [("dog",)]


@pytest.mark.parametrize("line, skipped, entries", [
    # the templates' code disagrees with the name: both entries are kept
    ("* Estonian: {{t|es|arbusto}}, {{t|es|mata}}", 0, 2),
    ("* Finnish: {{t|qqz|a}}, {{t|qqy|b}}", 1, 0),
], ids=["code_name_conflict", "two_unknown_codes"])
def test_translation_lines_skipped_counts_lines(tmp_path, line, skipped, entries):
    text = f"==English==\n===Noun===\n# A bush.\n\n====Translations====\n{line}\n"
    dump = write_dump(tmp_path / "d.xml", [("bush", text)])
    report = run_parse(ParseConfig(dialect="en", dump_path=dump,
                                   store_path=tmp_path / "s.db"))
    assert report.translation_lines_skipped == skipped
    with MrdStore(tmp_path / "s.db") as store:
        assert store.table_sizes()["translation_entry"] == entries


def test_skipped_pages_summarized_once_per_reason(tmp_path, capsys):
    dump = write_dump(tmp_path / "d.xml", [
        ("dog", "==English==\n===Noun===\n# An animal.\n"),
        ("hound", "#REDIRECT [[dog]]", 0, "dog"),
        ("pup", "#REDIRECT [[dog]]", 0, "dog"),
        ("cur", "#REDIRECT [[dog]]", 0, "dog"),
        ("Wikisaurus:dog", "==English==\nnot parsed\n"),
    ])
    run_parse(ParseConfig(dialect="en", dump_path=dump, store_path=tmp_path / "s.db"))
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "redirect" in line] == [
        "skipped redirect pages: 3 (hound, pup, cur)"]
    assert [line for line in err if "namespace" in line] == [
        "skipped namespace pages: 1 (Wikisaurus:dog)"]


def test_failing_page_never_halts_run(tmp_path, monkeypatch):
    real = pipeline.entry.split_language_sections

    def explode(page, edition, registry):
        if page.title == "boom":
            raise RuntimeError("induced analysis failure")
        return real(page, edition, registry)

    monkeypatch.setattr(pipeline.entry, "split_language_sections", explode)
    dump = write_dump(tmp_path / "d.xml", [
        ("ok1", "==English==\n===Noun===\n# One.\n"),
        ("boom", "==English==\n===Noun===\n# Two.\n"),
        ("ok2", "==English==\n===Noun===\n# Three.\n"),
    ])
    report = run_parse(ParseConfig(dialect="en", dump_path=dump,
                                   store_path=tmp_path / "s.db"))
    assert report.pages_failed == 1
    assert report.pages_parsed == 2
    assert report.pages_seen == (report.pages_parsed + report.pages_skipped_redirect
                                 + report.pages_skipped_namespace + report.pages_failed)


def test_rerun_after_completion_is_a_noop(tmp_path):
    report1, store_path = parse_fixture_corpus(tmp_path, "en")
    dump = tmp_path / "en.xml"
    with MrdStore(store_path) as store:
        store.export_tsv(tmp_path / "export1")
    report2 = run_parse(ParseConfig(dialect="en", dump_path=dump, store_path=store_path))
    assert report2.pages_seen == 0
    with MrdStore(store_path) as store:
        store.export_tsv(tmp_path / "export2")
    assert_export_dirs_equal(tmp_path / "export1", tmp_path / "export2")


def test_resume_against_different_dump_rejected(tmp_path):
    _, store_path = parse_fixture_corpus(tmp_path, "en")
    other = write_dump(tmp_path / "other.xml", [("new", "==English==\nx\n")])
    with pytest.raises(ChecksumMismatch):
        run_parse(ParseConfig(dialect="en", dump_path=other, store_path=store_path))
    # explicit restart from zero is allowed and reparses the new dump
    report = run_parse(ParseConfig(dialect="en", dump_path=other,
                                   store_path=store_path, start_record=0))
    assert report.pages_seen == 1


def test_worker_pool_determinism(tmp_path):
    pages = fixture_dump_pages("en") * 3
    pages = [(f"{t}_{i}", text) for i, (t, text) in enumerate(pages)]
    dump = write_dump(tmp_path / "d.xml", pages)
    exports = []
    for workers in (1, 3):
        store_path = tmp_path / f"w{workers}.db"
        report = run_parse(ParseConfig(dialect="en", dump_path=dump,
                                       store_path=store_path, worker_count=workers,
                                       checkpoint_interval=7))
        assert report.pages_parsed == len(pages)
        out = tmp_path / f"export_w{workers}"
        with MrdStore(store_path) as store:
            store.export_tsv(out)
        exports.append(out)
    assert_export_dirs_equal(*exports)


def test_workers_stay_a_bounded_number_of_pages_ahead(tmp_path, monkeypatch):
    pages = [(f"w{i:03d}", f"==English==\n===Noun===\n# Word {i}.\n") for i in range(120)]
    dump = write_dump(tmp_path / "d.xml", pages)
    monkeypatch.setattr(pipeline, "_MAX_IN_FLIGHT", 8)
    saved = []
    save_word = MrdStore.save_word

    def counting_save(self, title, record_id, lang_pos):
        saved.append(title)
        return save_word(self, title, record_id, lang_pos)

    ahead = []
    read = pipeline.iterate_dump

    def counting_read(path):
        for n, page in enumerate(read(path)):
            ahead.append(n - len(saved))  # pages read but not yet saved
            yield page

    monkeypatch.setattr(MrdStore, "save_word", counting_save)
    monkeypatch.setattr(pipeline, "iterate_dump", counting_read)
    report = run_parse(ParseConfig(dialect="en", dump_path=dump,
                                   store_path=tmp_path / "s.db", worker_count=2))
    assert report.pages_parsed == len(pages) == len(saved)
    assert max(ahead) <= 7  # with the page just read, 8 pages read but not saved

    def failing_save(self, *page):
        if len(saved) == len(pages) + 20:
            raise RuntimeError("writer failed")
        return counting_save(self, *page)

    # a writer error ends the run with a batch still queued in the pool
    monkeypatch.setattr(MrdStore, "save_word", failing_save)
    with pytest.raises(RuntimeError, match="writer failed"):
        run_parse(ParseConfig(dialect="en", dump_path=dump,
                              store_path=tmp_path / "t.db", worker_count=2))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_with_nothing_to_analyse_starts_no_pool(tmp_path, monkeypatch, workers):
    empty = write_dump(tmp_path / "empty.xml", [])
    dump = write_dump(tmp_path / "d.xml", [("a", "==English==\n===Noun===\n# A.\n")])
    store_path = tmp_path / "s.db"
    run_parse(ParseConfig(dialect="en", dump_path=dump, store_path=store_path))

    def no_pool(method=None):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(pipeline.multiprocessing, "get_context", no_pool)
    resumed = run_parse(ParseConfig(dialect="en", dump_path=dump, store_path=store_path,
                                    worker_count=workers))
    assert resumed.pages_seen == 0
    report = run_parse(ParseConfig(dialect="en", dump_path=empty,
                                   store_path=tmp_path / "e.db", worker_count=workers))
    assert report.pages_seen == 0
    with MrdStore(tmp_path / "e.db") as store:
        assert_full_index_set(store)


def test_workers_analyse_with_the_registry_the_run_loaded(tmp_path, monkeypatch):
    reg_file = tmp_path / "extra.tsv"
    reg_file.write_text("zzx\tZizzish\t\n", encoding="utf-8")
    pages = [(f"w{i:02d}", "==Zizzish==\n===Noun===\n# A zizz word.\n") for i in range(20)]
    dump = write_dump(tmp_path / "d.xml", pages)
    reads = tmp_path / "reads"
    load = pipeline.load_registry

    def logged_load(path):  # the log is a file: a forked worker's call lands there too
        with open(reads, "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()}\n")
        return load(path)

    monkeypatch.setattr(pipeline, "load_registry", logged_load)
    report = run_parse(ParseConfig(dialect="en", dump_path=dump, store_path=tmp_path / "s.db",
                                   registry_path=str(reg_file), worker_count=2))
    assert report.pages_parsed == len(pages)
    assert report.sections_skipped_unknown_language == 0
    assert reads.read_text(encoding="utf-8").splitlines() == [str(os.getpid())]
    with MrdStore(tmp_path / "s.db") as store:
        for title, _ in pages:
            assert [e["lang_code"] for e in store.lookup_word(title)] == ["zzx"]


def assert_export_dirs_equal(dir_a, dir_b):
    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    assert names_a == names_b
    for name in names_a:
        a = Path(dir_a, name).read_bytes()
        b = Path(dir_b, name).read_bytes()
        assert a == b, f"{name} differs"


def assert_entries_numbered_from_one(store):
    """Each translation box numbers its entries 1..n."""
    places = {}
    for box, place in store.query("SELECT translation_id, id FROM translation_entry"):
        places.setdefault(box, []).append(place)
    assert places and all(ids == list(range(1, len(ids) + 1)) for ids in places.values())


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "wiktmrd.cli", *args],
                          capture_output=True, text=True, env=env)


def test_crash_and_resume_matches_uninterrupted(tmp_path):
    pages = []
    for i in range(60):
        pages.append((f"word{i:03d}",
                      f"==English==\n===Noun===\n# Sense [[w{i}]].\n"
                      f"====Synonyms====\n* [[s{i}]]\n"
                      f"====Translations====\n{{{{trans-top|sense}}}}\n"
                      f"* Finnish: {{{{t|fi|f{i % 7}}}}}\n{{{{trans-bottom}}}}\n"))
    dump = write_dump(tmp_path / "d.xml", pages)

    base_args = ["parse", "--dialect", "en", "--dump", str(dump),
                 "--checkpoint-interval", "10"]
    clean = run_cli([*base_args, "--store", str(tmp_path / "clean.db")])
    assert clean.returncode == 0, clean.stderr
    with MrdStore(tmp_path / "clean.db") as store:
        store.export_tsv(tmp_path / "export_clean")

    crashed = run_cli([*base_args, "--store", str(tmp_path / "crash.db")],
                      env_extra={"WIKTMRD_CRASH_AFTER_PAGES": "23"})
    assert crashed.returncode == 86

    # The killed fresh parse committed 20 pages, loaded without secondary
    # indexes. Opening it writes nothing, so it answers queries while
    # another connection holds the write lock.
    writer = sqlite3.connect(tmp_path / "crash.db", isolation_level=None)
    try:
        writer.execute("BEGIN IMMEDIATE")
        with MrdStore(tmp_path / "crash.db") as store, \
                MrdStore(tmp_path / "clean.db") as clean:
            indexes = {name for (name,) in store.query(
                "SELECT name FROM sqlite_master WHERE type='index'")}
            assert not indexes & set(_SECONDARY_INDEXES)
            assert store.table_sizes()["page"] == 20
            assert_entries_numbered_from_one(store)
            for title in ("word000", "word013", "word019"):
                assert store.lookup_word(title) == clean.lookup_word(title) != []
            for word in ("f0", "f3", "f6"):
                committed = [(t, c) for t, c in clean.reverse_lookup(word) if t < "word020"]
                assert store.reverse_lookup(word) == committed != []
    finally:
        writer.rollback()
        writer.close()

    resumed = run_cli([*base_args, "--store", str(tmp_path / "crash.db")])
    assert resumed.returncode == 0, resumed.stderr
    with MrdStore(tmp_path / "crash.db") as store:
        store.export_tsv(tmp_path / "export_crash")
        assert_full_index_set(store)
        assert_entries_numbered_from_one(store)
    assert_export_dirs_equal(tmp_path / "export_clean", tmp_path / "export_crash")


def test_resumed_checkpoint_counters_match_uninterrupted(tmp_path):
    pages = []
    for i in range(30):
        text = f"==English==\n===Noun===\n# Sense [[w{i}]].\n"
        if i == 12:  # a definition the store cuts to MAX_WIKI_TEXT_BYTES
            text += "# " + "long " * 14000 + "\n"
        if i % 7 == 0:
            text += "==Qqzish==\n===Noun===\n# unknown\n"
        pages.append((f"word{i:03d}", text))
    dump = write_dump(tmp_path / "d.xml", pages)
    base_args = ["parse", "--dialect", "en", "--dump", str(dump),
                 "--checkpoint-interval", "10"]
    clean = run_cli([*base_args, "--store", str(tmp_path / "clean.db")])
    assert clean.returncode == 0, clean.stderr
    # dies after saving the long page, before the checkpoint at 20 pages
    crashed = run_cli([*base_args, "--store", str(tmp_path / "crash.db")],
                      env_extra={"WIKTMRD_CRASH_AFTER_PAGES": "15"})
    assert crashed.returncode == 86
    with MrdStore(tmp_path / "crash.db") as store:
        assert store.load_checkpoint().counters["wiki_text_truncated"] == 0
    resumed = run_cli([*base_args, "--store", str(tmp_path / "crash.db")])
    assert resumed.returncode == 0, resumed.stderr
    with MrdStore(tmp_path / "clean.db") as a, MrdStore(tmp_path / "crash.db") as b:
        want = a.load_checkpoint().counters
        assert want["wiki_text_truncated"] == 1
        assert want["sections_skipped_unknown_language"] == 5
        assert b.load_checkpoint().counters == want


def test_start_record_carries_checkpoint_counters_only_from_the_checkpoint_on(tmp_path):
    # six pages of one unknown-language section each
    dump = write_dump(tmp_path / "d.xml", [
        (f"w{i}", "==English==\n===Noun===\n# x\n==Qqzish==\n# y\n") for i in range(6)])
    store_path = tmp_path / "s.db"

    def skipped_sections(start_record):
        """The sections the run skipped, and those its checkpoint counts."""
        report = run_parse(ParseConfig(dialect="en", dump_path=dump, store_path=store_path,
                                       start_record=start_record))
        with MrdStore(store_path) as store:
            counters = store.load_checkpoint().counters
        return report.sections_skipped_unknown_language, counters[
            "sections_skipped_unknown_language"]

    assert skipped_sections(None) == (6, 6)
    # at or past the checkpoint, the run reads no page its counters count
    assert skipped_sections(6) == (0, 6)
    assert skipped_sections(9) == (0, 6)
    # below it, the run counts pages 1-5 again, so it counts from zero as a
    # start at 0 does
    assert skipped_sections(1) == (5, 5)
    assert skipped_sections(0) == (6, 6)


@pytest.mark.parametrize("other_dump", ["same", "ru"])
def test_a_parse_under_another_edition_is_refused_writing_nothing(tmp_path, other_dump):
    en_dump = write_dump(tmp_path / "en.xml", fixture_dump_pages("en"))
    store_path = tmp_path / "en.db"
    crashed = run_cli(["parse", "--dialect", "en", "--dump", en_dump, "--store",
                       str(store_path), "--checkpoint-interval", "2"],
                      env_extra={"WIKTMRD_CRASH_AFTER_PAGES": "4"})
    assert crashed.returncode == 86

    def state():
        with MrdStore(store_path) as store:
            return (store.query("SELECT key, value FROM meta ORDER BY key"),
                    store.table_sizes(), store.load_checkpoint())
    before = state()
    assert ("dialect", "en") in before[0] and ("native_code", "en") in before[0]
    dump = en_dump if other_dump == "same" else write_dump(
        tmp_path / "ru.xml", fixture_dump_pages("ru"))
    refused = run_cli(["parse", "--dialect", "ru", "--dump", dump, "--store", str(store_path)])
    assert refused.returncode == 2
    assert refused.stderr == (f"error: {store_path}: the store holds the en edition, "
                              f"not ru; parse a ru dump into a new store\n")
    assert state() == before
