"""Store behavior: atomic idempotent saves, sizes, indexes, checkpoints, TSV."""

import os
import re
import sqlite3
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import assert_full_index_set
from wiktmrd import store as store_module
from wiktmrd.store import (
    Checkpoint,
    CorruptStore,
    MalformedRow,
    MrdStore,
    StorageFull,
    StoreError,
    TABLE_COLUMNS,
    MAX_WIKI_TEXT_BYTES,
)


def simple_page(title="toe", record_id=0, relations=7):
    types = ["synonym", "antonym", "hyponym", "holonym", "meronym",
             "coordinate_term", "synonym", "hypernym", "troponym"]
    return (title, record_id, [(
        "en", "noun", 0,
        [(1, "A [[thing]].", ["thing"])],
        [(types[i % len(types)], f"w{i}", f"[[w{i}]]", 1) for i in range(relations)],
        [("a thing", [("fi", "juttu", "{{t|fi|juttu}}")])],
        None,
    )])


def noun(lang_code="en", meanings=(), relations=(), translations=(), soft_redirect=None):
    """One lang_pos row tuple with etymology ordinal 0."""
    return (lang_code, "noun", 0, list(meanings), list(relations), list(translations),
            soft_redirect)


@pytest.fixture
def store(tmp_path):
    with MrdStore(tmp_path / "mrd.db", dialect="en") as s:
        yield s


def test_fresh_store_sizes(store):
    sizes = store.table_sizes()
    assert sizes["relation_type"] == 9
    assert sizes["index_native"] == 0
    for name, count in sizes.items():
        if name != "relation_type":
            assert count == 0, name


def test_save_word_relation_rows(store):
    store.save_word(*simple_page())
    assert store.table_sizes()["relation"] == 7


def test_save_empty_bundle_page_row_only(store):
    store.save_word("ghost", 3, [])
    sizes = store.table_sizes()
    assert sizes["page"] == 1
    assert sizes["lang_pos"] == 0


def test_resave_is_idempotent(store):
    store.save_word(*simple_page())
    before = store.table_sizes()
    store.save_word(*simple_page())
    assert store.table_sizes() == before


def test_meaning_counts_multiply(store):
    for n in range(10):
        store.save_word(f"w{n}", n, [
            noun(meanings=[(k + 1, f"def {n}.{k}", []) for k in range(3)])])
    assert store.table_sizes()["meaning"] == 30


def test_wiki_text_deduplicated(store):
    store.save_word(*simple_page(title="a"))
    one = store.table_sizes()["wiki_text"]
    store.save_word(*simple_page(title="b"))
    assert store.table_sizes()["wiki_text"] == one  # identical texts share rows


def test_soft_redirect_stored(store):
    store.save_word("dogs", 1, [noun(meanings=[(1, "{{plural of|dog}}", [])],
                                     soft_redirect=("plural of", "dog"))])
    rows = store.query("SELECT is_soft_redirect, redirect_target FROM page WHERE title='dogs'")
    assert rows == [(1, "dog")]
    assert store.table_sizes()["inflection"] == 1


def test_long_wiki_text_truncated(store):
    page = [noun(meanings=[(1, "щ" * 70000, [])])]
    assert store.save_word("long", 0, page) == 1  # the texts it cut
    (stored,) = store.query("SELECT text FROM wiki_text")[0]
    assert len(stored.encode("utf-8")) <= MAX_WIKI_TEXT_BYTES
    assert stored and set(stored) == {"щ"}
    assert store.save_word(*simple_page(title="short", record_id=1)) == 0


def test_long_wiki_text_counted_once_when_stored(store):
    text = "x" * 140_000
    assert store.save_word("a", 0, [noun(meanings=[(1, text, []), (2, text, [])])]) == 1
    assert store.save_word("b", 1, [noun(meanings=[(1, text, [])])]) == 0  # reused
    assert store.table_sizes()["wiki_text"] == 1


def test_full_storage_is_reported_as_such(store):
    store.save_word(*simple_page())
    (pages,) = store.query("PRAGMA page_count")[0]
    store.query(f"PRAGMA max_page_count={pages}")
    with pytest.raises(StorageFull):
        store.save_word("big", 1, [
            noun(meanings=[(n, f"{n} " + "x" * 30_000, []) for n in range(1, 5)])])
    assert store.table_sizes()["page"] == 1


def test_uncommitted_save_invisible_to_readers(tmp_path):
    path = tmp_path / "mrd.db"
    writer = MrdStore(path, dialect="en")
    writer.begin()
    writer.save_word(*simple_page())
    reader = sqlite3.connect(str(path))
    assert reader.execute("SELECT COUNT(*) FROM page").fetchone()[0] == 0
    writer.commit()
    assert reader.execute("SELECT COUNT(*) FROM page").fetchone()[0] == 1
    reader.close()
    writer.close()


def test_rollback_drops_partial_page(tmp_path):
    path = tmp_path / "mrd.db"
    writer = MrdStore(path, dialect="en")
    writer.begin()
    writer.save_word(*simple_page())
    writer.rollback()
    assert writer.table_sizes()["page"] == 0
    # the writer stays usable and ids restart identically
    writer.save_word(*simple_page())
    assert writer.table_sizes()["page"] == 1
    writer.close()


def test_language_interned_in_rolled_back_batch_gets_valid_id(store):
    def page(title, record_id):
        return (title, record_id, [
            noun("sq", translations=[("gloss", [("fi", "sana", "[[sana]]")])])])

    store.save_word(*page("first", 0))
    store.begin()
    store.save_word("new", 1, [
        noun("ka", translations=[("", [("ja", "kotoba", "[[kotoba]]")])])])
    store.rollback()
    store.save_word("new", 1, [
        noun("ka", translations=[("", [("ja", "kotoba", "[[kotoba]]")])])])
    store.save_word(*page("again", 2))
    store.check_referential_integrity()
    assert store.reverse_lookup("kotoba") == [("new", "ja")]
    assert store.lookup_word("new")[0]["lang_code"] == "ka"


def test_failed_page_inside_transaction_leaves_batch_unchanged(store):
    store.begin()
    store.save_word(*simple_page(title="kept"))
    sizes = store.table_sizes()
    broken = ("broken", 1, [
        noun(meanings=[(1, "щ" * 70000, [])],
             translations=[("gloss", [("fi", "sana", "[[sana]]"),
                                      ("Not A Code", "x", "[[x]]")])])])
    with pytest.raises(CorruptStore):
        store.save_word(*broken)
    assert store.table_sizes() == sizes
    store.save_word(*simple_page(title="after", record_id=2))
    store.commit()
    assert [r[0] for r in store.query("SELECT title FROM page ORDER BY id")] == [
        "kept", "after"]
    store.check_referential_integrity()


def test_lock_held_by_another_writer_is_not_corruption(tmp_path):
    path = tmp_path / "mrd.db"
    with MrdStore(path, dialect="en") as writer:
        writer._conn.execute("PRAGMA busy_timeout=0")
        other = sqlite3.connect(str(path), isolation_level=None)
        other.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(StoreError, match="locked") as exc:
                writer.save_word(*simple_page())
            assert not isinstance(exc.value, CorruptStore)
        finally:
            other.rollback()
            other.close()
        writer.save_word(*simple_page())  # the lock gone, the writer goes on
        assert writer.table_sizes()["page"] == 1


def test_opening_a_writer_under_a_lock_is_not_corruption(tmp_path, monkeypatch):
    path = tmp_path / "mrd.db"
    MrdStore(path).close()  # no edition recorded yet, so the open below writes it
    other = sqlite3.connect(str(path), isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",  # a short wait for the lock
                        lambda *args, **kwargs: connect(*args, **kwargs, timeout=0.1))
    try:  # the meta writes wait out the busy timeout, then fail
        with pytest.raises(StoreError, match="locked") as exc:
            MrdStore(path, dialect="en")
        assert not isinstance(exc.value, CorruptStore)
    finally:
        other.rollback()
        other.close()


def test_a_store_that_fails_to_open_closes_its_connection(tmp_path, monkeypatch):
    garbage = tmp_path / "garbage.db"
    garbage.write_bytes(b"not a database " * 100)
    locked = tmp_path / "locked.db"
    MrdStore(locked).close()  # no edition recorded yet, so the open below writes it
    other = sqlite3.connect(str(locked), isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    opened = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        conn = connect(*args, **kwargs, timeout=0.1)  # a short wait for the lock
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    try:
        with pytest.raises(CorruptStore):
            MrdStore(garbage)
        with pytest.raises(StoreError, match="locked"):
            MrdStore(locked, dialect="en")
    finally:
        other.rollback()
        other.close()
    assert len(opened) == 2
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")


class _ChangesAtClose(sqlite3.Connection):
    """A connection that records its total_changes when it closes."""
    changes: list[int] = []

    def close(self):
        self.changes.append(self.total_changes)
        super().close()


def test_a_store_records_its_edition_once(tmp_path, monkeypatch):
    path = tmp_path / "mrd.db"
    MrdStore(path).close()
    with MrdStore(path, dialect="ru") as store:  # an edition's native language is its own
        assert store.query("SELECT key, value FROM meta WHERE key != 'schema_version' "
                           "ORDER BY key") == [("dialect", "ru"), ("native_code", "ru")]
        assert store.native_code == "ru"
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect", lambda *args, **kwargs: connect(
        *args, **kwargs, factory=_ChangesAtClose))
    monkeypatch.setattr(_ChangesAtClose, "changes", [])
    with MrdStore(path, dialect="ru") as store:
        assert store._conn.total_changes == 0  # the same edition: nothing written
    with pytest.raises(StoreError, match="holds the ru edition, not en"):
        MrdStore(path, dialect="en")
    with MrdStore(path) as store:
        assert store.get_meta("dialect") == "ru"
    assert _ChangesAtClose.changes == [0, 0, 0]


class _BatchCounter:
    """A connection stand-in that counts executemany calls per table."""

    def __init__(self, conn):
        self._conn = conn
        self.batches = Counter()

    def executemany(self, sql, rows):
        self.batches[re.search(r"INTO (\w+)", sql).group(1)] += 1
        return self._conn.executemany(sql, rows)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_save_word_statements(store):
    # pages whose translation entries share languages and texts
    def page(n):
        entries = [(code, word, f"[[{word}]]")
                   for code, word in (("fi", "sana"), ("ru", "слово"), ("de", "Wort"))]
        return (f"p{n}", n, [
            noun(meanings=[(1, "A [[word]] or [[term]].", ["word", "term"])],
                 relations=[("synonym", "term", "[[term]]", 1)],
                 translations=[("a word", entries), ("", entries[:2])],
                 soft_redirect=("plural of", "word") if n == 2 else None),
            noun("fi", relations=[("antonym", "sana", "[[sana]]", None)])])

    statements = []
    store._conn.set_trace_callback(statements.append)
    store._conn = counter = _BatchCounter(store._conn)
    pages = 4
    for n in range(pages):
        store.save_word(*page(n))

    lang_selects = Counter(s for s in statements if s.startswith("SELECT id FROM lang"))
    assert lang_selects and max(lang_selects.values()) == 1
    word_inserts = Counter(s for s in statements if "INTO wiki_text_words" in s)
    assert max(word_inserts.values()) == 1
    assert sum(word_inserts.values()) == store.table_sizes()["wiki_text_words"] == 6
    assert counter.batches == {table: pages for table in (
        "wiki_text_words", "relation", "translation_entry", "inflection")}
    # each new text is looked up once before its insert, a cached one not at all
    text_selects = [s for s in statements if s.startswith("SELECT id FROM wiki_text WHERE")]
    assert len(text_selects) == store.table_sizes()["wiki_text"]

    # a text already in the store, but no longer cached, keeps its id
    texts_before = store.query("SELECT id, text FROM wiki_text ORDER BY id")
    store._clear_caches()
    store.save_word(*page(pages))
    assert store.query("SELECT id, text FROM wiki_text ORDER BY id") == texts_before
    assert len([s for s in statements
                if s.startswith("SELECT id FROM wiki_text WHERE")]) > len(text_selects)
    store.check_referential_integrity()


def test_wiki_text_cache_cap_counts_words(store, monkeypatch):
    monkeypatch.setattr(store_module, "_WIKI_TEXT_CACHE_SIZE", 10)
    for n in range(6):
        words = [f"w{n}.{k}" for k in range(3)]
        store.save_word(f"p{n}", n, [
            noun(meanings=[(1, " ".join(f"[[{w}]]" for w in words), words),
                           (2, "shared [[x]]", ["x"])])])
    kept = sum(1 + len(words) for _, words in store._wiki_text_cache.values())
    assert 0 < kept <= 10  # texts and words together stay within the cap
    # texts past the cap still get their words
    assert store.table_sizes()["wiki_text_words"] == 6 * 3 + 1


def test_texts_saved_again_past_the_cache_cap_keep_their_rows(tmp_path, monkeypatch):
    # texts come back with words old and new, and pages are saved again
    def page(n):
        return (f"p{n % 7}", n % 7, [noun(
            meanings=[(1, f"text {n % 3}", [f"w{n % 3}", f"v{n % 4}"]),
                      (2, "shared", [f"s{n % 5}"]), (3, f"own {n}", [])],
            relations=[("synonym", f"r{n % 2}", f"[[r{n % 2}]]", 1)])])

    def export(name):
        with MrdStore(tmp_path / f"{name}.db", dialect="en") as store:
            for n in range(12):
                store.save_word(*page(n))
            store.export_tsv(tmp_path / name)

    export("uncapped")
    monkeypatch.setattr(store_module, "_WIKI_TEXT_CACHE_SIZE", 6)
    export("capped")
    # each text keeps its one row and its id, and gets each word once
    for name in os.listdir(tmp_path / "uncapped"):
        assert ((tmp_path / "capped" / name).read_bytes()
                == (tmp_path / "uncapped" / name).read_bytes()), name


def _text_page(title, text):
    return (title, 0, [noun(meanings=[(1, text, [])])])


def test_text_stored_twice_is_refused(store):
    store.save_word(*_text_page("a", "x"))
    store.save_word(*_text_page("b", "y"))
    # the schema does not keep a text from being stored twice
    store._conn.execute("INSERT INTO wiki_text(text, hash) VALUES (?, ?)",
                        ("y", store_module._text_hash("y")))
    with pytest.raises(CorruptStore, match=r"^wiki_text: id 3 repeats the text of id 2$"):
        store.build_index_tables()


def test_text_a_second_writer_stored_is_reused(tmp_path):
    with MrdStore(tmp_path / "mrd.db", dialect="en") as first, \
            MrdStore(tmp_path / "mrd.db") as second:
        first.save_word(*_text_page("a", "x"))
        second.save_word(*_text_page("b", "y"))
        first.save_word(*_text_page("c", "y"))
        assert first.query("SELECT COUNT(*) FROM wiki_text WHERE text='y'") == [(1,)]
        first.build_index_tables()


def entries_page(title, record_id, words):
    """A page whose one translation box has an entry per word."""
    return (title, record_id, [noun(
        translations=[("", [("fi", word, f"[[{word}]]") for word in words])])])


def _entries(store):
    """(page title, place in its box, word) of every entry, in key order."""
    return store.query(
        "SELECT p.title, e.id, w.page_ref_title FROM translation_entry e "
        "JOIN translation t ON t.id = e.translation_id "
        "JOIN lang_pos lp ON lp.id = t.lang_pos_id "
        "JOIN page p ON p.id = lp.page_id "
        "JOIN wiki_text_words w ON w.wiki_text_id = e.wiki_text_id "
        "ORDER BY e.translation_id, e.id")


def _words(store):
    return store.query("SELECT wiki_text_id, page_ref_title FROM wiki_text_words "
                       "ORDER BY wiki_text_id, page_ref_title")


def test_resaved_boxes_number_their_entries_from_one(store):
    store.save_word(*entries_page("a", 0, ["x1", "x2"]))
    store.save_word(*entries_page("b", 1, ["y1", "y2", "y3"]))
    store.save_word(*entries_page("b", 1, ["y1"]))
    store.save_word("c", 2, [noun(translations=[
        ("", [("fi", "z1", "[[z1]]"), ("fi", "z2", "[[z2]]")]), ("", [("de", "x1", "[[x1]]")])])])
    store.save_word(*entries_page("a", 0, ["x3", "x1", "x2"]))
    assert _entries(store) == [("b", 1, "y1"), ("c", 1, "z1"), ("c", 2, "z2"), ("c", 1, "x1"),
                               ("a", 1, "x3"), ("a", 2, "x1"), ("a", 3, "x2")]
    # words are never deleted, and a word a text already has is not written again
    assert _words(store) == [(1, "x1"), (2, "x2"), (3, "y1"), (4, "y2"), (5, "y3"),
                             (6, "z1"), (7, "z2"), (8, "x3")]


def test_page_failing_after_writing_words_leaves_none(store):
    store.begin()
    store.save_word(*entries_page("a", 0, ["x1"]))
    # the inflection insert fails after the words and entries went in
    broken = ("broken", 1, [noun(
        translations=[("", [("fi", "y1", "[[y1]]"), ("fi", "y2", "[[y2]]")])],
        soft_redirect=("plural of", None))])
    with pytest.raises(CorruptStore, match="NOT NULL"):
        store.save_word(*broken)
    # the failed page's text and word are written again, not taken as cached
    store.save_word(*entries_page("c", 2, ["y1"]))
    store.commit()
    assert _entries(store) == [("a", 1, "x1"), ("c", 1, "y1")]
    assert _words(store) == [(1, "x1"), (2, "y1")]
    store.check_referential_integrity()


def test_writers_taking_turns_give_a_store_that_round_trips(tmp_path):
    with MrdStore(tmp_path / "mrd.db", dialect="en") as first, \
            MrdStore(tmp_path / "mrd.db") as second:
        first.save_word(*entries_page("a", 0, ["x1"]))
        second.save_word(*entries_page("b", 1, ["y1", "x1"]))
        first.save_word(*entries_page("c", 2, ["z1", "y1"]))
        second.save_word(*entries_page("a", 0, ["x1", "z1"]))
        assert _entries(first) == [("b", 1, "y1"), ("b", 2, "x1"), ("c", 1, "z1"),
                                   ("c", 2, "y1"), ("a", 1, "x1"), ("a", 2, "z1")]
        assert _words(first) == [(1, "x1"), (2, "y1"), (3, "z1")]
        first.export_tsv(tmp_path / "export")
    with MrdStore(tmp_path / "copy.db", dialect="en") as copy:
        copy.import_tsv(tmp_path / "export")
        copy.export_tsv(tmp_path / "reexport")
    for name in sorted(os.listdir(tmp_path / "export")):
        assert ((tmp_path / "export" / name).read_bytes()
                == (tmp_path / "reexport" / name).read_bytes()), name


def test_text_the_cache_could_not_keep_gets_only_its_new_words(store, monkeypatch):
    monkeypatch.setattr(store_module, "_WIKI_TEXT_CACHE_SIZE", 2)
    store.save_word("p0", 0, [noun(meanings=[(1, "[[f]]", ["f"])])])  # fills the cache
    shared = "[[a]] or [[b]]"
    store.save_word("p1", 1, [noun(meanings=[(1, shared, ["a"])])])
    assert shared not in store._wiki_text_cache
    # the stored text gains b; used twice, it is read back twice, b written once
    store.save_word("p2", 2, [
        noun(meanings=[(1, shared, ["a", "b"]), (2, shared, ["b", "b"])])])
    assert _words(store) == [(1, "f"), (2, "a"), (2, "b")]
    store.save_word("p3", 3, [noun(meanings=[(1, "[[c]]", ["c"])])])
    assert _words(store)[-1] == (3, "c")


def _resave_vm_steps(path, pages):
    """SQLite VM steps of re-saving one page of a store of `pages` pages
    with built indexes: meanings, sense-bound relations, translations and
    a second language, so every table takes a delete."""
    def page(n):
        return (f"p{n:04d}", n, [
            noun(meanings=[(1, f"A [[w{n}]].", [f"w{n}"]), (2, "Other.", [])],
                 relations=[("synonym", f"s{n}", f"[[s{n}]]", 1),
                            ("antonym", f"a{n}", f"[[a{n}]]", None)],
                 translations=[("gloss", [("fi", f"f{n}", f"[[f{n}]]"),
                                          ("de", f"d{n}", f"[[d{n}]]")])]),
            noun("fi", meanings=[(1, "Fi.", [])],
                 relations=[("synonym", f"t{n}", f"[[t{n}]]", 1)])])

    with MrdStore(path, dialect="en") as store:
        store.begin()
        for n in range(pages):
            store.save_word(*page(n))
        store.commit()
        store.build_index_tables()
        steps = 0

        def step():
            nonlocal steps
            steps += 1
            return 0
        store._conn.set_progress_handler(step, 1)
        store.save_word(*page(pages // 2))
        store._conn.set_progress_handler(None, 1)
        store.check_referential_integrity()
        return steps


def test_resave_cost_follows_the_page_not_the_store(tmp_path):
    small = _resave_vm_steps(tmp_path / "small.db", 50)
    large = _resave_vm_steps(tmp_path / "large.db", 500)
    assert large <= 2 * small, (small, large)


# -- word indexes ---------------------------------------------------------------

def _word_index_sizes(store):
    return {name: n for name, n in store.table_sizes().items() if name.startswith("index_")}


def test_index_tables_native_only(store, tmp_path):
    store.save_word(*simple_page(title="beta"))
    store.save_word(*simple_page(title="alpha", record_id=1))
    assert _word_index_sizes(store) == {"index_native": 2}
    store.export_tsv(tmp_path / "export")
    assert [name for name in sorted(os.listdir(tmp_path / "export"))
            if name.startswith("index_")] == ["index_native.tsv"]
    assert (tmp_path / "export" / "index_native.tsv").read_text("utf-8") == (
        "word\tlang_pos_id\nalpha\t2\nbeta\t1\n")


def test_index_tables_ignore_translation_languages(store):
    # fi appears only as a translation target: no index_fi
    store.save_word(*simple_page())
    assert _word_index_sizes(store) == {"index_native": 1}
    assert store.query("SELECT COUNT(*) FROM lang WHERE code='fi'")[0][0] == 1


def test_index_tables_match_group_by_oracle(store):
    langs = ["en", "fi", "sq", "en", "fi", "en"]
    for i, code in enumerate(langs):
        store.save_word(f"w{i}", i, [noun(code)])
    oracle = Counter("index_native" if code == "en" else f"index_{code}" for code in langs)
    assert _word_index_sizes(store) == oracle
    # a re-saved page moves its entries to the index of its new language
    store.save_word("w0", 0, [noun("sq")])
    oracle.update({"index_native": -1, "index_sq": 1})
    assert _word_index_sizes(store) == oracle


# -- lookup -----------------------------------------------------------------------

def _joined_lookup(store, title, lang_code):
    """lookup_word(title, lang_code) worked out in Python from the table rows."""
    q = store.query
    code, pos = dict(q("SELECT id, code FROM lang")), dict(q("SELECT id, name FROM pos"))
    text = dict(q("SELECT id, text FROM wiki_text"))
    type_name = dict(q("SELECT id, name FROM relation_type"))
    words = {}
    for text_id, word in q("SELECT wiki_text_id, page_ref_title FROM wiki_text_words"):
        words.setdefault(text_id, []).append(word)
    pages = {page_id for page_id, t in q("SELECT id, title FROM page") if t == title}
    meanings = sorted(q("SELECT lang_pos_id, ordinal, id, wiki_text_id FROM meaning"))
    ordinal = {meaning_id: o for _, o, meaning_id, _ in meanings}
    relations = sorted(q("SELECT * FROM relation"))
    boxes = sorted(q("SELECT * FROM translation"))
    entries = sorted(q("SELECT translation_id, id, lang_id, wiki_text_id FROM translation_entry"))
    inflections = sorted(q("SELECT * FROM inflection"))
    out = []
    for lp, page_id, lang_id, pos_id, etym in sorted(q("SELECT * FROM lang_pos")):
        if page_id not in pages or lang_code not in (None, code[lang_id]):
            continue
        out.append({
            "lang_code": code[lang_id], "pos": pos[pos_id], "etymology_ordinal": etym,
            "meanings": [(o, text[t]) for m_lp, o, _, t in meanings if m_lp == lp],
            "relations": [(type_name[rt], text[t], ordinal.get(m))
                          for _, m, r_lp, rt, t in relations if r_lp == lp],
            "translations": [
                {"gloss": text.get(gloss, ""),
                 "entries": [(code[lang], min(words.get(t, [text[t]])))
                             for box, _, lang, t in entries if box == box_id]}
                for box_id, t_lp, gloss in boxes if t_lp == lp],
            "inflections": [(kind, lemma) for _, i_lp, kind, lemma in inflections if i_lp == lp],
        })
    return out


_LOOKUP_TEXTS = st.sampled_from(["One.", "[[x]] or [[y]]", "[[z]]", "ü"])
_LOOKUP_WORDS = st.sampled_from(["", "x", "y", "z"])
_LOOKUP_SECTIONS = st.lists(st.tuples(
    st.sampled_from(["en", "fi"]), st.sampled_from(["noun", "verb"]),
    # meanings whose ordinals may repeat, with and without linked words
    st.lists(st.tuples(st.integers(1, 3), _LOOKUP_TEXTS,
                       st.lists(_LOOKUP_WORDS.filter(bool), max_size=2, unique=True)),
             max_size=3),
    # relations with and without a meaning
    st.lists(st.tuples(st.sampled_from(["synonym", "antonym", "hypernym"]), _LOOKUP_WORDS,
                       _LOOKUP_TEXTS, st.none() | st.integers(1, 3)), max_size=3),
    # boxes with and without a gloss and entries; an entry's text links the
    # words of every entry that shares it, none if its word is empty
    st.lists(st.tuples(st.sampled_from(["", "a gloss", "[[x]]"]),
                       st.lists(st.tuples(st.sampled_from(["fi", "de"]), _LOOKUP_WORDS,
                                          _LOOKUP_TEXTS), max_size=3)), max_size=3),
    st.none() | st.tuples(st.just("plural of"), _LOOKUP_WORDS.filter(bool)),
), min_size=1, max_size=3)


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), _LOOKUP_SECTIONS),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_lookup_word_matches_a_join_of_the_rows(pages):
    with MrdStore(":memory:", dialect="en") as store:
        for record_id, (title, sections) in enumerate(pages):  # a title may be saved again
            store.save_word(title, record_id, [
                (code, pos, etym, *rows) for etym, (code, pos, *rows) in enumerate(sections)])
        for title in ("a", "b", "c", "missing"):
            for lang_code in (None, "en", "fi", "zz"):
                assert (store.lookup_word(title, lang_code)
                        == _joined_lookup(store, title, lang_code)), (title, lang_code)


def test_lookup_word_statements_do_not_grow_with_the_entry(store):
    def box(n):
        return (f"gloss {n}", [("fi", f"w{n}", f"[[w{n}]]")])
    store.save_word("small", 0, [
        noun(meanings=[(1, "One.", [])], translations=[box(0)])])
    store.save_word("rich", 1, [
        (code, "noun", 0, [(1, "One.", []), (2, "Two.", [])],
         [("synonym", "s", "[[s]]", 1)], [box(2 * i), box(2 * i + 1)], None)
        for i, code in enumerate(("en", "fi", "de"))])
    statements = []
    store._conn.set_trace_callback(statements.append)
    counts = {}
    for title, sections in (("small", 1), ("rich", 3), ("missing", 0)):
        statements.clear()
        assert len(store.lookup_word(title)) == sections
        counts[title] = len(statements)
    assert counts["small"] == counts["rich"] <= 6
    assert counts["missing"] == 1


# -- reverse lookup ---------------------------------------------------------------

def _brute_force_reverse(store, word):
    """reverse_lookup(word) worked out in Python from the table rows."""
    linked = {text for text, title in store.query(
        "SELECT wiki_text_id, page_ref_title FROM wiki_text_words") if title == word}
    code = dict(store.query("SELECT id, code FROM lang"))
    title = dict(store.query("SELECT id, title FROM page"))
    page_of = dict(store.query("SELECT id, page_id FROM lang_pos"))
    lang_pos_of = dict(store.query("SELECT id, lang_pos_id FROM translation"))
    return sorted({(title[page_of[lang_pos_of[translation_id]]], code[lang_id])
                   for translation_id, lang_id, text in store.query(
                       "SELECT translation_id, lang_id, wiki_text_id FROM translation_entry")
                   if text in linked})


def test_reverse_lookup_matches_brute_force(store):
    shared = "[[hund]] / [[vovve]]"  # one translation text for two words
    store.save_word("dog", 0, [noun(
        meanings=[(1, "A [[canine]].", ["canine"])],
        relations=[("synonym", "hound", "[[hound]]", 1)],
        translations=[("pet", [("sv", "hund", shared), ("no", "vovve", shared),
                               ("fi", "koira", "{{t|fi|koira}}"),
                               ("fi", "koira", "{{t+|fi|koira}}")])])])
    store.save_word("cur", 1, [noun(
        translations=[("", [("fi", "koira", "{{t|fi|koira}}")])])])
    assert store.reverse_lookup("koira") == [("cur", "fi"), ("dog", "fi")]
    assert store.reverse_lookup("hund") == store.reverse_lookup("vovve") == [
        ("dog", "no"), ("dog", "sv")]
    # reached only through a meaning or relation text, or not at all
    for word in ("canine", "hound", "absent"):
        assert store.reverse_lookup(word) == []
    words = {word for (word,) in store.query("SELECT page_ref_title FROM wiki_text_words")}
    for word in sorted(words) + ["absent"]:
        assert store.reverse_lookup(word) == _brute_force_reverse(store, word), word


def test_reverse_lookup_searches_entries_by_text(store, monkeypatch):
    for n in range(3):
        store.save_word(*entries_page(f"p{n}", n, ["koira", f"w{n}"]))
    store.build_index_tables()
    calls = []

    def query(sql, params=()):
        calls.append((sql, params))
        return MrdStore.query(store, sql, params)
    monkeypatch.setattr(store, "query", query)
    assert store.reverse_lookup("koira") == [("p0", "fi"), ("p1", "fi"), ("p2", "fi")]
    [(sql, params)] = calls
    plan = [row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + sql, params)]
    assert "SEARCH e USING INDEX idx_translation_entry_text (wiki_text_id=?)" in plan, plan
    assert not [step for step in plan if step.startswith("SCAN")], plan


# -- checkpoints -------------------------------------------------------------------

def test_checkpoint_round_trip(store):
    cp = Checkpoint(last_record_id=42, dump_identity="abc123", counters={"x": 2})
    store.save_checkpoint(cp)
    assert store.load_checkpoint() == cp


def test_fresh_checkpoint_is_zero(store):
    cp = store.load_checkpoint()
    assert cp.last_record_id == 0
    assert cp.dump_identity == ""


# -- TSV interchange ------------------------------------------------------------------

def test_export_import_round_trip(store, tmp_path):
    store.save_word(*simple_page(title="toe"))
    store.save_word(*simple_page(title="paw", record_id=1))
    store.build_index_tables()
    out1 = tmp_path / "export1"
    store.export_tsv(out1)

    with MrdStore(tmp_path / "other.db", dialect="en") as other:
        other.import_tsv(out1)
        assert other.table_sizes() == store.table_sizes()
        assert_full_index_set(other)
        out2 = tmp_path / "export2"
        other.export_tsv(out2)

    for name in sorted(os.listdir(out1)):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs after round trip"


def test_import_inside_open_transaction_refused(store, tmp_path):
    out = tmp_path / "export"
    store.export_tsv(out)
    store.begin()
    store.save_word(*simple_page())
    with pytest.raises(StoreError, match="open transaction") as exc:
        store.import_tsv(out)
    assert type(exc.value) is StoreError  # a caller error, not corruption
    # the caller's transaction and its page survive
    assert store._conn.in_transaction
    assert store.table_sizes()["page"] == 1
    store.commit()
    with MrdStore(store.path) as reader:
        assert reader.table_sizes()["page"] == 1


def test_export_empty_store_headers_only(store, tmp_path):
    out = tmp_path / "export"
    store.export_tsv(out)
    page_lines = (out / "page.tsv").read_text("utf-8").splitlines()
    assert page_lines == ["id\ttitle\trecord_id\tis_soft_redirect\tredirect_target"]
    rt_lines = (out / "relation_type.tsv").read_text("utf-8").splitlines()
    assert len(rt_lines) == 10


def test_import_handwritten_relation_rows(tmp_path):
    # a minimal consistent export written by hand, with two relation rows
    out = tmp_path / "hand"
    os.makedirs(out)
    tables = {
        "page": ["1\twarm\t0\t0\t\\N"],
        "lang": ["1\ten"],
        "pos": ["1\tnoun"],
        "lang_pos": ["1\t1\t1\t1\t0"],
        "wiki_text": ["1\t[[cold]]", "2\t[[hot]]"],
        "wiki_text_words": ["1\tcold", "2\thot"],
        "meaning": [],
        "relation_type": [f"{i}\t{n}" for i, n in enumerate(
            ["synonym", "antonym", "hypernym", "hyponym", "holonym", "meronym",
             "troponym", "coordinate_term", "see_also"], start=1)],
        "relation": ["1\t\\N\t1\t2\t1", "2\t\\N\t1\t1\t2"],
        "translation": [],
        "translation_entry": [],
        "inflection": [],
    }
    for table, rows in tables.items():
        header = "\t".join(TABLE_COLUMNS[table])
        (out / f"{table}.tsv").write_text(
            "\n".join([header, *rows]) + "\n", encoding="utf-8")
    with MrdStore(tmp_path / "other.db", dialect="en") as other:
        other.import_tsv(out)
        assert other.table_sizes()["relation"] == 2
        assert other.lookup_word("warm")[0]["relations"] == [
            ("antonym", "[[cold]]", None), ("synonym", "[[hot]]", None)]
        # no index file was given; the export derives them all the same
        other.export_tsv(tmp_path / "reexport")
    assert (tmp_path / "reexport" / "index_native.tsv").read_text("utf-8") == (
        "word\tlang_pos_id\nwarm\t1\n")


def test_import_rejects_bad_arity(store, tmp_path):
    store.save_word(*simple_page())
    store.build_index_tables()
    out = tmp_path / "export"
    store.export_tsv(out)
    path = out / "relation.tsv"
    lines = path.read_text("utf-8").splitlines(keepends=True)
    lines.insert(4, "1\t2\n")  # header is line 1, so this is line 5
    path.write_text("".join(lines), encoding="utf-8")
    err = _failing_import_leaves_store_unchanged(store, out, MalformedRow)
    assert (err.table, err.line_no) == ("relation", 5)


def test_import_refuses_a_table_header_unlike_its_columns(store, tmp_path):
    store.save_word(*simple_page())

    def layout_2_words(lines):  # wiki_text_words.tsv as layout 2 wrote it, with ids
        return ["id\twiki_text_id\tpage_ref_title\n",
                *[f"{i}\t{line}" for i, line in enumerate(lines[1:], start=1)]]

    for table, edit in (
            ("relation", lambda lines: [lines[0].replace("meaning_id", "sense_id"),
                                        *lines[1:]]),
            ("wiki_text_words", layout_2_words)):
        out = tmp_path / table
        store.export_tsv(out)
        path = out / f"{table}.tsv"
        path.write_text("".join(edit(path.read_text("utf-8").splitlines(keepends=True))),
                        encoding="utf-8")
        err = _failing_import_leaves_store_unchanged(store, out, MalformedRow)
        assert (err.table, err.line_no) == (table, 1)


def _failing_import_leaves_store_unchanged(store, out, expected_error):
    def content():
        return ({table: store.query(f"SELECT * FROM {table}") for table in TABLE_COLUMNS},
                store.table_sizes())

    before = content()
    with pytest.raises(expected_error) as exc:
        store.import_tsv(out)
    assert content() == before
    assert store.query("PRAGMA foreign_keys") == [(1,)]
    return exc.value


def test_import_with_dangling_reference_rolls_back(store, tmp_path):
    store.save_word(*simple_page())
    store.build_index_tables()
    # a row is named by its key; the last two tables have no rowid
    for table, column, parent, key in (
            ("relation", 2, "lang_pos", "id {0}"),
            ("translation_entry", 1, "translation", "translation_id 999, id {0}"),
            ("wiki_text_words", 0, "wiki_text", "wiki_text_id 999, page_ref_title '{1}'")):
        out = tmp_path / table
        store.export_tsv(out)
        path = out / f"{table}.tsv"
        header, first, *rest = path.read_text("utf-8").splitlines(keepends=True)
        fields = first.rstrip("\n").split("\t")
        fields[column] = "999"  # a parent row that does not exist
        path.write_text("".join([header, "\t".join(fields) + "\n", *rest]), encoding="utf-8")
        err = _failing_import_leaves_store_unchanged(store, out, CorruptStore)
        assert f"in {table} ({key.format(*fields)}) -> {parent}; 1 total" in str(err)


def _duplicate_last_row(lines):
    return lines + lines[-1:]


def _drop_first_row(lines):
    return lines[:1] + lines[2:]


def _rename_first_word(lines):
    return [lines[0], lines[1].replace("paw", "claw"), *lines[2:]]


def _rename_header(lines):
    return ["word\tid\n", *lines[1:]]


def _repeat_first_entry_key(lines):
    """The second entry takes the first entry's box and place in it."""
    second = lines[1].split("\t")[:2] + lines[2].split("\t")[2:]
    return [lines[0], lines[1], "\t".join(second), *lines[3:]]


def _text_id(lines):
    return [lines[0], "x" + lines[1][1:], *lines[2:]]


def _repeat_first_text(lines):
    """A new last row holds the first row's text."""
    return [*lines, f"{len(lines)}\t" + lines[1].split("\t", 1)[1]]


@pytest.mark.parametrize("table, edit, native, error, where", [
    ("index_native", _duplicate_last_row, "en", MalformedRow, 4),
    ("index_native", _drop_first_row, "en", MalformedRow, 2),
    ("index_native", _rename_first_word, "en", MalformedRow, 2),
    ("index_native", _rename_header, "en", MalformedRow, 1),
    # zz has no entries, so its index has no rows
    ("index_zz", lambda lines: ["word\tlang_pos_id\n", "paw\t3\n"], "en", MalformedRow, 2),
    # the export's native language is en; the TSV files do not say so
    ("index_native", lambda lines: lines, "ru", CorruptStore, "'en'.*'ru'"),
    # the tables without a rowid refuse a repeated key
    ("translation_entry", _repeat_first_entry_key, "en", CorruptStore,
     r"^UNIQUE constraint failed: translation_entry\.translation_id, translation_entry\.id$"),
    ("wiki_text_words", _duplicate_last_row, "en", CorruptStore,
     r"^UNIQUE constraint failed: wiki_text_words\.wiki_text_id, "
     r"wiki_text_words\.page_ref_title$"),
    ("translation_entry", _text_id, "en", CorruptStore, r"^CHECK constraint failed"),
    # a store keeps each text once
    ("wiki_text", _repeat_first_text, "en", CorruptStore,
     r"^wiki_text\.tsv: id 3 repeats the text of id 1$"),
], ids=["duplicated", "missing", "changed_word", "bad_header", "language_without_entries",
        "other_native_code", "entry_id_repeated", "word_repeated",
        "entry_id_not_integer", "text_repeated"])
def test_import_refuses_index_files_unlike_the_derived_rows(
        store, tmp_path, table, edit, native, error, where):
    boxes = [("", [("fi", "sana", "[[sana]]")]), ("", [("de", "Wort", "[[Wort]]")])]
    store.save_word("toe", 0, [
        noun(translations=boxes), noun("fi")])
    store.save_word("paw", 1, [noun()])
    out, clean = tmp_path / "export", tmp_path / "clean"
    store.export_tsv(out)
    store.export_tsv(clean)
    assert (out / "index_native.tsv").read_text("utf-8") == (
        "word\tlang_pos_id\npaw\t3\ntoe\t1\n")
    path = out / f"{table}.tsv"
    lines = path.read_text("utf-8").splitlines(keepends=True) if path.exists() else []
    path.write_text("".join(edit(lines)), encoding="utf-8")
    with MrdStore(tmp_path / "target.db", dialect=native) as target:
        target.save_word(*simple_page(title="kept"))
        err = _failing_import_leaves_store_unchanged(target, out, error)
        if error is MalformedRow:
            assert (err.table, err.line_no) == (table, where)
        else:
            assert re.search(where, str(err)), str(err)
        if native == "en":  # the refused check left no query open
            target.import_tsv(clean)
            assert target.table_sizes() == store.table_sizes()


def test_export_over_an_older_export_leaves_no_stale_index(store, tmp_path):
    store.save_word(*simple_page())
    store.save_word("fjalë", 1, [noun("sq")])
    out, fresh = tmp_path / "export", tmp_path / "fresh"
    store.export_tsv(out)
    assert (out / "index_sq.tsv").exists()
    with MrdStore(tmp_path / "empty.db") as empty:
        empty.export_tsv(out)
        empty.export_tsv(fresh)
    assert sorted(os.listdir(out)) == sorted(os.listdir(fresh))
    store.import_tsv(out)
    assert store.table_sizes()["page"] == 0


@pytest.mark.parametrize("blocked", ["lang_pos.tsv", "index_native.tsv"])
def test_failed_export_leaves_no_query_open(store, tmp_path, blocked):
    store.save_word(*simple_page())
    store.save_word(*simple_page(title="paw", record_id=1))  # rows left to read
    store.export_tsv(tmp_path / "good")
    (tmp_path / "bad" / blocked).mkdir(parents=True)  # a directory where the file goes
    with pytest.raises(OSError) as exc:
        store.export_tsv(tmp_path / "bad")
    # exc still holds the error and its frames, yet the import's schema
    # changes go through
    store.import_tsv(tmp_path / "good")
    assert store.table_sizes()["page"] == 2


def test_escaping_round_trips_nasty_titles(store, tmp_path):
    nasty = "tab\there\nand\\slash"
    store.save_word(nasty, 0, [noun(meanings=[(1, nasty, [])])])
    out = tmp_path / "export"
    store.export_tsv(out)
    for line in (out / "page.tsv").read_text("utf-8").splitlines()[1:]:
        assert "\t".join(line.split("\t")[:0]) == ""  # lines stay one-per-row
    with MrdStore(tmp_path / "other.db", dialect="en") as other:
        other.import_tsv(out)
        assert other.query("SELECT title FROM page") == [(nasty,)]


def test_referential_integrity_enforced_on_export(store, tmp_path):
    store.save_word(*simple_page())
    store._conn.execute("PRAGMA foreign_keys=OFF")
    store._conn.execute("INSERT INTO relation(meaning_id, lang_pos_id, relation_type_id, "
                        "wiki_text_id) VALUES (999, 999, 1, 1)")
    store._conn.execute("PRAGMA foreign_keys=ON")
    with pytest.raises(CorruptStore):
        store.export_tsv(tmp_path / "export")


# -- TSV codec ------------------------------------------------------------------------

@given(st.text(alphabet=st.sampled_from("\\\tNntaé\U0001f600\n")) | st.text()
       | st.integers() | st.none())
@example("\\N")
@example("\\")
@example("a\\")
@example("0123")
@example(-7)
def test_tsv_codec_round_trips_any_text(s):
    escaped = store_module._tsv_escape(s)
    assert store_module._tsv_field(s) == escaped  # the export's formatter
    assert "\t" not in escaped and "\n" not in escaped
    assert store_module._tsv_unescape(escaped) == (s if s is None else str(s))


@pytest.mark.parametrize("field, value", [
    ("a\\xb", "axb"), ("ab\\", "ab\\"), ("a\\N", "aN"), ("\\N", None),
    ("\\t\\n\\\\", "\t\n\\"), ("", ""), ("plain", "plain"),
])
def test_tsv_unescape_cases(field, value):
    assert store_module._tsv_unescape(field) == value
