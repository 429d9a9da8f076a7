"""The machine-readable dictionary store.

Logical schema: page, lang, pos, lang_pos, wiki_text, wiki_text_words,
meaning, relation_type, relation, translation, translation_entry, inflection,
plus the per-language word indexes (index_native, index_XX), which are
derived from lang_pos rather than stored. Backed by SQLite; the durable
contract is the logical schema and the TSV interchange format, not the engine.
A store records its layout version (SCHEMA_VERSION) and is refused under another.
Each text is stored once: wiki_text is found by a 4-byte hash of its text
(_text_hash), kept in a column the export leaves out, and a text is matched
by comparing it with the rows of its hash, so a collision costs a compare.
translation_entry and wiki_text_words are stored by their parent's key,
without a rowid, and have no id of their own: a word is keyed by its text
and title, an entry by its box and its place in the box, numbered from 1.

Writers take turns, as SQLite allows one write transaction at a time; a
writer that finds another connection has committed since its last page
forgets the texts and ids it cached. save_word is atomic per page and
idempotent per title. Checkpoints commit in the same transaction as the
data they describe, so a killed process always restarts from a consistent
point.

A page reaches save_word(title, record_id, lang_pos) as the pipeline holds
it: lang_pos is plain tuples, the cheapest form to pickle out of an analysis
worker. The analysis produces these rows directly:
entry.extract_definitions returns the meaning rows,
relations.extract_relations the relation rows,
translations.extract_translations_en/ru the translation boxes and
entry.classify_soft_redirect the soft_redirect pair. Each entry of lang_pos is

    (lang_code, pos_name, etymology_ordinal,
     meanings, relations, translations, soft_redirect)

    meanings       list of (ordinal, wikitext, ref_words)
    relations      list of (type_name, target_word, target_wikitext,
                            meaning_ordinal or None)
    translations   list of (gloss_wikitext, entries), each entry a tuple
                   (lang_code, word, wikitext)
    soft_redirect  (form_kind, lemma_title) or None

ref_words are the page titles a text links to; they fill wiki_text_words.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import sqlite3
import zlib
from dataclasses import dataclass, field

from .registry import CODE_RE, RELATION_TYPE_NAMES

MAX_WIKI_TEXT_BYTES = 65535
_WIKI_TEXT_CACHE_SIZE = 200_000  # texts plus written words the writer keeps

_RELATION_TYPE_IDS = {name: i for i, name in enumerate(RELATION_TYPE_NAMES, start=1)}

TABLE_COLUMNS = {
    "page": ("id", "title", "record_id", "is_soft_redirect", "redirect_target"),
    "lang": ("id", "code"),
    "pos": ("id", "name"),
    "lang_pos": ("id", "page_id", "lang_id", "pos_id", "etymology_ordinal"),
    "wiki_text": ("id", "text"),
    "wiki_text_words": ("wiki_text_id", "page_ref_title"),
    "meaning": ("id", "lang_pos_id", "ordinal", "wiki_text_id"),
    "relation_type": ("id", "name"),
    "relation": ("id", "meaning_id", "lang_pos_id", "relation_type_id", "wiki_text_id"),
    "translation": ("id", "lang_pos_id", "gloss_wiki_text_id"),
    "translation_entry": ("id", "translation_id", "lang_id", "wiki_text_id"),
    "inflection": ("id", "lang_pos_id", "form_kind", "lemma_title"),
}

# The two largest leaf tables have no rowid: each is stored in the order of
# its parent's key, which its reads and deletes go by, instead of keeping a
# rowid table and an index on that key. These are their primary keys; every
# other table is keyed by its id.
_KEYED_TABLES = {"wiki_text_words": ("wiki_text_id", "page_ref_title"),
                 "translation_entry": ("translation_id", "id")}

# The layout of the tables and indexes below. A store records the version
# it was made with and is refused under any other; see MrdStore.__init__.
SCHEMA_VERSION = 3

# Texts are found by hash; the writer reads this index while it loads, so it
# is part of the schema, not a secondary index.
_WIKI_TEXT_HASH_INDEX = "CREATE INDEX IF NOT EXISTS idx_wiki_text_hash ON wiki_text(hash)"

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS meta(key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS page(
    id INTEGER PRIMARY KEY, title TEXT UNIQUE NOT NULL, record_id INTEGER NOT NULL,
    is_soft_redirect INTEGER NOT NULL DEFAULT 0, redirect_target TEXT);
CREATE TABLE IF NOT EXISTS lang(id INTEGER PRIMARY KEY, code TEXT UNIQUE NOT NULL);
CREATE TABLE IF NOT EXISTS pos(id INTEGER PRIMARY KEY, name TEXT UNIQUE NOT NULL);
CREATE TABLE IF NOT EXISTS lang_pos(
    id INTEGER PRIMARY KEY, page_id INTEGER NOT NULL REFERENCES page(id),
    lang_id INTEGER NOT NULL REFERENCES lang(id),
    pos_id INTEGER NOT NULL REFERENCES pos(id),
    etymology_ordinal INTEGER NOT NULL,
    UNIQUE(page_id, lang_id, pos_id, etymology_ordinal));
CREATE TABLE IF NOT EXISTS wiki_text(
    id INTEGER PRIMARY KEY, text TEXT NOT NULL, hash INTEGER NOT NULL);
{_WIKI_TEXT_HASH_INDEX};
CREATE TABLE IF NOT EXISTS wiki_text_words(
    wiki_text_id INTEGER NOT NULL REFERENCES wiki_text(id), page_ref_title TEXT NOT NULL,
    PRIMARY KEY(wiki_text_id, page_ref_title)) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS meaning(
    id INTEGER PRIMARY KEY, lang_pos_id INTEGER NOT NULL REFERENCES lang_pos(id),
    ordinal INTEGER NOT NULL, wiki_text_id INTEGER NOT NULL REFERENCES wiki_text(id));
CREATE TABLE IF NOT EXISTS relation_type(id INTEGER PRIMARY KEY, name TEXT UNIQUE NOT NULL);
CREATE TABLE IF NOT EXISTS relation(
    id INTEGER PRIMARY KEY, meaning_id INTEGER REFERENCES meaning(id),
    lang_pos_id INTEGER NOT NULL REFERENCES lang_pos(id),
    relation_type_id INTEGER NOT NULL REFERENCES relation_type(id),
    wiki_text_id INTEGER NOT NULL REFERENCES wiki_text(id));
CREATE TABLE IF NOT EXISTS translation(
    id INTEGER PRIMARY KEY, lang_pos_id INTEGER NOT NULL REFERENCES lang_pos(id),
    gloss_wiki_text_id INTEGER REFERENCES wiki_text(id));
CREATE TABLE IF NOT EXISTS translation_entry(
    id INTEGER NOT NULL CHECK (typeof(id) = 'integer'),
    translation_id INTEGER NOT NULL REFERENCES translation(id),
    lang_id INTEGER NOT NULL REFERENCES lang(id),
    wiki_text_id INTEGER NOT NULL REFERENCES wiki_text(id),
    PRIMARY KEY(translation_id, id)) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS inflection(
    id INTEGER PRIMARY KEY, lang_pos_id INTEGER NOT NULL REFERENCES lang_pos(id),
    form_kind TEXT NOT NULL, lemma_title TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS checkpoint(
    id INTEGER PRIMARY KEY CHECK (id = 1), last_record_id INTEGER NOT NULL,
    dump_identity TEXT NOT NULL, counters TEXT NOT NULL);
"""

# The non-unique indexes. A load into an empty store (a fresh parse, an
# import) runs without them and builds each once, sorted, after the rows are
# in; see MrdStore.prepare_load.
_SECONDARY_INDEXES = {
    "idx_meaning_lang_pos": "meaning(lang_pos_id)",
    "idx_relation_lang_pos": "relation(lang_pos_id)",
    # deleting a meaning looks for the relations that still name it
    "idx_relation_meaning": "relation(meaning_id) WHERE meaning_id IS NOT NULL",
    "idx_translation_lang_pos": "translation(lang_pos_id)",
    # reverse lookups find the entries of the texts that link a word
    "idx_translation_entry_text": "translation_entry(wiki_text_id)",
    "idx_wtw_title": "wiki_text_words(page_ref_title)",
    "idx_inflection_lang_pos": "inflection(lang_pos_id)",
}

# Every lang_pos as a row of its word index: index_native for the native
# code, the one parameter, else index_XX; the word is its page's title.
_WORD_INDEX_ROWS = (
    "SELECT 'index_' || CASE l.code WHEN ? THEN 'native' ELSE l.code END AS name, "
    "p.title, lp.id FROM lang_pos lp JOIN page p ON p.id = lp.page_id "
    "JOIN lang l ON l.id = lp.lang_id")
_WORD_INDEX_COLUMNS = ("word", "lang_pos_id")


class StoreError(Exception):
    pass


class StorageFull(StoreError):
    pass


class CorruptStore(StoreError):
    pass


class ChecksumMismatch(StoreError):
    """Checkpoint belongs to a different dump than the one being parsed."""


class MalformedRow(StoreError):
    def __init__(self, table, line_no, problem):
        super().__init__(f"{table}.tsv:{line_no}: {problem}")
        self.table = table
        self.line_no = line_no


@dataclass
class Checkpoint:
    last_record_id: int = 0
    dump_identity: str = ""
    counters: dict[str, int] = field(default_factory=dict)


def _text_hash(text: str) -> int:
    """wiki_text.hash of `text`: its CRC-32, shifted into the signed 32-bit
    range, which SQLite stores in 4 bytes. Stable across processes and
    Python versions; texts that share a hash are told apart by their text."""
    return zlib.crc32(text.encode("utf-8", "surrogatepass")) - 0x80000000


def _check_lang_code(code: str):
    if not CODE_RE.match(code):
        raise CorruptStore(f"invalid language code for storage: {code!r}")


def _translate_error(exc: sqlite3.Error) -> StoreError:
    msg = str(exc).lower()
    if "full" in msg:
        return StorageFull(str(exc))
    if "locked" in msg:  # SQLITE_BUSY or SQLITE_LOCKED: another connection's lock
        return StoreError(str(exc))
    return CorruptStore(str(exc))


class MrdStore:
    """Multi-reader dictionary store whose writers take turns."""

    def __init__(self, path, dialect: str | None = None):
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path, isolation_level=None)
        except sqlite3.Error as exc:
            raise _translate_error(exc) from exc
        try:  # a store that fails to open closes its connection
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            # opening an existing store writes nothing: a reader may open a
            # store another process is writing, indexes dropped or not
            if self._conn.execute(
                    "SELECT 1 FROM sqlite_master WHERE name='page'").fetchone() is None:
                self._create_schema()
            version = self.get_meta("schema_version")
            if version != str(SCHEMA_VERSION):
                raise StoreError(
                    f"{self.path}: store layout version {version or 'none'}, but this "
                    f"wiktmrd reads version {SCHEMA_VERSION}; reparse the dump into a "
                    f"new store")
            if dialect is not None:
                recorded = self.get_meta("dialect")
                if recorded is None:  # an edition's native language is its own
                    self._set_meta("native_code", dialect)
                    self._set_meta("dialect", dialect)
                elif recorded != dialect:
                    raise StoreError(f"{self.path}: the store holds the {recorded} edition, "
                                     f"not {dialect}; parse a {dialect} dump into a new store")
        except BaseException as exc:
            self._conn.close()
            if isinstance(exc, sqlite3.Error):
                raise _translate_error(exc) from exc
            raise
        # text -> (id, words already in wiki_text_words); capped, see _wiki_text_id
        self._wiki_text_cache: dict[str, tuple[int, tuple[str, ...]]] = {}
        self._wiki_text_cache_strings = 0  # texts plus words held in that cache
        self._interned: dict[tuple[str, str], int] = {}  # (table, value) -> id
        self._data_version = None  # PRAGMA data_version when the caches were last valid
        self._truncated = 0  # texts the running save_word stored cut

    # -- lifecycle ----------------------------------------------------------

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._conn.in_transaction:
            self._conn.rollback()
        self.close()

    def _create_schema(self):
        """Tables, fixed rows, layout version and every secondary index of a
        new store, in one transaction; a store opened concurrently is left as
        is."""
        self._conn.executescript("BEGIN IMMEDIATE;" + _SCHEMA)
        self._set_meta("schema_version", SCHEMA_VERSION)
        self._conn.executemany(
            "INSERT OR IGNORE INTO relation_type(id, name) VALUES (?, ?)",
            enumerate(RELATION_TYPE_NAMES, start=1))
        self._create_secondary_indexes()
        self._conn.commit()

    def _set_meta(self, key, value):
        self._conn.execute(
            "INSERT INTO meta(key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value", (key, str(value)))

    def get_meta(self, key, default=None):
        row = self._conn.execute("SELECT value FROM meta WHERE key=?", (key,)).fetchone()
        return row[0] if row else default

    @property
    def native_code(self) -> str:
        return self.get_meta("native_code", "en")

    # -- transactions ---------------------------------------------------------

    def begin(self):
        if not self._conn.in_transaction:
            self._conn.execute("BEGIN")

    def commit(self):
        try:
            if self._conn.in_transaction:
                self._conn.commit()
        except sqlite3.Error as exc:
            raise _translate_error(exc) from exc

    def rollback(self):
        """Undo the open transaction and forget everything it taught the store:
        cached ids may name rows that no longer exist."""
        if self._conn.in_transaction:
            self._conn.rollback()
        self._clear_caches()

    def _clear_caches(self):
        self._wiki_text_cache.clear()
        self._wiki_text_cache_strings = 0
        self._interned.clear()

    # -- shared row helpers ---------------------------------------------------

    def _lang_id(self, code: str) -> int:
        return self._intern("lang", "code", code, _check_lang_code)

    def _pos_id(self, name: str) -> int:
        return self._intern("pos", "name", name)

    def _intern(self, table, column, value, check=None) -> int:
        """Id of `value` in `table`, inserted if new; `check` vets a value the
        store has not cached yet."""
        key = (table, value)
        row_id = self._interned.get(key)
        if row_id is None:
            if check is not None:
                check(value)
            row = self._conn.execute(
                f"SELECT id FROM {table} WHERE {column}=?", (value,)).fetchone()
            row_id = row[0] if row else self._conn.execute(
                f"INSERT INTO {table}({column}) VALUES (?)", (value,)).lastrowid
            self._interned[key] = row_id
        return row_id

    def _truncate(self, text: str) -> str:
        if len(text) <= MAX_WIKI_TEXT_BYTES // 4:  # a code point takes at most 4 bytes
            return text
        data = text.encode("utf-8", "surrogatepass")
        if len(data) <= MAX_WIKI_TEXT_BYTES:
            return text
        cut = MAX_WIKI_TEXT_BYTES
        while cut > 0 and (data[cut] & 0xC0) == 0x80:
            cut -= 1
        return data[:cut].decode("utf-8", "surrogatepass")

    def _wiki_text_id(self, text: str, ref_words, word_rows: list) -> int:
        """Id of `text`, inserted if new. Appends to word_rows the (id, word)
        pairs not yet written for it: a cached text remembers its written
        words, and a stored text the cache could not keep reads them back.
        The cache holds at most _WIKI_TEXT_CACHE_SIZE strings, texts and
        words together, so memory stays bounded whatever the number of
        words per text. A text the cache lacks is looked up by its hash.
        A text inserted cut counts in _truncated."""
        stored = self._truncate(text)
        cached = self._wiki_text_cache.get(stored)
        if cached is None:
            digest = _text_hash(stored)
            row = self._conn.execute(
                "SELECT id FROM wiki_text WHERE hash=? AND text=?", (digest, stored)).fetchone()
            if row is None:
                wid, written = self._conn.execute(
                    "INSERT INTO wiki_text(text, hash) VALUES (?, ?)",
                    (stored, digest)).lastrowid, ()
                self._truncated += len(stored) < len(text)
            else:
                wid = row[0]
                written = tuple(word for (word,) in self._conn.execute(
                    "SELECT page_ref_title FROM wiki_text_words WHERE wiki_text_id=?",
                    (wid,)))
        else:
            wid, written = cached
        fresh = [word for word in ref_words if word and word not in written]
        word_rows.extend([(wid, word) for word in fresh])
        kept = len(fresh) + (cached is None)
        if kept and self._wiki_text_cache_strings + kept <= _WIKI_TEXT_CACHE_SIZE:
            self._wiki_text_cache[stored] = (wid, written + tuple(fresh))
            self._wiki_text_cache_strings += kept
        elif kept and cached is not None:
            # the store now holds new words that this cached entry would
            # miss and write again
            del self._wiki_text_cache[stored]
            self._wiki_text_cache_strings -= 1 + len(written)
        return wid

    # -- saving ---------------------------------------------------------------

    def save_word(self, title: str, record_id: int, lang_pos: list[tuple]) -> int:
        """Write one parsed page atomically; re-saving a title replaces it.
        Returns how many new texts it stored cut to MAX_WIKI_TEXT_BYTES.

        The page is a savepoint: inside a caller's transaction an error
        leaves that transaction as it was before the call."""
        conn = self._conn
        self._truncated = 0
        try:
            conn.execute("SAVEPOINT page")
            self._save_word_rows(title, record_id, lang_pos)
            conn.execute("RELEASE page")  # commits when it began the transaction
        except Exception as exc:
            if conn.in_transaction:
                conn.execute("ROLLBACK TO page")
                conn.execute("RELEASE page")
                # cached ids and written words may name rows the page never kept
                self._clear_caches()
            else:  # the error ended the whole transaction
                self.rollback()
            if isinstance(exc, sqlite3.Error):
                raise _translate_error(exc) from exc
            raise
        return self._truncated

    def _save_word_rows(self, title, record_id, lang_pos):
        conn = self._conn
        text_id = self._wiki_text_id
        # An entry or relation whose text is cached with its word written
        # takes the id straight from the cache, as an entry's cached language
        # does. Cache keys are truncated texts, so a text found there needs
        # no truncation.
        cache = self._wiki_text_cache
        interned = self._interned
        existing = conn.execute(
            "SELECT id FROM page WHERE title=?", (title,)).fetchone()
        # the first read fixed what this transaction sees; if another
        # connection has committed since the last page, cached texts and ids
        # may be stale
        data_version = conn.execute("PRAGMA data_version").fetchone()[0]
        if data_version != self._data_version:
            self._clear_caches()
            self._data_version = data_version
        if existing:
            self._delete_page_rows(existing[0])
        soft = next((lp[6] for lp in lang_pos if lp[6] is not None), None)
        page_id = conn.execute(
            "INSERT INTO page(title, record_id, is_soft_redirect, redirect_target) "
            "VALUES (?, ?, ?, ?)",
            (title, record_id, 1 if soft else 0,
             soft[1] if soft else None)).lastrowid

        # Parent rows go in one by one for their ids; leaf rows wait for one
        # executemany per table. Each table still receives its rows in page
        # order, so ids match those of row-by-row insertion. A pair of
        # word_rows may repeat (a text used twice, a word linked twice) and is
        # written once.
        word_rows: list[tuple[int, str]] = []
        relation_rows = []
        entry_rows = []
        inflection_rows = []
        for (lang_code, pos_name, etymology_ordinal,
             meanings, relations, translations, soft_redirect) in lang_pos:
            lang_pos_id = conn.execute(
                "INSERT INTO lang_pos(page_id, lang_id, pos_id, etymology_ordinal) "
                "VALUES (?, ?, ?, ?)",
                (page_id, self._lang_id(lang_code), self._pos_id(pos_name),
                 etymology_ordinal)).lastrowid

            meaning_ids: dict[int, int] = {}
            for ordinal, wikitext, ref_words in meanings:
                wid = text_id(wikitext, ref_words, word_rows)
                meaning_ids[ordinal] = conn.execute(
                    "INSERT INTO meaning(lang_pos_id, ordinal, wiki_text_id) "
                    "VALUES (?, ?, ?)", (lang_pos_id, ordinal, wid)).lastrowid

            for type_name, word, wikitext, meaning_ordinal in relations:
                cached = cache.get(wikitext)
                wid = (cached[0] if cached is not None and word in cached[1]
                       else text_id(wikitext, (word,), word_rows))
                relation_rows.append((meaning_ids.get(meaning_ordinal), lang_pos_id,
                                      _RELATION_TYPE_IDS[type_name], wid))

            for gloss, entries in translations:
                gloss_id = text_id(gloss, (), word_rows) if gloss else None
                translation_id = conn.execute(
                    "INSERT INTO translation(lang_pos_id, gloss_wiki_text_id) "
                    "VALUES (?, ?)", (lang_pos_id, gloss_id)).lastrowid
                for place, (entry_lang, word, wikitext) in enumerate(entries, start=1):
                    cached = cache.get(wikitext)
                    wid = (cached[0] if cached is not None and word in cached[1]
                           else text_id(wikitext, (word,), word_rows))
                    entry_rows.append((place, translation_id,
                                       interned.get(("lang", entry_lang))
                                       or self._lang_id(entry_lang),
                                       wid))

            if soft_redirect is not None:
                inflection_rows.append((lang_pos_id, *soft_redirect))

        conn.executemany(
            "INSERT INTO wiki_text_words(wiki_text_id, page_ref_title) VALUES (?, ?)",
            dict.fromkeys(word_rows))
        conn.executemany(
            "INSERT INTO relation(meaning_id, lang_pos_id, relation_type_id, "
            "wiki_text_id) VALUES (?, ?, ?, ?)", relation_rows)
        conn.executemany(
            "INSERT INTO translation_entry(id, translation_id, lang_id, wiki_text_id) "
            "VALUES (?, ?, ?, ?)", entry_rows)
        conn.executemany(
            "INSERT INTO inflection(lang_pos_id, form_kind, lemma_title) "
            "VALUES (?, ?, ?)", inflection_rows)

    def _delete_page_rows(self, page_id: int):
        conn = self._conn
        lang_pos_ids = [r[0] for r in conn.execute(
            "SELECT id FROM lang_pos WHERE page_id=?", (page_id,))]
        if lang_pos_ids:
            marks = ",".join("?" * len(lang_pos_ids))
            conn.execute(f"DELETE FROM translation_entry WHERE translation_id IN "
                         f"(SELECT id FROM translation WHERE lang_pos_id IN ({marks}))",
                         lang_pos_ids)
            conn.execute(f"DELETE FROM translation WHERE lang_pos_id IN ({marks})", lang_pos_ids)
            conn.execute(f"DELETE FROM relation WHERE lang_pos_id IN ({marks})", lang_pos_ids)
            conn.execute(f"DELETE FROM meaning WHERE lang_pos_id IN ({marks})", lang_pos_ids)
            conn.execute(f"DELETE FROM inflection WHERE lang_pos_id IN ({marks})", lang_pos_ids)
            conn.execute(f"DELETE FROM lang_pos WHERE id IN ({marks})", lang_pos_ids)
        conn.execute("DELETE FROM page WHERE id=?", (page_id,))

    # -- indexes -----------------------------------------------------------------

    def prepare_load(self):
        """Ready the open transaction for a run of saves. A store without
        pages loads without its secondary indexes, which build_index_tables
        (or import_tsv) then builds once, sorted. A store with pages keeps
        them, or gets them back first, as re-saving a title deletes its old
        rows through them."""
        if self._conn.execute("SELECT 1 FROM page LIMIT 1").fetchone() is None:
            for name in _SECONDARY_INDEXES:
                self._conn.execute(f"DROP INDEX IF EXISTS {name}")
        else:
            self._create_secondary_indexes()

    def _create_secondary_indexes(self):
        """Create the secondary indexes missing."""
        for name, target in _SECONDARY_INDEXES.items():
            self._conn.execute(f"CREATE INDEX IF NOT EXISTS {name} ON {target}")

    def build_index_tables(self):
        """Build every secondary index a load left out, and refuse a store
        that holds a text twice, which the schema does not prevent. The word
        indexes need no building: they are derived from lang_pos when read."""
        try:
            self._create_secondary_indexes()
            self._check_unique_texts("wiki_text")
        except sqlite3.Error as exc:
            self.rollback()
            raise _translate_error(exc) from exc

    def _word_indexes(self, also=("index_native",)):
        """(table, sorted (word, lang_pos_id) rows) per word index, plus an empty
        one per name in `also` without rows, all from one query, read in turn;
        closing the generator closes the query, which blocks schema changes."""
        empty = set(also)
        with contextlib.closing(self._conn.execute(
                f"{_WORD_INDEX_ROWS} ORDER BY name, p.title, lp.id", (self.native_code,))) as rows:
            for table, group in itertools.groupby(rows, key=lambda row: row[0]):
                empty.discard(table)
                yield table, (row[1:] for row in group)
        for table in sorted(empty):
            yield table, ()

    # -- statistics hooks ---------------------------------------------------------

    def table_sizes(self) -> dict[str, int]:
        """Row counts for every logical table and every word index."""
        try:
            sizes = {}
            for table in TABLE_COLUMNS:
                sizes[table] = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            words = self._conn.execute(
                f"SELECT name, COUNT(*) FROM ({_WORD_INDEX_ROWS}) GROUP BY name",
                (self.native_code,))
            sizes.update(sorted({"index_native": 0, **dict(words)}.items()))
            return sizes
        except sqlite3.Error as exc:
            raise _translate_error(exc) from exc

    def query(self, sql, params=()):
        return self._conn.execute(sql, params).fetchall()

    # -- lookup (the wiwordik-style read side) ------------------------------------

    def lookup_word(self, title: str, lang_code: str | None = None) -> list[dict]:
        """Everything stored for one page title, one dict per lang_pos.

        One statement finds the entries; if there are any, one statement per
        child table then reads the rows of all of them, each joined from the
        title, so a lookup costs six statements however rich its entries are.
        Meanings come by ordinal, everything else by id."""
        where = "WHERE p.title = ?"
        params = [title]
        if lang_code is not None:
            where += " AND lp.lang_id = (SELECT id FROM lang WHERE code = ?)"
            params.append(lang_code)

        def rows(select, joins, order="lp.id"):
            return self._conn.execute(
                f"SELECT {select} FROM page p JOIN lang_pos lp ON lp.page_id = p.id "
                f"{joins} {where} ORDER BY {order}", params)

        sections = {
            lang_pos_id: {"lang_code": code, "pos": pos_name, "etymology_ordinal": etym,
                          "meanings": [], "relations": [], "translations": [],
                          "inflections": []}
            for lang_pos_id, code, pos_name, etym in rows(
                "lp.id, l.code, po.name, lp.etymology_ordinal",
                "JOIN lang l ON l.id = lp.lang_id JOIN pos po ON po.id = lp.pos_id")}
        if not sections:
            return []
        for row in rows("m.lang_pos_id, m.ordinal, w.text",
                        "JOIN meaning m ON m.lang_pos_id = lp.id "
                        "JOIN wiki_text w ON w.id = m.wiki_text_id", "m.ordinal, m.id"):
            sections[row[0]]["meanings"].append(row[1:])
        for row in rows("i.lang_pos_id, i.form_kind, i.lemma_title",
                        "JOIN inflection i ON i.lang_pos_id = lp.id", "i.id"):
            sections[row[0]]["inflections"].append(row[1:])
        for row in rows("r.lang_pos_id, rt.name, w.text, m.ordinal",
                        "JOIN relation r ON r.lang_pos_id = lp.id "
                        "JOIN relation_type rt ON rt.id = r.relation_type_id "
                        "JOIN wiki_text w ON w.id = r.wiki_text_id "
                        "LEFT JOIN meaning m ON m.id = r.meaning_id", "r.id"):
            sections[row[0]]["relations"].append(row[1:])
        boxes = {}
        for lang_pos_id, box_id, gloss in rows(
                "t.lang_pos_id, t.id, w.text",
                "JOIN translation t ON t.lang_pos_id = lp.id "
                "LEFT JOIN wiki_text w ON w.id = t.gloss_wiki_text_id", "t.id"):
            boxes[box_id] = {"gloss": gloss or "", "entries": []}
            sections[lang_pos_id]["translations"].append(boxes[box_id])
        # an entry shows the first word its text links, or else the text
        for row in rows("e.translation_id, l.code, COALESCE((SELECT MIN(page_ref_title) "
                        "FROM wiki_text_words WHERE wiki_text_id = e.wiki_text_id), w.text)",
                        "JOIN translation t ON t.lang_pos_id = lp.id "
                        "JOIN translation_entry e ON e.translation_id = t.id "
                        "JOIN lang l ON l.id = e.lang_id "
                        "JOIN wiki_text w ON w.id = e.wiki_text_id",
                        "e.translation_id, e.id"):
            boxes[row[0]]["entries"].append(row[1:])
        return list(sections.values())

    def reverse_lookup(self, word: str) -> list[tuple[str, str]]:
        """(page title, translation language code) pairs whose translation
        entries reference `word`, sorted.

        The texts that link `word` come from idx_wtw_title and their entries
        from idx_translation_entry_text, so the cost follows the answer, not
        the store. A store whose load was cut before its indexes were built
        gives the same pairs by scanning translation_entry."""
        return self.query(
            "SELECT DISTINCT p.title, l.code FROM translation_entry e "
            "JOIN lang l ON l.id = e.lang_id "
            "JOIN translation t ON t.id = e.translation_id "
            "JOIN lang_pos lp ON lp.id = t.lang_pos_id "
            "JOIN page p ON p.id = lp.page_id "
            "WHERE e.wiki_text_id IN ("
            "  SELECT wiki_text_id FROM wiki_text_words WHERE page_ref_title = ?) "
            "ORDER BY p.title, l.code", (word,))

    # -- checkpoints ------------------------------------------------------------

    def save_checkpoint(self, cp: Checkpoint):
        self._conn.execute(
            "INSERT INTO checkpoint(id, last_record_id, dump_identity, counters) "
            "VALUES (1, ?, ?, ?) ON CONFLICT(id) DO UPDATE SET "
            "last_record_id=excluded.last_record_id, "
            "dump_identity=excluded.dump_identity, counters=excluded.counters",
            (cp.last_record_id, cp.dump_identity, json.dumps(cp.counters, sort_keys=True)))

    def load_checkpoint(self) -> Checkpoint:
        row = self._conn.execute(
            "SELECT last_record_id, dump_identity, counters FROM checkpoint WHERE id=1"
        ).fetchone()
        if row is None:
            return Checkpoint()
        return Checkpoint(last_record_id=row[0], dump_identity=row[1],
                          counters=json.loads(row[2]))

    # -- TSV interchange -----------------------------------------------------------

    def check_referential_integrity(self):
        violations = self._conn.execute("PRAGMA foreign_key_check").fetchall()
        if violations:
            # the pragma gives no rowid for a table without one, so the
            # offending row is named by its key
            table, _, parent, fk_id = violations[0]
            column, key = next(fk[3:5] for fk in self._conn.execute(
                f"PRAGMA foreign_key_list({table})") if fk[0] == fk_id)
            key_columns = _KEYED_TABLES.get(table, ("id",))
            row = self._conn.execute(
                f"SELECT {', '.join(key_columns)} FROM {table} WHERE {column} NOT IN "
                f"(SELECT {key} FROM {parent}) LIMIT 1").fetchone()
            named = ", ".join(f"{c} {v!r}" for c, v in zip(key_columns, row))
            raise CorruptStore(
                f"foreign key violation in {table} ({named}) -> {parent}; "
                f"{len(violations)} total")

    def export_tsv(self, directory):
        """One TSV per logical table, sorted by its primary key, and per word
        index; values escape tab/newline/backslash. Rows are written as the
        cursor yields them, and each query is closed even when writing fails.
        The index_*.tsv files of an earlier export in `directory` are removed
        first."""
        self.check_referential_integrity()
        os.makedirs(directory, exist_ok=True)
        for table, columns in TABLE_COLUMNS.items():
            with contextlib.closing(self._conn.execute(
                    f"SELECT {', '.join(columns)} FROM {table} "
                    f"ORDER BY {', '.join(_KEYED_TABLES.get(table, ('id',)))}")) as rows:
                _write_tsv(os.path.join(directory, f"{table}.tsv"), columns, rows)
        for name in os.listdir(directory):
            if name.startswith("index_") and name.endswith(".tsv"):
                os.remove(os.path.join(directory, name))
        with contextlib.closing(self._word_indexes()) as indexes:
            for table, rows in indexes:
                _write_tsv(os.path.join(directory, f"{table}.tsv"), _WORD_INDEX_COLUMNS, rows)

    def import_tsv(self, directory):
        """Replace store content with a TSV export; ids are preserved.

        Referential integrity and unique texts are checked once, before the
        commit, and so are the index_*.tsv files against the derived word
        indexes; an import that fails leaves the store as it was. It needs a
        store with no open transaction: the caller's uncommitted rows would
        be replaced too."""
        if self._conn.in_transaction:
            raise StoreError("import_tsv called inside an open transaction; "
                             "commit or roll back first")
        try:
            # foreign keys are checked once below, not on every insert; the
            # setting cannot change inside a transaction
            self._conn.execute("PRAGMA foreign_keys=OFF")
            self._conn.execute("BEGIN")
            # imported content has no position in a dump to resume from
            for table in ["checkpoint", *reversed(TABLE_COLUMNS)]:
                self._conn.execute(f"DELETE FROM {table}")
            self._clear_caches()
            self.prepare_load()
            self._conn.execute("DROP INDEX idx_wiki_text_hash")
            for table, columns in TABLE_COLUMNS.items():
                path = os.path.join(directory, f"{table}.tsv")
                if os.path.exists(path):
                    self._import_table(path, table, columns)
            self._conn.execute(_WIKI_TEXT_HASH_INDEX)
            self._check_unique_texts("wiki_text.tsv")
            self._create_secondary_indexes()
            self.check_referential_integrity()
            self._check_word_index_files(directory)
            self._conn.commit()
        except sqlite3.Error as exc:
            self.rollback()
            raise _translate_error(exc) from exc
        except Exception:
            self.rollback()
            raise
        finally:
            self._conn.execute("PRAGMA foreign_keys=ON")

    def _import_table(self, path, table, columns):
        with open(path, encoding="utf-8", newline="\n") as f:
            header = f.readline().rstrip("\n")
            if header.split("\t") != list(columns):
                raise MalformedRow(table, 1, f"unexpected header {header!r}")
            rows = _read_rows(f, table, len(columns))
            if table == "wiki_text":  # the hash is the store's own, not exported
                columns += ("hash",)
                rows = ((row_id, text, None if text is None else _text_hash(text))
                        for row_id, text in rows)
            self._conn.executemany(
                f'INSERT INTO "{table}"({", ".join(columns)}) '
                f'VALUES ({",".join("?" * len(columns))})', rows)

    def _check_unique_texts(self, source):
        """Refuse a text stored under two ids, naming `source` in the error.
        Only the texts of a hash that repeats are compared, through
        idx_wiki_text_hash."""
        row = self._conn.execute(
            "SELECT a.id, b.id FROM wiki_text a JOIN wiki_text b "
            "ON b.hash = a.hash AND b.text = a.text AND b.id > a.id WHERE a.hash IN "
            "(SELECT hash FROM wiki_text GROUP BY hash HAVING COUNT(*) > 1) LIMIT 1").fetchone()
        if row is not None:
            raise CorruptStore(f"{source}: id {row[1]} repeats the text of id {row[0]}")

    def _check_word_index_files(self, directory):
        """Refuse an index_*.tsv in `directory` unless it has the lines the
        export writes for the word index of its name, which has no rows for
        a language without entries. Files and rows are read side by side."""
        files = {name[:-4] for name in os.listdir(directory)
                 if name.startswith("index_") and name.endswith(".tsv")}
        with contextlib.closing(self._word_indexes(also=files)) as indexes:
            for table, derived in indexes:
                if table in files:
                    with open(os.path.join(directory, f"{table}.tsv"),
                              encoding="utf-8", newline="\n") as f:
                        self._check_word_index_file(f, table, derived)

    def _check_word_index_file(self, lines, table, derived):
        expected = itertools.chain([_WORD_INDEX_COLUMNS], derived)
        for line_no, (line, want) in enumerate(itertools.zip_longest(lines, expected), start=1):
            got = line and line.rstrip("\n")
            want = want and "\t".join([_tsv_field(v) for v in want])
            if got == want:
                continue
            code = got and self.query("SELECT code FROM lang WHERE id = (SELECT lang_id "
                                      "FROM lang_pos WHERE id = ?)", (got.split("\t")[-1],))
            if table == "index_native" and code and code[0][0] != self.native_code:
                # the files do not say which native code their store had
                raise CorruptStore(f"index_native.tsv lists {code[0][0]!r} entries, but "
                                   f"this store's native language is {self.native_code!r}")
            raise MalformedRow(table, line_no, f"holds {got!r}, lang_pos gives {want!r}")


def _read_rows(lines, table, width):
    """Decoded rows of a TSV body, its first line being line 2 of the file."""
    for line_no, line in enumerate(lines, start=2):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != width:
            raise MalformedRow(table, line_no, f"expected {width} fields, got {len(fields)}")
        yield [_tsv_unescape(v) for v in fields] if "\\" in line else fields


_ESCAPE_RE = re.compile(r"\\(.)", re.S)
_UNESCAPES = {"t": "\t", "n": "\n"}


def _tsv_escape(value) -> str:
    if value is None:
        return "\\N"  # unambiguous: a literal backslash always doubles
    s = str(value)
    return s.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _tsv_field(value) -> str:
    """_tsv_escape(value), with the values an export is made of taking the
    short way: an int never needs escaping, and most texts hold no
    backslash, tab or newline."""
    if type(value) is int:
        return str(value)
    if type(value) is str and "\\" not in value and "\t" not in value and "\n" not in value:
        return value
    return _tsv_escape(value)


def _tsv_unescape(fieldtext: str):
    """Inverse of _tsv_escape; any other escaped character stands for itself
    and a trailing lone backslash is kept."""
    if fieldtext == "\\N":
        return None
    if "\\" not in fieldtext:
        return fieldtext
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES.get(m[1], m[1]), fieldtext)


def _write_tsv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\t".join(columns) + "\n")
        for row in rows:
            f.write("\t".join([_tsv_field(v) for v in row]) + "\n")
