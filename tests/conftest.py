import bz2
import gzip
import os
from xml.sax.saxutils import escape, quoteattr

import pytest

from wiktmrd import registry as reg
from wiktmrd.entry import Page, PageOutline, PosSection

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def build_dump_xml(pages) -> str:
    """MediaWiki pages-articles XML for (title, text[, ns[, redirect]]) tuples."""
    parts = [
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="en">',
        "  <siteinfo><sitename>Wiktionary</sitename></siteinfo>",
    ]
    for i, item in enumerate(pages):
        title, text = item[0], item[1]
        ns = item[2] if len(item) > 2 else 0
        redirect = item[3] if len(item) > 3 else None
        parts.append("  <page>")
        parts.append(f"    <title>{escape(title)}</title>")
        parts.append(f"    <ns>{ns}</ns>")
        parts.append(f"    <id>{i + 1}</id>")
        if redirect is not None:
            parts.append(f"    <redirect title={quoteattr(redirect)} />")
        parts.append(f"    <revision><id>{1000 + i}</id>"
                     f'<text xml:space="preserve">{escape(text)}</text></revision>')
        parts.append("  </page>")
    parts.append("</mediawiki>")
    return "\n".join(parts) + "\n"


def write_dump(path, pages, compression=None) -> str:
    data = build_dump_xml(pages).encode("utf-8")
    path = str(path)
    if compression == "gz":
        with gzip.open(path, "wb") as f:
            f.write(data)
    elif compression == "bz2":  # small blocks, so damage can land after the first
        with bz2.open(path, "wb", compresslevel=1) as f:
            f.write(data)
    else:
        with open(path, "wb") as f:
            f.write(data)
    return path


def fixture_dump_pages(dialect: str):
    return [(name, fixture_text(dialect, name)) for name in fixture_titles(dialect)]


def fixture_text(dialect: str, name: str) -> str:
    path = os.path.join(DATA_DIR, f"entries_{dialect}", f"{name}.txt")
    with open(path, encoding="utf-8") as f:
        return f.read()


def fixture_page(dialect: str, name: str, record_id: int = 0) -> Page:
    return Page(title=name, raw_text=fixture_text(dialect, name), record_id=record_id)


def pos_section(body: str, language: str = "en") -> PosSection:
    """A noun section whose page is `body` alone."""
    outline = PageOutline(body)
    return PosSection(language=language, etymology_ordinal=0, pos="noun",
                      span=(0, len(outline.data)), outline=outline)


def fixture_titles(dialect: str) -> list[str]:
    d = os.path.join(DATA_DIR, f"entries_{dialect}")
    return sorted(n[:-4] for n in os.listdir(d) if n.endswith(".txt"))


@pytest.fixture(scope="session")
def registry():
    return reg.builtin_registry()


def assert_full_index_set(store):
    """The store has exactly its text-hash index and its secondary indexes,
    nothing obsolete and nothing missing, and stores no word-index table:
    those are derived."""
    from wiktmrd.store import _SECONDARY_INDEXES

    names = {name for (name,) in store.query(
        "SELECT name FROM sqlite_master WHERE type='index' "
        "AND name NOT LIKE 'sqlite_autoindex_%'")}
    assert names == {"idx_wiki_text_hash", *_SECONDARY_INDEXES}
    assert store.query(
        "SELECT name FROM sqlite_master WHERE type='table' AND name LIKE 'index_%'") == []
