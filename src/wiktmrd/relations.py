"""Semantic-relation (thesaurus) extraction from a PosSection.

en dialect: each relation subsection lists "* [[word]]" lines; a leading
{{sense|...}} template aligns the line to the meaning whose text contains
the gloss. ru dialect: the i-th list line belongs to meaning ordinal i, and
"-"/"—" placeholder lines hold the position without contributing rows.
Rows are the store's relation tuples (see store.py).
"""

from __future__ import annotations

import re

from . import wikitext as wt
from .entry import LIST_LINE_RE, PosSection
from .registry import Registry

_PLACEHOLDERS = ("", "-", "—")

# templates acting as plain wikilinks: {{l|en|word}}, {{link|en|word}}
_LINK_TEMPLATES = frozenset({"l", "link"})
_SENSE_TEMPLATE = "sense"


def extract_relations(
    pos_section: PosSection,
    meanings: list[tuple[int, str, list[str]]],
    dialect: str,
    registry: Registry,
) -> list[tuple[str, str, str, int | None]]:
    """All relations of one PosSection, in source order, as
    (type_name, target_word, target_wikitext, meaning_ordinal or None) rows.
    `meanings` are the section's meaning rows (entry.extract_definitions).

    Empty relation subsections are legal and contribute nothing.
    """
    rows: list[tuple[str, str, str, int | None]] = []
    plain: dict[int, str] = {}  # ordinal -> casefolded plain text, on first use
    heads = pos_section.headings()
    for i, head in enumerate(heads):
        type_name = registry.find_relation_heading(head.inner_text, dialect)
        if type_name is None:
            continue
        lines = pos_section.subsection(heads, i).splitlines()
        items = [m.group(2).strip() for m in map(LIST_LINE_RE.match, lines) if m]
        for index, content in enumerate(items):
            if content in _PLACEHOLDERS:
                continue
            if dialect == "en":
                ordinal, content = _take_sense_gloss(content, meanings, plain)
            else:  # the i-th list line belongs to meaning i
                ordinal = meanings[index][0] if index < len(meanings) else None
            _rows_from_line(type_name, content, ordinal, rows)
    return rows


def _take_sense_gloss(content: str, meanings, plain: dict[int, str]):
    """Split off a leading {{sense|...}} template; return the ordinal of the
    meaning its gloss aligns to (or None) and the rest of the line. `plain`
    caches each meaning's casefolded plain text across the section's lines."""
    if not content.startswith("{{"):
        return None, content
    templates = wt.scan_templates(content)
    if not templates or templates[0].source_span[0] != 0:
        return None, content
    tpl = templates[0]
    if tpl.name.strip().casefold() != _SENSE_TEMPLATE:
        return None, content
    gloss = wt.strip_markup(", ".join(tpl.positional_params))
    ordinal = None
    if gloss:
        needle = gloss.casefold()
        for meaning_ordinal, wikitext, _ in meanings:
            if meaning_ordinal not in plain:
                plain[meaning_ordinal] = wt.strip_markup(wikitext).casefold()
            if needle in plain[meaning_ordinal]:
                ordinal = meaning_ordinal
                break
    rest = wt.decode(wt.encode(content)[tpl.source_span[1]:]).strip()
    return ordinal, rest


def _rows_from_line(type_name, content, ordinal, rows):
    data = wt.encode(content)
    spans = _link_like_spans(content, data)
    if spans:
        pieces = [_link_wikitext(wt.decode(data[s:e])) for s, e in spans]
    else:  # no links on the line: comma/semicolon-separated bare words
        pieces = [token.strip() for token in re.split(r"[,;]", content)
                  if token.strip() not in _PLACEHOLDERS]
    for wikitext in pieces:
        word = wt.strip_markup(wikitext)
        if word:
            rows.append((type_name, word, wikitext, ordinal))


def _link_wikitext(piece: str) -> str:
    """The word's wikitext in a wikilink, or in a {{l|lang|word}} template."""
    if not piece.startswith("{{"):
        return piece
    params = wt.scan_templates(piece)[0].positional_params
    return (params[1] if len(params) > 1 else "").strip()


def _link_like_spans(content: str, data: bytes):
    """Byte spans of wikilinks and {{l|...}} link templates in `data`, the
    encoded `content`, in source order.

    Overlaps (a link inside a link template) keep the earlier-starting span.
    """
    spans = list(wt._kernel.wikilink_spans(data))
    for tpl in wt.scan_templates(content):
        if tpl.name.strip().casefold() in _LINK_TEMPLATES:
            spans.append(tpl.source_span)
    spans.sort(key=lambda se: (se[0], -se[1]))
    out = []
    for span in spans:
        if not out or span[0] >= out[-1][1]:
            out.append(span)
    return out
