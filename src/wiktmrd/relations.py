"""Semantic-relation (thesaurus) extraction from a PosSection, under the
dialect its page's outline records.

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
from .registry import find_relation_heading

_PLACEHOLDERS = ("", "-", "—")

# templates acting as plain wikilinks: {{l|en|word}}, {{link|en|word}}
_LINK_TEMPLATES = frozenset({"l", "link"})
_SENSE_TEMPLATE = "sense"


def extract_relations(
    pos_section: PosSection, meanings: list[tuple[int, str, list[str]]]
) -> list[tuple[str, str, str, int | None]]:
    """All relations of one PosSection, in source order, as
    (type_name, target_word, target_wikitext, meaning_ordinal or None) rows.
    `meanings` are the section's meaning rows (entry.extract_definitions).

    Empty relation subsections are legal and contribute nothing.
    """
    rows: list[tuple[str, str, str, int | None]] = []
    plain: dict[int, str] = {}  # ordinal -> casefolded plain text, on first use
    dialect = pos_section.outline.dialect
    heads = pos_section.headings()
    for i, head in enumerate(heads):
        type_name = find_relation_heading(head.inner_text, dialect)
        if type_name is None:
            continue
        lines = pos_section.subsection(heads, i).splitlines()
        items = [m.group(2).strip() for m in map(LIST_LINE_RE.match, lines) if m]
        for index, content in enumerate(items):
            if content in _PLACEHOLDERS:
                continue
            data = wt.encode(content)
            templates = wt.scan_templates(data)
            ordinal = None
            start = 0  # where the line's words begin
            if dialect != "en":  # the i-th list line belongs to meaning i
                ordinal = meanings[index][0] if index < len(meanings) else None
            elif (templates and templates[0].source_span[0] == 0
                  and templates[0].name.strip().casefold() == _SENSE_TEMPLATE):
                ordinal = _sense_ordinal(templates[0], meanings, plain)
                start = templates[0].source_span[1]
            for wikitext in _line_words(data, templates, start):
                word = wt.strip_markup(wikitext)
                if word:
                    rows.append((type_name, word, wikitext, ordinal))
    return rows


def _sense_ordinal(sense: wt.Template, meanings, plain: dict[int, str]) -> int | None:
    """Ordinal of the first meaning whose text contains the gloss of a
    {{sense|...}} template, or None. `plain` caches each meaning's
    casefolded plain text across the section's lines."""
    gloss = wt.strip_markup(", ".join(sense.positional_params))
    if not gloss:
        return None
    needle = gloss.casefold()
    for meaning_ordinal, wikitext, _ in meanings:
        if meaning_ordinal not in plain:
            plain[meaning_ordinal] = wt.strip_markup(wikitext).casefold()
        if needle in plain[meaning_ordinal]:
            return meaning_ordinal
    return None


def _line_words(data: bytes, templates: list[wt.Template], start: int) -> list[str]:
    """The wikitext of each word in data[start:], where `data` is a list line's
    encoding and `templates` its top-level templates: each wikilink and the
    word of each {{l|lang|word}} template, in source order, the earlier one
    kept where two overlap; without either, the comma- or semicolon-separated
    bare words. `start` ends a leading {{sense|...}}, a closed top-level
    group, so the links and templates starting there are those a scan of
    data[start:] alone would find."""
    spans = [(link.source_span, None) for link in wt.scan_wikilinks(data)
             if link.source_span[0] >= start]
    spans += [(tpl.source_span, tpl) for tpl in templates
              if tpl.source_span[0] >= start
              and tpl.name.strip().casefold() in _LINK_TEMPLATES]
    if not spans:
        tokens = (token.strip() for token in re.split(r"[,;]", wt.decode(data[start:])))
        return [token for token in tokens if token not in _PLACEHOLDERS]
    spans.sort(key=lambda piece: (piece[0][0], -piece[0][1]))
    words = []
    end = 0
    for (s, e), tpl in spans:
        if s < end:
            continue
        end = e
        if tpl is None:
            words.append(wt.decode(data[s:e]))
        else:
            params = tpl.positional_params
            words.append((params[1] if len(params) > 1 else "").strip())
    return words
