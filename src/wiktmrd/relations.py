"""Semantic-relation (thesaurus) extraction from a PosSection, under the
relation headings and the line binding of its page's edition.

bind_by_sense (en): a leading {{sense|...}} template aligns a "* [[word]]"
line to the meaning whose text contains the gloss. bind_by_position (ru):
the i-th line of one "#" or "*" marker belongs to meaning ordinal i, "-"/"—"
placeholders hold the position without rows, and nested lines give none.
Rows are the store's relation tuples (see store.py).
"""

from __future__ import annotations

import re

from . import wikitext as wt
from .entry import LIST_LINE_RE, PosSection

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
    edition = pos_section.outline.edition
    heads = pos_section.headings()
    subsections = []
    for i, head in enumerate(heads):
        type_name = edition.relation_headings.get(head.inner_text.strip().casefold())
        if type_name is not None:
            lines = pos_section.subsection(heads, i).splitlines()
            subsections.append((type_name, [(m.group(1), m.group(2).strip())
                                            for m in map(LIST_LINE_RE.match, lines) if m]))
    rows: list[tuple[str, str, str, int | None]] = []
    for type_name, ordinal, data, templates, start in edition.bind_relation_lines(
            subsections, meanings):
        for wikitext in _line_words(data, templates, start):
            word = wt.strip_markup(wikitext)
            if word:
                rows.append((type_name, word, wikitext, ordinal))
    return rows


def bind_by_sense(subsections, meanings):
    """(type_name, meaning ordinal | None, encoding, templates, where the words
    start) per non-placeholder line of the (type_name, [(markers, content)])
    subsections; a leading {{sense|gloss}} names the meaning, words follow it."""
    plain: dict[int, str] = {}  # ordinal -> casefolded plain text, on first use
    for type_name, items in subsections:
        for _, content in items:
            if content in _PLACEHOLDERS:
                continue
            data = wt.encode(content)
            templates = wt.scan_templates(data)
            sense = templates[0] if templates and templates[0].source_span[0] == 0 else None
            if sense is None or sense.name.strip().casefold() != _SENSE_TEMPLATE:
                yield type_name, None, data, templates, 0
                continue
            gloss = wt.strip_markup(", ".join(sense.positional_params)).casefold()
            ordinal = None
            for meaning_ordinal, wikitext, _ in meanings if gloss else ():
                if meaning_ordinal not in plain:
                    plain[meaning_ordinal] = wt.strip_markup(wikitext).casefold()
                if gloss in plain[meaning_ordinal]:
                    ordinal = meaning_ordinal
                    break
            yield type_name, ordinal, data, templates, sense.source_span[1]


def bind_by_position(subsections, meanings):
    """As bind_by_sense; the i-th line of one "#" or "*" marker is meaning i's."""
    for type_name, items in subsections:
        top = [content for markers, content in items if markers in ("#", "*")]
        for index, content in enumerate(top):
            if content not in _PLACEHOLDERS:
                data = wt.encode(content)
                ordinal = meanings[index][0] if index < len(meanings) else None
                yield type_name, ordinal, data, wt.scan_templates(data), 0


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
